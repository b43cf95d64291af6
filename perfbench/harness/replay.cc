// Serial layer replay of one out-of-core training epoch.
//
// The replay rebuilds the trainer's state in the trainer's draw order (model,
// partitioning, initial image) and walks one epoch set by set and batch by
// batch through the same public calls the trainers make (OrderingPolicy /
// NodeCachingPolicy, PartitionBuffer, NeighborIndex, the samplers, the
// encoder, decoder or head, EmbeddingStore and the optimizer), with a span
// around each call. It runs the batch stream serially — sampling, then
// compute — so every span measures one layer alone; the pipelined overlap is
// measured by the trainer's own counters instead.
//
// Span tree: "epoch" > "set" > "batch" > call spans. Trainer glue that is
// neither a library call nor free (collecting a set's edges and examples,
// planning a batch's rows) gets a span of its own so that replay coverage —
// the share of the epoch inside call spans — stays meaningful.
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "perfbench/harness/workloads.h"
#include "src/comm/gradient_exchange.h"
#include "src/policy/comet.h"
#include "src/policy/node_caching.h"
#include "src/sampler/negative.h"
#include "src/storage/embedding_store.h"
#include "src/tensor/ops.h"
#include "src/util/rv_monitor.h"

namespace perfbench {

using namespace mariusgnn;

namespace {

// One batch's rows, as the link-prediction trainer plans them: unique targets
// (sources, destinations, then negatives) and per-edge row indices.
struct LinkBatchPlan {
  std::vector<int64_t> targets;
  std::vector<int64_t> src_rows;
  std::vector<int64_t> dst_rows;
  std::vector<int64_t> neg_rows;
  std::vector<int32_t> rels;
  std::unordered_map<int64_t, int64_t> row_of;

  int64_t Row(int64_t node) {
    auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(targets.size()));
    if (inserted) {
      targets.push_back(node);
    }
    return it->second;
  }
};

class EpochReplay {
 public:
  EpochReplay(const Graph& graph, const TrainingConfig& config, TaskKind kind,
              const std::string& work_dir, Tracer* tracer)
      : graph_(graph),
        config_(config),
        kind_(kind),
        tracer_(tracer),
        compute_(config.MakeComputeContext(&compute_stats_)),
        rng_(config.seed) {
    Tracer::Scope setup(tracer_, "setup", false);
    model_ = ModelState::Build(kind, graph, config.model_config(), rng_);
    model_.SetCompute(&compute_);
    const bool lp = kind == TaskKind::kLinkPrediction;
    {
      Tracer::Scope span(tracer_, "graph.partition");
      partitioning_ = std::make_unique<Partitioning>(
          graph, config.storage.num_physical,
          lp ? PartitionAssignment::kRandom : PartitionAssignment::kTrainingNodesFirst,
          rng_);
    }
    Tensor init;
    const Tensor* image = &graph.features();
    if (lp) {
      const int64_t dim = config.dims.front();
      init = Tensor::Uniform(graph.num_nodes(), dim,
                             1.0f / std::sqrt(static_cast<float>(dim)), rng_);
      image = &init;
    }
    {
      Tracer::Scope span(tracer_, "storage.init_image");
      buffer_ = std::make_unique<PartitionBuffer>(
          partitioning_.get(), image->cols(), config.storage.buffer_capacity,
          work_dir + "/replay_image.bin", config.storage.disk_model,
          /*learnable=*/lp, image, config.MakePartitionIoOptions());
    }
    store_ = std::make_unique<BufferedEmbeddingStore>(buffer_.get(), lp);
    store_->set_compute(&compute_);
  }

  ReplayResult Run() {
    Tracer::Scope epoch(tracer_, "epoch", false);
    result_.epoch_span = epoch.id();
    if (kind_ == TaskKind::kLinkPrediction) {
      RunLinkPrediction();
    } else {
      RunNodeClassification();
    }
    const IoEngineStats io = buffer_->ConsumeIoStats();
    result_.read_bytes = io.read_bytes;
    result_.write_bytes = io.write_bytes;
    result_.determinism_hash = hash_.value();
    return result_;
  }

 private:
  using Scope = Tracer::Scope;

  // Edges among the resident partitions `set`, indexed for sampling.
  std::unique_ptr<NeighborIndex> BuildIndex(const std::vector<int32_t>& set) {
    std::vector<Edge> edges;
    {
      Scope span(tracer_, "graph.collect_edges");
      for (int32_t a : set) {
        for (int32_t b : set) {
          for (int64_t e : partitioning_->Bucket(a, b)) {
            edges.push_back(graph_.edge(e));
          }
        }
      }
    }
    Scope span(tracer_, "graph.index_build");
    auto index = std::make_unique<NeighborIndex>(graph_.num_nodes(), edges);
    result_.index_edges += index->num_edges();
    return index;
  }

  void Swap(const std::vector<int32_t>& set) {
    Scope span(tracer_, "storage.swap");
    buffer_->SetResident(set);
    buffer_->ConsumeBackgroundIoSeconds();
  }

  void Prefetch(const std::vector<int32_t>& partitions) {
    Scope span(tracer_, "storage.prefetch");
    buffer_->Prefetch(partitions);
  }

  DenseBatch Sample(const std::vector<int64_t>& targets, uint64_t batch_seed,
                    std::vector<int64_t>* nodes) {
    Scope span(tracer_, "sampler.dense");
    DenseBatch dense = model_.dense_sampler->SampleSeeded(targets, MixSeed(batch_seed, 2));
    dense.FinalizeForDevice();
    *nodes = dense.node_ids;
    result_.sampled_nodes += static_cast<double>(dense.num_nodes());
    result_.sampled_edges += static_cast<double>(dense.num_sampled_edges());
    return dense;
  }

  Tensor Gather(const std::vector<int64_t>& nodes) {
    Scope span(tracer_, "storage.gather");
    Tensor h0;
    store_->Gather(nodes, &h0);
    return h0;
  }

  void Finish(float loss, int64_t examples) {
    {
      Scope span(tracer_, "nn.optimizer");
      model_.weight_opt->StepAll(model_.params);
    }
    hash_.FoldFloat(loss);
    result_.examples += examples;
    ++result_.batches;
  }

  void RunLinkPrediction() {
    std::vector<char> is_train(static_cast<size_t>(graph_.num_edges()),
                               graph_.train_edges().empty() ? 1 : 0);
    for (int64_t e : graph_.train_edges()) {
      is_train[static_cast<size_t>(e)] = 1;
    }
    CometPolicy policy(config_.storage.num_logical,
                       config_.storage.comet_randomize_grouping,
                       config_.storage.comet_deferred_assignment);
    EpochPlan plan;
    {
      Scope span(tracer_, "policy.plan");
      plan = policy.GenerateEpoch(*partitioning_, config_.storage.buffer_capacity, rng_);
    }
    result_.sets = plan.num_sets();
    result_.partition_loads = plan.TotalPartitionLoads();
    for (int64_t i = 0; i < plan.num_sets(); ++i) {
      Scope set_span(tracer_, "set", false);
      const std::vector<int32_t>& set = plan.sets[static_cast<size_t>(i)];
      Swap(set);
      if (config_.storage.prefetch && i + 1 < plan.num_sets()) {
        Prefetch(policy.Lookahead(plan, i));
      }
      const std::unique_ptr<NeighborIndex> index = BuildIndex(set);
      std::vector<int64_t> train_ids;
      {
        Scope span(tracer_, "graph.collect_examples");
        for (const BucketId& bucket : plan.buckets_per_set[static_cast<size_t>(i)]) {
          for (int64_t e : partitioning_->Bucket(bucket.first, bucket.second)) {
            if (is_train[static_cast<size_t>(e)] != 0) {
              train_ids.push_back(e);
            }
          }
        }
        rng_.Shuffle(train_ids);
      }
      std::unique_ptr<UniformNegativeSampler> negatives;
      {
        Scope span(tracer_, "storage.resident_nodes");
        negatives = std::make_unique<UniformNegativeSampler>(buffer_->ResidentNodes(),
                                                             rng_.Next());
      }
      if (train_ids.empty()) {
        continue;
      }
      model_.dense_sampler->set_index(index.get());
      const uint64_t run_seed = rng_.Next();
      const int64_t total = static_cast<int64_t>(train_ids.size());
      for (int64_t g = 0; g * config_.batch_size < total; ++g) {
        Scope batch_span(tracer_, "batch", false);
        const int64_t begin = g * config_.batch_size;
        const int64_t end = std::min(total, begin + config_.batch_size);
        LinkBatch(train_ids, begin, end, *negatives,
                  ReplicaBatchPartition::BatchSeed(run_seed, g));
      }
    }
    Scope span(tracer_, "storage.flush");
    buffer_->FlushAll();
    buffer_->ConsumeBackgroundIoSeconds();
  }

  void LinkBatch(const std::vector<int64_t>& ids, int64_t begin, int64_t end,
                 const UniformNegativeSampler& negatives, uint64_t batch_seed) {
    LinkBatchPlan plan;
    {
      Scope span(tracer_, "core.batch_plan");
      plan.row_of.reserve(static_cast<size_t>(end - begin) * 3);
      for (int64_t k = begin; k < end; ++k) {
        const Edge& edge = graph_.edge(ids[static_cast<size_t>(k)]);
        plan.src_rows.push_back(plan.Row(edge.src));
        plan.dst_rows.push_back(plan.Row(edge.dst));
        plan.rels.push_back(edge.rel);
      }
    }
    {
      Scope span(tracer_, "sampler.negatives");
      for (int64_t n : negatives.SampleSeeded(config_.num_negatives, MixSeed(batch_seed, 1))) {
        plan.neg_rows.push_back(plan.Row(n));
      }
    }
    std::vector<int64_t> nodes;
    DenseBatch dense = Sample(plan.targets, batch_seed, &nodes);
    Tensor h0 = Gather(nodes);
    Tensor reprs;
    {
      Scope span(tracer_, "nn.encoder_fwd");
      reprs = model_.encoder->Forward(dense, h0);
    }
    float loss = 0.0f;
    Tensor d_reprs;
    {
      Scope span(tracer_, "nn.decoder");
      d_reprs = Tensor(reprs.rows(), reprs.cols());
      loss = model_.decoder->LossAndGrad(reprs, plan.src_rows, plan.dst_rows, plan.rels,
                                         plan.neg_rows, &d_reprs);
    }
    Tensor grads;
    {
      Scope span(tracer_, "nn.encoder_bwd");
      grads = model_.encoder->Backward(d_reprs);
    }
    {
      Scope span(tracer_, "storage.apply_grads");
      store_->ApplyGradients(nodes, grads, config_.embedding_lr);
    }
    Finish(loss, end - begin);
  }

  void RunNodeClassification() {
    std::vector<int64_t> train = graph_.train_nodes();
    {
      Scope span(tracer_, "graph.collect_examples");
      rng_.Shuffle(train);
    }
    EpochPlan plan;
    {
      Scope span(tracer_, "policy.plan");
      plan.sets = NodeCachingPolicy().GenerateEpoch(*partitioning_,
                                                    config_.storage.buffer_capacity, rng_);
    }
    result_.sets = plan.num_sets();
    result_.partition_loads = plan.TotalPartitionLoads();
    std::vector<char> done(static_cast<size_t>(config_.storage.num_physical), 0);
    for (size_t i = 0; i < plan.sets.size(); ++i) {
      Scope set_span(tracer_, "set", false);
      const std::vector<int32_t>& set = plan.sets[i];
      Swap(set);
      if (config_.storage.prefetch && i + 1 < plan.sets.size()) {
        Prefetch(PrefetchDelta(set, plan.sets[i + 1]));
      }
      std::vector<char> fresh(done.size(), 0);
      for (int32_t a : set) {
        fresh[static_cast<size_t>(a)] = done[static_cast<size_t>(a)] == 0;
        done[static_cast<size_t>(a)] = 1;
      }
      const std::unique_ptr<NeighborIndex> index = BuildIndex(set);
      std::vector<int64_t> subset;
      {
        Scope span(tracer_, "graph.collect_examples");
        for (int64_t v : train) {
          if (fresh[static_cast<size_t>(partitioning_->PartitionOf(v))] != 0) {
            subset.push_back(v);
          }
        }
      }
      if (subset.empty()) {
        continue;
      }
      model_.dense_sampler->set_index(index.get());
      const uint64_t run_seed = rng_.Next();
      const int64_t total = static_cast<int64_t>(subset.size());
      for (int64_t g = 0; g * config_.batch_size < total; ++g) {
        Scope batch_span(tracer_, "batch", false);
        const int64_t begin = g * config_.batch_size;
        const int64_t end = std::min(total, begin + config_.batch_size);
        NodeBatch(std::vector<int64_t>(subset.begin() + begin, subset.begin() + end),
                  ReplicaBatchPartition::BatchSeed(run_seed, g));
      }
    }
  }

  void NodeBatch(const std::vector<int64_t>& targets, uint64_t batch_seed) {
    std::vector<int64_t> labels;
    {
      Scope span(tracer_, "core.batch_plan");
      for (int64_t v : targets) {
        labels.push_back(graph_.labels()[static_cast<size_t>(v)]);
      }
    }
    std::vector<int64_t> nodes;
    DenseBatch dense = Sample(targets, batch_seed, &nodes);
    Tensor h0 = Gather(nodes);
    Tensor reprs;
    {
      Scope span(tracer_, "nn.encoder_fwd");
      reprs = model_.encoder->Forward(dense, h0);
    }
    float loss = 0.0f;
    Tensor d_reprs;
    {
      Scope span(tracer_, "nn.head");
      Tensor logits = model_.head->Forward(reprs);
      Tensor d_logits;
      loss = SoftmaxCrossEntropy(logits, labels, &d_logits, &compute_);
      d_reprs = model_.head->Backward(d_logits);
    }
    {
      Scope span(tracer_, "nn.encoder_bwd");
      model_.encoder->Backward(d_reprs);
    }
    Finish(loss, static_cast<int64_t>(targets.size()));
  }

  const Graph& graph_;
  const TrainingConfig& config_;
  TaskKind kind_;
  Tracer* tracer_;
  ComputeStats compute_stats_;
  ComputeContext compute_;
  Rng rng_;
  ModelState model_;
  std::unique_ptr<Partitioning> partitioning_;
  std::unique_ptr<PartitionBuffer> buffer_;
  std::unique_ptr<BufferedEmbeddingStore> store_;
  DeterminismHash hash_;
  ReplayResult result_;
};

}  // namespace

ReplayResult ReplayTrainingEpoch(const Graph& graph, const TrainingConfig& config,
                                 TaskKind kind, const std::string& work_dir,
                                 Tracer* tracer) {
  EpochReplay replay(graph, config, kind, work_dir, tracer);
  return replay.Run();
}

}  // namespace perfbench
