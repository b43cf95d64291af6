// lp-disk and nc-disk: out-of-core training through the public trainers.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench/harness/stats.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {

using namespace mariusgnn;

namespace {

// Trainer constructions timed per run; setup_s is their median.
constexpr int kSetupRepeats = 11;
// Untimed epochs before the timed ones (controller settling, page cache).
constexpr int kWarmupEpochs = 1;
// The timed epoch count is seconds / kNominalEpochSeconds (at least 3), a
// function of the command line only, so quality depends on the seed and
// --seconds alone and never on how fast the host is.
constexpr double kNominalEpochSeconds = 6.0;
// Test edges ranked for lp-disk's MRR (all of FreebaseMini's test split).
constexpr int64_t kMrrEdges = 10000;
// Test nodes scored for nc-disk's accuracy (the whole split takes ~13 s).
constexpr int64_t kAccuracyNodes = 2000;

bool IsLinkPrediction(const std::string& workload) { return workload != "nc-disk"; }

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Per-epoch correctness: no runtime-verification violation and a finite loss.
bool CheckEpoch(const EpochStats& s, int epoch, Report* report) {
  const bool ok = s.rv_violations == 0 && std::isfinite(s.loss);
  report->Check("epoch" + std::to_string(epoch), ok,
                "rv_violations=" + std::to_string(s.rv_violations) +
                    " loss=" + std::to_string(s.loss));
  return ok;
}

template <typename Trainer>
double Quality(Trainer& trainer, const Graph& graph);

template <>
double Quality(LinkPredictionTrainer& trainer, const Graph&) {
  return trainer.EvaluateMrr(/*num_negatives=*/500, /*max_edges=*/kMrrEdges);
}

template <>
double Quality(NodeClassificationTrainer& trainer, const Graph& graph) {
  const std::vector<int64_t>& test = graph.test_nodes();
  const size_t n = std::min(test.size(), static_cast<size_t>(kAccuracyNodes));
  return trainer.EvaluateAccuracy(std::vector<int64_t>(test.begin(), test.begin() + n));
}

template <typename Trainer>
void Measure(const RunOptions& options, const Graph& graph, const TrainingConfig& config,
             Report* report) {
  std::vector<double> setup;
  std::unique_ptr<Trainer> trainer;
  for (int k = 0; k < kSetupRepeats; ++k) {
    trainer.reset();
    const double t0 = NowSeconds();
    trainer = std::make_unique<Trainer>(&graph, config);
    setup.push_back(NowSeconds() - t0);
  }

  const int timed = std::max(3, static_cast<int>(options.seconds / kNominalEpochSeconds));
  std::vector<double> epoch_s;
  std::vector<double> reported_s;
  std::vector<double> examples_per_s;
  DeterminismHash fold;
  for (int e = 0; e < kWarmupEpochs + timed; ++e) {
    const double t0 = NowSeconds();
    const EpochStats s = trainer->TrainEpoch();
    const double real = NowSeconds() - t0;
    CheckEpoch(s, e, report);
    fold.FoldU64(s.determinism_hash);
    if (e >= kWarmupEpochs) {
      epoch_s.push_back(real);
      reported_s.push_back(s.wall_seconds);
      examples_per_s.push_back(static_cast<double>(s.num_examples) / real);
    }
  }
  const double quality = Quality(*trainer, graph);
  report->Check("quality_in_range", quality > 0.0 && quality <= 1.0,
                "quality=" + std::to_string(quality));
  trainer.reset();

  report->Metric("setup_s", Median(setup), "s");
  report->Metric("epoch_s", Median(epoch_s), "s");
  report->Metric("epoch_max_s", *std::max_element(epoch_s.begin(), epoch_s.end()), "s");
  report->Metric("examples_per_s", Median(examples_per_s), "1/s");
  report->Metric("quality", quality, IsLinkPrediction(options.workload) ? "mrr" : "accuracy");
  report->Metric("core.reported_epoch_s", Median(reported_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  std::string epochs;
  for (double e : epoch_s) {
    epochs += (epochs.empty() ? "" : " ") + std::to_string(e);
  }
  report->Info("timed_epochs_s", epochs);
  report->Info("determinism_fold", Hex(fold.value()));
}

}  // namespace

Graph MakeGraph(const std::string& workload, uint64_t seed) {
  if (workload == "nc-disk") {
    return PapersMini(4.0, seed);
  }
  return FreebaseMini(1.0, seed);
}

TrainingConfig MakeConfig(const std::string& workload, uint64_t seed, ThreadPool* pool,
                          const std::string& work_dir) {
  TrainingConfig config;
  config.seed = seed;
  config.batch_size = 1000;
  config.storage.use_disk = true;
  config.storage.num_physical = 16;
  config.storage.dir = work_dir;
  config.pipeline.compute_pool = pool;
  config.pipeline.pipeline_pool = pool;
  if (workload == "nc-disk") {
    config.fanouts = {15, 10, 5};
    config.dims = {64, 64, 64, 32};
    config.storage.buffer_capacity = 8;
  } else {
    config.fanouts = {10};
    config.dims = {32, 32};
    config.decoder = "distmult";
    config.num_negatives = 100;
    config.storage.num_logical = 8;
    config.storage.buffer_capacity = 4;
    config.checkpoint.every_n_epochs = 1;
    config.checkpoint.keep_last_k = 1;
    config.checkpoint.path = work_dir + "/train.ckpt";
  }
  return config;
}

namespace {

// The per-layer metrics of a traced epoch: replay spans plus the trainer's own
// counters from `s`, and the fidelity checks. `trainer_epoch_s` is the
// trainer's real (untraced) time for that epoch.
void ReportReplay(const EpochStats& s, double trainer_epoch_s, const ReplayResult& r,
                  const Tracer& tracer, bool link_prediction, Report* report) {
  // Fidelity: the replay walks the trainer's epoch, so it must see the same
  // examples exactly and (nearly) the same sets, batches and bytes. Bytes may
  // differ a little: which swaps the prefetcher staged in time depends on timing.
  report->Check("replay_examples", r.examples == s.num_examples,
                std::to_string(r.examples) + " vs trainer " + std::to_string(s.num_examples));
  auto close = [](double a, double b, double tol) {
    return std::fabs(a - b) <= tol * std::max(std::fabs(b), 1.0);
  };
  report->Check("replay_sets", close(r.sets, s.num_partition_sets, 0.05),
                std::to_string(r.sets) + " vs " + std::to_string(s.num_partition_sets));
  report->Check("replay_batches", close(r.batches, s.num_batches, 0.05),
                std::to_string(r.batches) + " vs " + std::to_string(s.num_batches));
  report->Check("replay_read_bytes", close(r.read_bytes, s.io_read_bytes, 0.35),
                std::to_string(r.read_bytes) + " vs " + std::to_string(s.io_read_bytes));
  report->Check("replay_write_bytes", close(r.write_bytes, s.io_write_bytes, 0.35),
                std::to_string(r.write_bytes) + " vs " + std::to_string(s.io_write_bytes));

  const double epoch = tracer.spans()[static_cast<size_t>(r.epoch_span)].duration();
  const double uncovered = UncoveredSeconds(tracer.spans(), r.epoch_span);
  const double coverage = epoch > 0.0 ? 1.0 - uncovered / epoch : 0.0;
  report->Check("replay_coverage", coverage >= 0.95,
                "coverage=" + std::to_string(coverage));
  report->Info("replay.hash_match", r.determinism_hash == s.determinism_hash ? "yes" : "no");
  report->Info("replay.root_self_frac",
               std::to_string(SelfSeconds(tracer.spans(), r.epoch_span) / epoch));

  auto span = [&](const std::string& metric, const std::string& name) {
    report->Metric(metric, tracer.TotalSeconds(name), "s");
  };
  report->Metric("replay.epoch_s", epoch, "s");
  report->Metric("replay.coverage", coverage, "fraction");
  report->Metric("trainer.epoch_s", trainer_epoch_s, "s");
  // Traced serial replay versus the untraced pipelined trainer, same epoch:
  // span cost plus the overlap the serial replay gives up.
  report->Metric("trace.overhead_frac", epoch / trainer_epoch_s - 1.0, "fraction");
  span("policy.plan_s", "policy.plan");
  report->Metric("policy.partition_loads", static_cast<double>(r.partition_loads), "count");
  report->Metric("policy.sets", static_cast<double>(r.sets), "count");
  span("storage.swap_s", "storage.swap");
  span("storage.prefetch_s", "storage.prefetch");
  span("storage.flush_s", "storage.flush");
  span("storage.gather_s", "storage.gather");
  span("storage.init_image_s", "storage.init_image");
  span("graph.partition_s", "graph.partition");
  span("graph.index_build_s", "graph.index_build");
  report->Metric("graph.index_edges", static_cast<double>(r.index_edges), "count");
  span("sampler.dense_s", "sampler.dense");
  const double batches = std::max<double>(1.0, static_cast<double>(r.batches));
  report->Metric("sampler.nodes_per_batch", r.sampled_nodes / batches, "count");
  report->Metric("sampler.edges_per_batch", r.sampled_edges / batches, "count");
  span("nn.encoder_fwd_s", "nn.encoder_fwd");
  span("nn.encoder_bwd_s", "nn.encoder_bwd");
  span("nn.optimizer_s", "nn.optimizer");
  // The task head: the ranking-loss decoder (link prediction) or the linear
  // layer plus softmax cross-entropy (node classification).
  const std::string head = link_prediction ? "nn.decoder" : "nn.head";
  span("nn.task_head_s", head);
  span(head + "_s", head);
  if (link_prediction) {
    span("sampler.negatives_s", "sampler.negatives");
    span("storage.apply_grads_s", "storage.apply_grads");
    report->Metric("core.checkpoint_save_s", s.checkpoint_save_seconds, "s");
    report->Metric("core.checkpoint_peak_mb", Mb(s.checkpoint_peak_bytes), "MB");
  }
  // Counters the trainer returns at the call boundary.
  report->Metric("storage.read_mb", Mb(s.io_read_bytes), "MB");
  report->Metric("storage.write_mb", Mb(s.io_write_bytes), "MB");
  report->Metric("storage.inflight_peak", s.io_inflight_peak, "count");
  report->Metric("storage.modeled_io_s", s.io_seconds, "s");
  report->Metric("pipeline.sample_busy_s", s.sample_seconds, "s");
  report->Metric("pipeline.compute_wait_s", s.pipeline_stall_seconds, "s");
  report->Metric("pipeline.queue_occupancy", s.queue_occupancy_mean, "fraction");
  report->Metric("pipeline.resizes", s.resize_count, "count");
  report->Metric("compute.par_eff", s.compute_parallel_efficiency, "fraction");
  report->Metric("core.reported_epoch_s", s.wall_seconds, "s");
}

}  // namespace

void ReplayAndReport(const RunOptions& options, const Graph& graph,
                     const TrainingConfig& config, TaskKind kind,
                     const EpochStats& trainer_stats, double trainer_epoch_s, Report* report) {
  Tracer tracer;
  const ReplayResult replay = ReplayTrainingEpoch(graph, config, kind, options.work_dir, &tracer);
  ReportReplay(trainer_stats, trainer_epoch_s, replay, tracer,
               kind == TaskKind::kLinkPrediction, report);
  report->Check("trace_written", tracer.WriteChrome(options.out_dir + "/trace_train.json", 1,
                                                    options.workload + " training replay"));
}

void RunTraining(const RunOptions& options, Report* report) {
  const Graph graph = MakeGraph(options.workload, options.seed);
  ThreadPool pool(static_cast<size_t>(std::max(1, HostThreads() - 1)));
  const TrainingConfig config = MakeConfig(options.workload, options.seed, &pool,
                                           options.work_dir);
  const bool lp = IsLinkPrediction(options.workload);
  if (!options.trace) {
    if (lp) {
      Measure<LinkPredictionTrainer>(options, graph, config, report);
    } else {
      Measure<NodeClassificationTrainer>(options, graph, config, report);
    }
    return;
  }

  // Traced run: the trainer's first epoch supplies the pipeline counters, the
  // replay of that same epoch (fresh state, same seed) the per-layer spans.
  EpochStats stats;
  double trainer_epoch_s = 0.0;
  auto train_epoch = [&](TrainerBase& trainer) {
    const double t0 = NowSeconds();
    stats = trainer.TrainEpoch();
    trainer_epoch_s = NowSeconds() - t0;
  };
  const std::string snapshot = SnapshotPath(options.work_dir, 1);
  if (lp) {
    LinkPredictionTrainer trainer(&graph, config);
    train_epoch(trainer);
    trainer.SaveCheckpoint(snapshot);
  } else {
    NodeClassificationTrainer trainer(&graph, config);
    train_epoch(trainer);
  }
  CheckEpoch(stats, 0, report);
  ReplayAndReport(options, graph, config,
                  lp ? TaskKind::kLinkPrediction : TaskKind::kNodeClassification, stats,
                  trainer_epoch_s, report);
  if (lp) {
    // The serving layer, over the model this epoch trained.
    TraceServing(options, graph, snapshot, report);
  }
}

}  // namespace perfbench
