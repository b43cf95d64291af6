// serve-lp: online link prediction over mmap'd snapshots of an lp-disk model.
//
// The prepare phase (its own process, so its memory does not count against
// serving) trains the lp-disk model for one epoch and writes two snapshots:
// before and after that epoch. The measure phase serves them: set-up, a
// fixed-rate open loop with hot swaps between the two snapshot files, a rate
// ladder for the highest sustainable rate, oracle checks, and quality.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/harness/load.h"
#include "perfbench/harness/stats.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {

using namespace mariusgnn;

namespace {

constexpr int kSetupRepeats = 11;
constexpr int kCandidates = 100;  // candidate 0 is the true destination
constexpr int kQueryPool = 4096;
constexpr double kFixedRateQps = 800.0;
constexpr double kSwapPeriodS = 0.5;
// The latency limit a ladder rung's gated tail percentile must meet.
constexpr double kLatencyLimitMs = 10.0;
// Rungs every 50/s from 100 to 3000 (binary search: ~6 rungs are run).
constexpr double kLadderLow = 100.0;
constexpr double kLadderStep = 50.0;
constexpr int kLadderRungs = 59;
// Tail percentiles are taken per window of this many queries (p99 then has
// ten samples beyond it) and the median over windows is reported. The gated
// tail (and the ladder's limit) is p90: on a shared 4-vCPU VM, host stalls
// lasting minutes put the windowed p99 at 800/s between 1.0 and 7.2 ms and
// the p95 between 0.8 and 8.9 ms across ten seeds (perfbench/README.md, "Why
// serve-lp is not gated").
constexpr size_t kTailWindow = 1000;
constexpr double kGatedTail = 90.0;
constexpr int kOracleEvery = 16;   // every k-th answer is checked bitwise
constexpr int kQualityQueries = 2048;
constexpr int kReplayQueries = 512;
// The server's content-independent sample seed salt ("SERV", src/serve/server.h).
constexpr uint64_t kServeSeedSalt = 0x53455256ULL;

struct LinkQuery {
  int64_t src = 0;
  int32_t rel = 0;
  std::vector<int64_t> candidates;
};

// Queries from the test split: the true destination first, then uniform
// random candidates, all drawn from the workload seed.
std::vector<LinkQuery> MakeQueries(const Graph& graph, uint64_t seed) {
  Rng rng(MixSeed(seed, 0x51524953ULL));
  const std::vector<int64_t>& split = graph.test_edges();
  std::vector<LinkQuery> queries(kQueryPool);
  for (LinkQuery& q : queries) {
    const int64_t e = split.empty()
                          ? static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(graph.num_edges())))
                          : split[rng.UniformInt(split.size())];
    const Edge& edge = graph.edge(e);
    q.src = edge.src;
    q.rel = edge.rel;
    q.candidates.push_back(edge.dst);
    while (static_cast<int>(q.candidates.size()) < kCandidates) {
      q.candidates.push_back(
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(graph.num_nodes()))));
    }
  }
  return queries;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double ReciprocalRank(const std::vector<float>& scores) {
  int64_t rank = 1;
  for (size_t j = 1; j < scores.size(); ++j) {
    rank += scores[j] > scores[0];
  }
  return 1.0 / static_cast<double>(rank);
}

class ServeRun {
 public:
  // Hot swaps alternate between `snapshot_a` and `snapshot_b` (the same file
  // is allowed: every swap then reloads it).
  ServeRun(const RunOptions& options, const Graph& graph, const std::string& snapshot_a,
           const std::string& snapshot_b, Report* report)
      : options_(options),
        report_(report),
        graph_(graph),
        model_config_(MakeConfig("lp-disk", options.seed, nullptr, options.work_dir)
                          .model_config()),
        queries_(MakeQueries(graph_, options.seed)),
        callers_(std::max(1, HostThreads() - 1)),
        paths_{snapshot_a, snapshot_b} {}

  void Run() {
    Setup();
    if (server_ == nullptr) {
      return;
    }
    Warm();
    if (options_.trace) {
      FixedRate(std::max(2.0, 0.25 * options_.seconds), /*traced=*/true);
      Replay();
      return;
    }
    FixedRate(0.5 * options_.seconds, /*traced=*/false);
    Ladder(0.1 * options_.seconds);
    Oracle();
    Quality();
    server_.reset();
    report_->Metric("peak_rss_mb", PeakRssMb(), "MB");
  }

 private:
  bool Load(int which) {
    std::string error;
    const bool ok = server_->LoadSnapshot(paths_[which], &error);
    if (!ok) {
      report_->Check("load_snapshot", false, error);
    }
    return ok;
  }

  // Set-up: server construction (full-graph neighbor index) plus the first
  // LoadSnapshot, repeated; setup_s is the median.
  void Setup() {
    std::vector<double> setup;
    bool ok = true;
    for (int k = 0; k < kSetupRepeats && ok; ++k) {
      server_.reset();
      const double t0 = NowSeconds();
      server_ = std::make_unique<InferenceServer>(&graph_, TaskKind::kLinkPrediction,
                                                  model_config_, ServeOptions());
      ok = Load(1);
      setup.push_back(NowSeconds() - t0);
    }
    report_->Check("setup_loads", ok);
    if (!ok) {
      server_.reset();
      return;
    }
    report_->Metric("setup_s", Median(setup), "s");
    ok = Load(0);
    epoch_[0] = server_->current_epoch();
    ok = ok && Load(1);
    epoch_[1] = server_->current_epoch();
    report_->Check("snapshot_epochs", ok && (epoch_[0] != epoch_[1]) == (paths_[0] != paths_[1]),
                   std::to_string(epoch_[0]) + " vs " + std::to_string(epoch_[1]));
  }

  // Lazy set-up (page faults on the mapping, allocator pools) is paid once here.
  void Warm() {
    for (int i = 0; i < 300; ++i) {
      const LinkQuery& q = queries_[static_cast<size_t>(i)];
      server_->ScoreLinks(q.src, q.rel, q.candidates);
    }
  }

  bool Answer(int64_t i, std::vector<ServeResult>* sampled) {
    const LinkQuery& q = queries_[static_cast<size_t>(i % kQueryPool)];
    ServeResult r = server_->ScoreLinks(q.src, q.rel, q.candidates);
    const bool ok = r.values.size() == q.candidates.size() &&
                    (r.epoch == epoch_[0] || r.epoch == epoch_[1]);
    if (sampled != nullptr && i % kOracleEvery == 0) {
      (*sampled)[static_cast<size_t>(i / kOracleEvery)] = std::move(r);
    }
    return ok;
  }

  LoadResult Drive(double rate, double duration, double swap_period,
                   std::vector<ServeResult>* sampled) {
    LoadOptions load;
    load.rate_qps = rate;
    load.duration_s = duration;
    load.callers = callers_;
    load.swap_period_s = swap_period;
    if (sampled != nullptr) {
      sampled->assign(static_cast<size_t>(rate * duration) / kOracleEvery + 1, ServeResult());
    }
    LoadResult r = RunOpenLoop(
        load, [&](int64_t i) { return Answer(i, sampled); },
        [&](int64_t j) {
          std::string error;
          return server_->LoadSnapshot(paths_[j % 2 == 0 ? 0 : 1], &error);
        });
    report_->Operations(static_cast<int64_t>(r.latency_ms.size()), r.failed_queries);
    report_->Operations(r.swaps, r.failed_swaps);
    if (r.failed_queries > 0 || r.failed_swaps > 0) {
      report_->Check("load_failures", false,
                     std::to_string(r.failed_queries) + " queries, " +
                         std::to_string(r.failed_swaps) + " swaps");
    }
    return r;
  }

  // Fixed offered rate with hot swaps between the two snapshot files.
  void FixedRate(double duration, bool traced) {
    const ServerStats before = server_->stats();
    LoadResult r = Drive(kFixedRateQps, duration, kSwapPeriodS, &sampled_);
    const ServerStats after = server_->stats();
    const Tail tail = HighestSupportedPercentile(r.latency_ms);
    if (traced) {
      report_->Metric("serve.server_ms", Median(r.service_ms), "ms");
      report_->Metric("serve.generator_lag_ms", Percentile(r.lag_ms, 99.0), "ms");
      report_->Metric("serve.queries_per_batch",
                      static_cast<double>(after.queries - before.queries) /
                          std::max<double>(1.0, static_cast<double>(after.batches - before.batches)),
                      "count");
      report_->Metric("serve.swap_s", Median(r.swap_s), "s");
      return;
    }
    report_->Metric("serve_p50_ms", Median(r.latency_ms), "ms");
    report_->Metric("serve_p90_ms", WindowedPercentile(r.latency_ms, kTailWindow, kGatedTail),
                    "ms");
    report_->Metric("serve_p95_ms", WindowedPercentile(r.latency_ms, kTailWindow, 95.0), "ms");
    report_->Metric("serve_p99_ms", WindowedPercentile(r.latency_ms, kTailWindow, 99.0), "ms");
    std::string windows;
    for (size_t b = 0; b + kTailWindow <= r.latency_ms.size(); b += kTailWindow) {
      const auto begin = r.latency_ms.begin() + static_cast<std::ptrdiff_t>(b);
      windows += std::to_string(Percentile(std::vector<double>(begin, begin + kTailWindow), 99.0)) + " ";
    }
    report_->Info("fixed_rate_window_p99_ms", windows);
    report_->Info("swap_s_p50", std::to_string(Median(r.swap_s)));
    report_->Info("fixed_rate_qps", std::to_string(kFixedRateQps));
    report_->Info("fixed_rate_queries", std::to_string(r.latency_ms.size()));
    char tail_text[64];
    std::snprintf(tail_text, sizeof(tail_text), "p%g=%.4fms of %lld", tail.percentile,
                  tail.value, static_cast<long long>(tail.samples));
    report_->Info("fixed_rate_tail", tail_text);
    const auto quartiles = Quartiles(r.latency_ms);
    report_->Info("fixed_rate_quartiles_ms", std::to_string(quartiles[0]) + " " +
                                                 std::to_string(quartiles[1]) + " " +
                                                 std::to_string(quartiles[2]));
    report_->Info("server_ms_p50", std::to_string(Median(r.service_ms)));
    report_->Info("generator_lag_ms_p99", std::to_string(Percentile(r.lag_ms, 99.0)));
    report_->Info("swaps", std::to_string(r.swaps));
  }

  // Binary search over the fixed ladder for the highest rate whose gated tail
  // meets the limit with no backlog left over.
  void Ladder(double rung_seconds) {
    int lo = -1;
    int hi = kLadderRungs;
    std::string trail;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = kLadderLow + kLadderStep * mid;
      const LoadResult r = Drive(rate, rung_seconds, 0.0, nullptr);
      const double tail = WindowedPercentile(r.latency_ms, kTailWindow, kGatedTail);
      const bool pass = tail <= kLatencyLimitMs &&
                        static_cast<double>(r.backlog_at_end) <= rate * kLatencyLimitMs / 1e3;
      trail += std::to_string(static_cast<int>(rate)) + (pass ? "+ " : "- ");
      (pass ? lo : hi) = mid;
    }
    report_->Info("ladder", trail);
    report_->Check("ladder_lowest_rung", lo >= 0);
    report_->Metric("serve_max_qps", lo >= 0 ? kLadderLow + kLadderStep * lo : 0.0, "1/s");
  }

  // Every k-th answer of the fixed-rate phase must be bitwise-equal to the
  // unbatched reference on the snapshot that answered it.
  void Oracle() {
    int64_t checked = 0;
    int64_t mismatched = 0;
    for (int which = 0; which < 2; ++which) {
      if (!Load(which)) {
        return;
      }
      for (size_t s = 0; s < sampled_.size(); ++s) {
        const ServeResult& got = sampled_[s];
        if (got.values.empty() || got.epoch != epoch_[which]) {
          continue;
        }
        const LinkQuery& q = queries_[(s * kOracleEvery) % kQueryPool];
        ++checked;
        mismatched += !SameBits(got.values,
                                server_->ScoreLinksUnbatched(q.src, q.rel, q.candidates).values);
      }
    }
    report_->Operations(checked, mismatched);
    report_->Check("oracle", checked > 0 && mismatched == 0,
                   std::to_string(mismatched) + " of " + std::to_string(checked));
  }

  // MRR of the true destination among the candidates, on the trained snapshot.
  void Quality() {
    if (!Load(1)) {
      return;
    }
    double mrr = 0.0;
    for (int i = 0; i < kQualityQueries; ++i) {
      const LinkQuery& q = queries_[static_cast<size_t>(i)];
      mrr += ReciprocalRank(server_->ScoreLinksUnbatched(q.src, q.rel, q.candidates).values);
    }
    mrr /= kQualityQueries;
    report_->Check("quality_in_range", mrr > 0.0 && mrr <= 1.0, std::to_string(mrr));
    report_->Metric("quality", mrr, "mrr");
  }

  // Serial replay of the unbatched query path through the snapshot's model:
  // InferReprs (sampling + forward, the gather callback timed separately) and
  // Decoder::ScoreCandidates. Its answers must equal the server's bit for bit.
  void Replay() {
    if (!Load(1)) {
      return;
    }
    Tracer tracer;
    const ComputeContext compute{nullptr, nullptr};
    std::unique_ptr<NeighborIndex> index;
    std::shared_ptr<const ModelSnapshot> snap;
    {
      Tracer::Scope setup(&tracer, "setup", false);
      {
        Tracer::Scope span(&tracer, "graph.index_build");
        index = std::make_unique<NeighborIndex>(graph_);
      }
      Tracer::Scope span(&tracer, "serve.load_snapshot");
      std::string error;
      snap = ModelSnapshot::Load(paths_[1], graph_, TaskKind::kLinkPrediction, model_config_,
                                 SnapshotOptions(), &error);
    }
    report_->Check("replay_snapshot", snap != nullptr);
    if (snap == nullptr) {
      return;
    }
    const uint64_t seed = MixSeed(model_config_.seed, kServeSeedSalt);
    std::vector<std::vector<float>> answers(kReplayQueries);
    int64_t root = -1;
    {
      Tracer::Scope replay(&tracer, "serve_replay", false);
      root = replay.id();
      for (int i = 0; i < kReplayQueries; ++i) {
        Tracer::Scope query(&tracer, "query", false);
        const LinkQuery& q = queries_[static_cast<size_t>(i)];
        std::vector<int64_t> targets;
        int64_t src_row = 0;
        std::vector<int64_t> cand_rows;
        {
          Tracer::Scope span(&tracer, "core.batch_plan");
          std::unordered_map<int64_t, int64_t> row_of;
          auto row = [&](int64_t node) {
            auto [it, inserted] = row_of.emplace(node, static_cast<int64_t>(targets.size()));
            if (inserted) {
              targets.push_back(node);
            }
            return it->second;
          };
          src_row = row(q.src);
          for (int64_t c : q.candidates) {
            cand_rows.push_back(row(c));
          }
        }
        Tensor reprs;
        {
          Tracer::Scope span(&tracer, "serve.infer");
          reprs = snap->model.InferReprs(
              targets, seed, *index,
              [&](const std::vector<int64_t>& nodes) {
                Tracer::Scope gather(&tracer, "serve.gather");
                return snap->embeddings->Gather(nodes, &compute);
              },
              &compute);
        }
        Tracer::Scope span(&tracer, "serve.decode");
        snap->model.decoder->ScoreCandidates(reprs, src_row, q.rel, cand_rows,
                                             /*corrupt_src=*/false,
                                             &answers[static_cast<size_t>(i)]);
      }
    }
    int64_t mismatched = 0;
    for (int i = 0; i < kReplayQueries; ++i) {
      const LinkQuery& q = queries_[static_cast<size_t>(i)];
      mismatched += !SameBits(answers[static_cast<size_t>(i)],
                              server_->ScoreLinksUnbatched(q.src, q.rel, q.candidates).values);
    }
    report_->Check("replay_matches_server", mismatched == 0,
                   std::to_string(mismatched) + " of " + std::to_string(kReplayQueries));
    const double total = tracer.spans()[static_cast<size_t>(root)].duration();
    const double coverage = 1.0 - UncoveredSeconds(tracer.spans(), root) / total;
    report_->Check("serve_replay_coverage", coverage >= 0.95, std::to_string(coverage));
    const double gather = tracer.TotalSeconds("serve.gather");
    report_->Metric("serve.infer_s", tracer.TotalSeconds("serve.infer") - gather, "s");
    report_->Metric("serve.gather_s", gather, "s");
    report_->Metric("serve.decode_s", tracer.TotalSeconds("serve.decode"), "s");
    report_->Metric("serve.replay_coverage", coverage, "fraction");
    report_->Check("trace_written", tracer.WriteChrome(options_.out_dir + "/trace_serve.json",
                                                       2, "serve-lp serving replay"));
  }

  const RunOptions& options_;
  Report* report_;
  const Graph& graph_;
  const ModelConfig model_config_;
  const std::vector<LinkQuery> queries_;
  const int callers_;
  const std::string paths_[2];
  uint64_t epoch_[2] = {0, 0};
  std::unique_ptr<InferenceServer> server_;
  std::vector<ServeResult> sampled_;
};

}  // namespace

std::string SnapshotPath(const std::string& work_dir, int which) {
  return work_dir + (which == 0 ? "/snapshot_a.ckpt" : "/snapshot_b.ckpt");
}

void RunServePrepare(const RunOptions& options, Report* report) {
  const Graph graph = MakeGraph("lp-disk", options.seed);
  ThreadPool pool(static_cast<size_t>(std::max(1, HostThreads() - 1)));
  TrainingConfig config = MakeConfig("lp-disk", options.seed, &pool, options.work_dir);
  config.checkpoint.every_n_epochs = 0;  // the two snapshots are saved explicitly
  EpochStats stats;
  double epoch_s = 0.0;
  {
    LinkPredictionTrainer trainer(&graph, config);
    trainer.SaveCheckpoint(SnapshotPath(options.work_dir, 0));
    const double t0 = NowSeconds();
    stats = trainer.TrainEpoch();
    epoch_s = NowSeconds() - t0;
    trainer.SaveCheckpoint(SnapshotPath(options.work_dir, 1));
    stats.checkpoint_save_seconds = trainer.last_checkpoint_stats().seconds;
    stats.checkpoint_peak_bytes = trainer.last_checkpoint_stats().peak_bytes;
  }
  report->Check("prepare_epoch", stats.rv_violations == 0 && std::isfinite(stats.loss),
                "rv_violations=" + std::to_string(stats.rv_violations));
  if (!options.trace) {
    return;
  }
  ReplayAndReport(options, graph, config, TaskKind::kLinkPrediction, stats, epoch_s, report);
}

void RunServe(const RunOptions& options, Report* report) {
  const Graph graph = MakeGraph("lp-disk", options.seed);
  ServeRun run(options, graph, SnapshotPath(options.work_dir, 0),
               SnapshotPath(options.work_dir, 1), report);
  run.Run();
}

void TraceServing(const RunOptions& options, const Graph& graph, const std::string& snapshot,
                  Report* report) {
  RunOptions traced = options;
  traced.trace = true;
  ServeRun run(traced, graph, snapshot, snapshot, report);
  run.Run();
}

}  // namespace perfbench
