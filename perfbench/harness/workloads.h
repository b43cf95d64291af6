// The benchmark's workloads and the pieces they share.
//
//   lp-disk   link prediction out of core (COMET, read + write-back swaps)
//   nc-disk   node classification out of core (node caching, read-only storage)
//   serve-lp  online link prediction over mmap'd snapshots of an lp-disk model
//             (runnable; not in BENCHMARK.json, see perfbench/README.md)
//
// Every workload runs in one process with at most HostThreads() threads doing
// work: one ThreadPool of HostThreads() - 1 threads plus the calling thread
// (training), or HostThreads() - 1 caller threads plus the generator (serving).
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/harness/report.h"
#include "perfbench/harness/trace.h"
#include "src/core/mariusgnn.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::string phase = "measure";  // serve-lp also has "prepare" (trains the snapshots)
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir;  // scratch files (storage images, checkpoints)
  std::string out_dir;   // trace output
};

// Inputs: the graph is generated from the workload seed.
mariusgnn::Graph MakeGraph(const std::string& workload, uint64_t seed);

// The training configuration of lp-disk / nc-disk (serve-lp uses lp-disk's).
// `pool` serves as both compute_pool and pipeline_pool; every other option not
// named in the README stays at the library default.
mariusgnn::TrainingConfig MakeConfig(const std::string& workload, uint64_t seed,
                                     mariusgnn::ThreadPool* pool,
                                     const std::string& work_dir);

// Snapshot files serve-lp's prepare phase writes and its measure phase serves
// (lp-disk's traced run writes the second one for its serving measurement).
std::string SnapshotPath(const std::string& work_dir, int which);

// What a serial layer replay of one training epoch produced; compared with the
// trainer's EpochStats for the same seed.
struct ReplayResult {
  int64_t examples = 0;
  int64_t batches = 0;
  int64_t sets = 0;
  int64_t partition_loads = 0;
  int64_t index_edges = 0;
  double sampled_nodes = 0.0;  // summed over batches
  double sampled_edges = 0.0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t determinism_hash = 0;
  int64_t epoch_span = -1;   // root span of the replayed epoch
};

// Builds the trainer's state from scratch (same seed, same draw order) and
// replays one epoch through the public calls the trainer makes, with a span
// around each call. `kind` selects the link-prediction or node-classification
// epoch.
ReplayResult ReplayTrainingEpoch(const mariusgnn::Graph& graph,
                                 const mariusgnn::TrainingConfig& config,
                                 mariusgnn::TaskKind kind,
                                 const std::string& work_dir, Tracer* tracer);

// lp-disk and nc-disk. Untraced: set-up, warm-up and timed epochs, quality.
// Traced: one trainer epoch for its counters, then the replay; lp-disk then
// also measures the serving layer over the model that epoch trained.
void RunTraining(const RunOptions& options, Report* report);

// serve-lp, phase "prepare": trains an lp-disk model and writes two snapshots
// (traced: also replays the training epoch).
void RunServePrepare(const RunOptions& options, Report* report);

// serve-lp, phase "measure": set-up, fixed-rate latency with hot swaps, the
// rate ladder, oracle checks and quality (traced: serving replay).
void RunServe(const RunOptions& options, Report* report);

// The serving layer's traced measurement (serve.* metrics, serving replay) over
// one snapshot of an lp-disk model; lp-disk's traced run uses it so the
// serving layer is measured on a workload BENCHMARK.json keeps.
void TraceServing(const RunOptions& options, const mariusgnn::Graph& graph,
                  const std::string& snapshot, Report* report);

// Replays the epoch a trainer just ran (`trainer_stats`, taking
// `trainer_epoch_s` of real time) and reports its per-layer metrics, the
// fidelity checks and the trace file.
void ReplayAndReport(const RunOptions& options, const mariusgnn::Graph& graph,
                     const mariusgnn::TrainingConfig& config, mariusgnn::TaskKind kind,
                     const mariusgnn::EpochStats& trainer_stats, double trainer_epoch_s,
                     Report* report);

// Harness self-tests (statistics, span self time, open-loop lateness).
void RunSelfTests(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
