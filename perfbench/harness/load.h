// Open-loop load generator.
//
// The calling thread is the generator: query i is due at start + i / rate
// (a fixed offered rate, independent of how fast answers come back), and swap
// j at start + (j + 1) * swap_period. Each task is pushed onto a queue at its
// due time and taken by one of `callers` threads. A query's latency is
// measured from when it was DUE, so a stall anywhere — in the server, in a
// busy caller pool, or in the generator itself — counts against every query
// it delays. The generator's own lateness is reported separately.
#ifndef PERFBENCH_HARNESS_LOAD_H_
#define PERFBENCH_HARNESS_LOAD_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct LoadOptions {
  double rate_qps = 100.0;
  double duration_s = 1.0;
  int callers = 1;
  double swap_period_s = 0.0;  // 0 = no swaps
};

struct LoadResult {
  // Per query, indexed by query number: time from due to answer, and time
  // inside the query function. A failed query's latency is +infinity, so it
  // counts as missing any latency limit.
  std::vector<double> latency_ms;
  std::vector<double> service_ms;
  std::vector<double> lag_ms;  // generator lateness per pushed task
  std::vector<double> swap_s;  // duration of each swap
  int64_t failed_queries = 0;
  int64_t swaps = 0;
  int64_t failed_swaps = 0;
  // Queries due but not yet taken by a caller when the last one was pushed.
  int64_t backlog_at_end = 0;
};

// `query(i)` answers query i and returns whether the answer passed its
// checks; `swap(j)` performs swap j and returns whether it succeeded. Both are
// called from caller threads.
LoadResult RunOpenLoop(const LoadOptions& options,
                       const std::function<bool(int64_t)>& query,
                       const std::function<bool(int64_t)>& swap);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOAD_H_
