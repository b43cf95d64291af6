// Self-tests of the harness's own arithmetic, run before every workload so a
// broken statistic or lateness account fails the run instead of skewing it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness/load.h"
#include "perfbench/harness/stats.h"
#include "perfbench/harness/workloads.h"

namespace perfbench {

namespace {

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void TestStatistics(Report* report) {
  report->Check("median_odd", Near(Median({3, 1, 2}), 2.0));
  report->Check("median_even", Near(Median({4, 1, 3, 2}), 2.5));
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  report->Check("quartiles", Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = Quartiles({2, 1});
  report->Check("quartiles_two", Near(q2[0], 0.75) && Near(q2[1], 1.5) && Near(q2[2], 2.25));

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  report->Check("percentile_nearest_rank",
                Near(Percentile(hundred, 99.0), 99.0) && Near(Percentile(hundred, 50.0), 50.0));
  // Ten samples beyond p99 needs 1000 samples; 999 only supports p90.
  std::vector<double> thousand(1000, 1.0);
  thousand.back() = 7.0;
  const Tail t1000 = HighestSupportedPercentile(thousand);
  thousand.pop_back();
  const Tail t999 = HighestSupportedPercentile(thousand);
  // Three windows of 1..100 with one window's tail blown up: the median of the
  // window p99s stays 99.
  std::vector<double> windows;
  for (int w = 0; w < 3; ++w) {
    windows.insert(windows.end(), hundred.begin(), hundred.end());
  }
  windows[150] = 1e6;
  windows[160] = 1e6;
  report->Check("windowed_percentile", Near(WindowedPercentile(windows, 100, 99.0), 99.0) &&
                                           Near(WindowedPercentile(hundred, 100, 99.0), 99.0));
  report->Check("tail_percentile", t1000.percentile == 99.0 && t999.percentile == 90.0 &&
                                       t1000.samples == 1000 && t999.samples == 999,
                std::to_string(t1000.percentile) + " " + std::to_string(t999.percentile));
}

void TestSelfTime(Report* report) {
  // root [0, 10] with children [1, 3], [2, 5] (overlapping) and [7, 8]; a
  // grandchild [7.2, 7.5] must not count twice, and a non-call child [8.5, 9.5]
  // holds a call grandchild [9, 9.5].
  auto span = [](int64_t id, int64_t parent, double b, double e, bool call) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.begin_s = b;
    s.end_s = e;
    s.call = call;
    return s;
  };
  const std::vector<Span> spans = {
      span(0, -1, 0.0, 10.0, false), span(1, 0, 1.0, 3.0, true),
      span(2, 0, 2.0, 5.0, true),    span(3, 0, 7.0, 8.0, true),
      span(4, 3, 7.2, 7.5, true),    span(5, 0, 8.5, 9.5, false),
      span(6, 5, 9.0, 9.5, true)};
  const double self = SelfSeconds(spans, 0);  // 10 - (4 + 1 + 1)
  const double uncovered = UncoveredSeconds(spans, 0);  // 10 - (4 + 1 + 0.5)
  report->Check("span_self_time", Near(self, 4.0), std::to_string(self));
  report->Check("span_uncovered_time", Near(uncovered, 4.5), std::to_string(uncovered));
  report->Check("span_child_self_time", Near(SelfSeconds(spans, 3), 0.7));
}

// A fake server that stalls 40 ms on query 5 and answers instantly otherwise,
// with one caller at 1000 queries/s. Query 6 was due 1 ms after query 5 but
// cannot start until the stall ends, so its latency from due time must carry
// most of the stall although its own service time is tiny.
void TestOpenLoopLateness(Report* report) {
  LoadOptions options;
  options.rate_qps = 1000.0;
  options.duration_s = 0.05;
  options.callers = 1;
  const LoadResult r = RunOpenLoop(
      options,
      [](int64_t i) {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
        return true;
      },
      [](int64_t) { return true; });
  // Host stalls can only add time, so the bounds are one-sided.
  const bool ok = r.latency_ms.size() == 50 && r.failed_queries == 0 &&
                  r.latency_ms[5] >= 39.0 && r.latency_ms[6] >= 35.0 &&
                  r.service_ms[6] < r.latency_ms[6] - 20.0;
  report->Check("open_loop_lateness", ok,
                "latency[6]=" + std::to_string(r.latency_ms.size() > 6 ? r.latency_ms[6] : -1.0));

  // A failed answer counts as missing every latency limit.
  options.duration_s = 0.01;
  const LoadResult f =
      RunOpenLoop(options, [](int64_t i) { return i != 3; }, [](int64_t) { return true; });
  report->Check("failed_query_misses_limit",
                f.failed_queries == 1 && std::isinf(f.latency_ms[3]) &&
                    std::isinf(Percentile(f.latency_ms, 99.0)));
}

}  // namespace

void RunSelfTests(Report* report) {
  TestStatistics(report);
  TestSelfTime(report);
  TestOpenLoopLateness(report);
}

}  // namespace perfbench
