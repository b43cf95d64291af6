// Order statistics used by every workload's report.
//
// Quartiles follow Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so figures printed here match what a reader computes
// from the same samples in Python. Percentiles use the nearest-rank rule.
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Q1, Q2, Q3 as statistics.quantiles(v, n=4). Needs at least two samples; with
// one sample all three are that sample.
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  if (ld == 0) {
    return {0.0, 0.0, 0.0};
  }
  if (ld == 1) {
    return {v[0], v[0], v[0]};
  }
  std::array<double, 3> out{};
  const int64_t m = ld + 1;
  for (int64_t i = 1; i < 4; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    out[static_cast<size_t>(i - 1)] =
        (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

// Nearest-rank percentile, q in (0, 100].
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Median over consecutive windows of `window` samples of each window's q-th
// percentile (a short trailing window joins the one before it). One stall
// then moves one window's figure instead of the whole run's.
inline double WindowedPercentile(const std::vector<double>& v, size_t window, double q) {
  if (v.size() < 2 * window) {
    return Percentile(v, q);
  }
  std::vector<double> per_window;
  const size_t windows = v.size() / window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? v.end() : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

struct Tail {
  double percentile = 0.0;  // 0 when fewer than ten samples lie beyond the median
  double value = 0.0;
  int64_t samples = 0;
};

// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples beyond it.
inline Tail HighestSupportedPercentile(const std::vector<double>& v) {
  Tail tail;
  tail.samples = static_cast<int64_t>(v.size());
  for (double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - q / 100.0);
    if (beyond + 1e-9 >= 10.0) {
      tail.percentile = q;
      tail.value = Percentile(v, q);
    }
  }
  return tail;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
