#include "perfbench/harness/load.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "perfbench/harness/report.h"

namespace perfbench {

namespace {

struct Task {
  int64_t index = 0;
  double due = 0.0;
  bool swap = false;
};

}  // namespace

LoadResult RunOpenLoop(const LoadOptions& options,
                       const std::function<bool(int64_t)>& query,
                       const std::function<bool(int64_t)>& swap) {
  const int64_t num_queries =
      std::max<int64_t>(1, static_cast<int64_t>(options.rate_qps * options.duration_s));
  const int64_t num_swaps =
      options.swap_period_s > 0.0
          ? static_cast<int64_t>(options.duration_s / options.swap_period_s)
          : 0;
  LoadResult result;
  result.latency_ms.assign(static_cast<size_t>(num_queries), 0.0);
  result.service_ms.assign(static_cast<size_t>(num_queries), 0.0);
  result.swap_s.assign(static_cast<size_t>(num_swaps), 0.0);
  std::vector<char> query_ok(static_cast<size_t>(num_queries), 0);
  std::vector<char> swap_ok(static_cast<size_t>(num_swaps), 0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Task> queue;  // guarded by mu
  bool closed = false;     // guarded by mu

  auto caller = [&] {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        task = queue.front();
        queue.pop_front();
      }
      const size_t i = static_cast<size_t>(task.index);
      const double start = NowSeconds();
      // Each slot is written by exactly one caller; the join publishes them.
      if (task.swap) {
        swap_ok[i] = swap(task.index);
        result.swap_s[i] = NowSeconds() - start;
      } else {
        query_ok[i] = query(task.index);
        const double done = NowSeconds();
        result.service_ms[i] = (done - start) * 1e3;
        result.latency_ms[i] = (done - task.due) * 1e3;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < std::max(1, options.callers); ++c) {
    threads.emplace_back(caller);
  }

  const double start = NowSeconds() + 0.005;
  int64_t next_query = 0;
  int64_t next_swap = 0;
  while (next_query < num_queries || next_swap < num_swaps) {
    const double query_due = next_query < num_queries
                                 ? start + static_cast<double>(next_query) / options.rate_qps
                                 : std::numeric_limits<double>::infinity();
    const double swap_due = next_swap < num_swaps
                                ? start + static_cast<double>(next_swap + 1) *
                                              options.swap_period_s
                                : std::numeric_limits<double>::infinity();
    Task task;
    task.swap = swap_due < query_due;
    task.index = task.swap ? next_swap++ : next_query++;
    task.due = task.swap ? swap_due : query_due;
    const double wait = task.due - NowSeconds();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(task);
      depth = queue.size();
    }
    cv.notify_one();
    result.lag_ms.push_back((NowSeconds() - task.due) * 1e3);
    if (!task.swap && next_query == num_queries) {
      result.backlog_at_end = static_cast<int64_t>(depth) - 1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) {
    t.join();
  }

  for (size_t i = 0; i < query_ok.size(); ++i) {
    if (query_ok[i] == 0) {
      ++result.failed_queries;
      result.latency_ms[i] = std::numeric_limits<double>::infinity();
    }
  }
  result.swaps = num_swaps;
  for (char ok : swap_ok) {
    result.failed_swaps += ok == 0;
  }
  return result;
}

}  // namespace perfbench
