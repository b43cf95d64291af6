// What one harness process hands back to run.py: named metrics with units,
// correctness checks, operation counts, and free-form info, printed as one
// JSON object on the last line of standard output.
#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  // One checked operation; a false `ok` counts as a failed operation.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  // Bulk operations (epochs, queries, swaps): attempted and failed counts.
  void Operations(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Info(const std::string& key, const std::string& value) { info_[key] = value; }

  bool ok() const { return failed_ == 0; }
  // Prints the JSON object as the last line of standard output.
  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> failures_;
  std::map<std::string, std::string> info_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Threads this process may run on (the CPU affinity mask), at least 1.
int HostThreads();

// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
