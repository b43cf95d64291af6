// Benchmark harness: runs one phase of one workload and prints its report as
// one JSON object on the last line of standard output. perfbench/run.py builds
// this binary, runs the phases of a workload, and prints the benchmark result.
//
//   perfbench_harness --workload lp-disk|nc-disk|serve-lp [--phase prepare|measure]
//                     --seed N --seconds S --trace 0|1 --work DIR --out DIR
//   perfbench_harness --selftest
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/harness/report.h"
#include "perfbench/harness/workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--phase") {
      options.phase = value;
    } else if (flag == "--seed" || flag == "--seconds") {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(number >= 0.0 && number < 1e18)) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value.c_str());
        return 2;
      }
      if (flag == "--seed") {
        options.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else {
        options.seconds = number;
      }
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work") {
      options.work_dir = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  perfbench::Report report;
  report.Info("nproc", std::to_string(perfbench::HostThreads()));
  report.Info("compiler", PERFBENCH_COMPILER);
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  if (selftest) {
    perfbench::RunSelfTests(&report);
  } else if (options.work_dir.empty() || options.out_dir.empty()) {
    std::fprintf(stderr, "--work and --out are required\n");
    return 2;
  } else if (options.workload == "lp-disk" || options.workload == "nc-disk") {
    perfbench::RunTraining(options, &report);
  } else if (options.workload == "serve-lp" && options.phase == "prepare") {
    perfbench::RunServePrepare(options, &report);
  } else if (options.workload == "serve-lp" && options.phase == "measure") {
    perfbench::RunServe(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload/phase %s/%s\n", options.workload.c_str(),
                 options.phase.c_str());
    return 2;
  }
  report.Print();
  return report.ok() ? 0 : 1;
}
