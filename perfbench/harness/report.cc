#include "perfbench/harness/report.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Check(const std::string& name, bool ok, const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.emplace_back(name, detail);
  }
}

void Report::Print() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) + ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(failures_[i].first + ": " + failures_[i].second);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, mv] : metrics_) {
    char value[64];
    // NaN/inf are not JSON; a non-finite metric is reported as a failure by the
    // workload, and printed as null here.
    if (std::isfinite(mv.first)) {
      std::snprintf(value, sizeof(value), "%.9g", mv.first);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += (first ? "" : ",") + Quote(name) + ":{\"value\":" + value +
           ",\"unit\":" + Quote(mv.second) + "}";
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    out += (first ? "" : ",") + Quote(key) + ":" + Quote(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int HostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
