#include "perfbench/harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/check.h"

namespace perfbench {

namespace {

// Length of the union of [begin, end) intervals, each clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> intervals, double lo,
                   double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, cursor);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Begin(const std::string& name, bool call) {
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.call = call;
  span.begin_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  MG_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.duration();
    }
  }
  return total;
}

bool Tracer::WriteChrome(const std::string& path, int pid,
                         const std::string& process_name) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"%s\"}}",
               pid, Escape(process_name).c_str());
  for (const Span& s : spans_) {
    const size_t dot = s.name.find('.');
    const std::string layer = s.call && dot != std::string::npos ? s.name.substr(0, dot)
                                                                 : "structure";
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"name\":\"%s\",\"cat\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                 pid, Escape(s.name).c_str(), layer.c_str(), s.begin_s * 1e6,
                 s.duration() * 1e6, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double SelfSeconds(const std::vector<Span>& spans, int64_t id) {
  const Span& root = spans[static_cast<size_t>(id)];
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent == id) {
      children.emplace_back(s.begin_s, s.end_s);
    }
  }
  return root.duration() - UnionLength(std::move(children), root.begin_s, root.end_s);
}

double UncoveredSeconds(const std::vector<Span>& spans, int64_t id) {
  const Span& root = spans[static_cast<size_t>(id)];
  // Spans are recorded in begin order and parents begin before children, so
  // one forward pass marks every descendant.
  std::vector<char> below(spans.size(), 0);
  std::vector<std::pair<double, double>> calls;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      continue;
    }
    const size_t i = static_cast<size_t>(s.id);
    below[i] = s.parent == id || below[static_cast<size_t>(s.parent)] != 0;
    if (below[i] != 0 && s.call) {
      calls.emplace_back(s.begin_s, s.end_s);
    }
  }
  return root.duration() - UnionLength(std::move(calls), root.begin_s, root.end_s);
}

}  // namespace perfbench
