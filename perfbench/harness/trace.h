// In-memory span recorder for the layer replays.
//
// A span has a name, a start and an end on the steady clock, and the span that
// was open when it began (its parent). Structural spans ("epoch", "set",
// "batch", "query") group the work; call spans wrap exactly one call into a
// library layer and are named "<layer>.<what>" (for example "storage.swap"),
// so a per-layer metric "<layer>.<what>_s" is the summed duration of its call
// spans. Spans stay in memory and are written out as Chrome trace-event JSON
// when the run ends (open the file in Perfetto or chrome://tracing).
//
// The recorder is single-threaded: the replays run serially on one thread.
#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  double begin_s = 0.0;
  double end_s = 0.0;
  bool call = false;  // wraps one call into a library layer
  double duration() const { return end_s - begin_s; }
};

class Tracer {
 public:
  Tracer();

  // Opens a span as a child of the innermost open span; returns its id.
  int64_t Begin(const std::string& name, bool call);
  // Closes the innermost open span, which must be `id`.
  void End(int64_t id);

  // RAII span. A null tracer makes the scope a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, bool call = true)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, call) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->End(id_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration of every span called `name`.
  double TotalSeconds(const std::string& name) const;

  // Chrome trace-event JSON ("X" complete events, microseconds). `pid` keeps
  // spans of several processes apart when their files are merged.
  bool WriteChrome(const std::string& path, int pid,
                   const std::string& process_name) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// Duration of span `id` minus the union of its direct children's intervals.
double SelfSeconds(const std::vector<Span>& spans, int64_t id);

// Duration of span `id` minus the union of every call span below it: the time
// no layer call accounts for.
double UncoveredSeconds(const std::vector<Span>& spans, int64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
