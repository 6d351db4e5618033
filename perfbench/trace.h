// In-memory span recorder for the traced benchmark run. The benchmark opens
// one span around every call it makes into the library (Planner::Solve,
// SchedulingTable::Validate/Lookup, SimulateEdf, the fleet::Cluster calls);
// spans nest by call order, every span of one run carries the run's id, and
// the whole set is written out once, when the run ends, as a Chrome trace
// (chrome://tracing or ui.perfetto.dev can open it).
//
// Recording is off unless enabled; a disabled Scope costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";  // Static string: "<layer>.<call>".
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // Index of the enclosing span, or -1.
  };

  // Per-name totals over the recorded spans. Self time is a span's duration
  // minus the part its direct children cover.
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  // RAII span; records nothing when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.enabled_ ? tracer.Begin(name) : -1) {}
    ~Scope() {
      if (index_ >= 0) {
        tracer_.End(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  std::uint64_t run_id() const { return run_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, Totals> Summarize() const;

  // Writes {"traceEvents": [...], "metadata": {...}} to `path`; every event
  // carries args {"run": run_id, "parent": index}. `metadata_json` must be a
  // JSON object. Returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path, const std::string& metadata_json) const;

 private:
  std::int32_t Begin(const char* name);
  void End(std::int32_t index);

  std::uint64_t run_id_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // Stack of open span indices.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
