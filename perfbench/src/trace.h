#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the one time base of every span,
/// schedule and latency the benchmark records.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval around a call the benchmark made. `name` is
/// "<module>.<what>" and must be a string literal. Spans of one request
/// share `req`; `parent` is 0 for a request's root span.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t req = 0;
};

/// In-memory span store. Each recording thread owns one Buffer (no locks
/// on the record path); buffers are collected after the threads joined.
class Tracer {
 public:
  class Buffer {
   public:
    explicit Buffer(uint64_t index) : index_(index) {}
    /// Records a span and returns its id.
    uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
                 uint64_t parent, uint64_t req) {
      uint64_t id = (index_ << 40) | ++next_;
      spans_.push_back({name, start_ns, end_ns, id, parent, req});
      return id;
    }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    uint64_t index_;
    uint64_t next_ = 0;
    std::vector<Span> spans_;
  };

  /// A new buffer owned by the tracer; safe to call from any thread.
  Buffer* NewBuffer();

  /// Every span recorded so far. Call only after recording threads joined.
  std::vector<Span> Collect() const;

  /// Writes the spans as TSV (name, start_ns, end_ns, id, parent, req).
  bool WriteTsv(const std::string& path) const;

  /// One row of the "where the time goes" table: the self time of spans
  /// named `name` (duration minus the part covered by child spans), per
  /// traced request, and its share of those requests' end-to-end time.
  struct Row {
    std::string name;
    size_t spans = 0;
    double self_us_per_req = 0.0;
    double share = 0.0;
  };
  struct Table {
    size_t requests = 0;       // request trees with at least one child
    double e2e_us_per_req = 0.0;
    std::vector<Row> rows;     // descending self time
  };
  /// Built from request trees whose root has children, so every request
  /// counted was attributed below its root.
  Table SelfTimeTable() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
