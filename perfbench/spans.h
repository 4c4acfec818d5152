// In-memory span recorder for the traced run. Spans are opened and closed
// from the benchmark's own code around calls into each layer's public
// functions; they are kept as (name, start, end, parent, item) and written
// once at exit as Chrome trace-event JSON.

#ifndef GRIDQP_PERFBENCH_SPANS_H_
#define GRIDQP_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Layer-qualified name ("sim.run"); points at a string literal.
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  /// Item the span belongs to.
  int item = -1;
};

class SpanRecorder {
 public:
  /// Subsequent spans belong to `item`.
  void set_item(int item) { item_ = item; }

  /// Opens a span as a child of the innermost open span.
  int Open(const char* name);
  void Close(int index);

  /// RAII span; a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->Open(name) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its direct
  /// children cover. Parallel to spans().
  std::vector<int64_t> SelfNs() const;

  /// Writes every span as a Chrome trace-event ("ph":"X") JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int item_ = -1;
};

/// Monotonic host clock in ns.
int64_t NowNs();

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_SPANS_H_
