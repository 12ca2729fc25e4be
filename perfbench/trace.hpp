// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public entry points; nothing inside the library is
// instrumented. Each span has a name, the wave it belongs to, a parent
// (kNoParent for roots), and steady_clock start/end times. Spans stay in
// memory until write() dumps them as JSON lines at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent = ~0u;

  struct Span {
    const char* name = "";  ///< a string literal
    std::uint64_t wave = 0;
    std::uint32_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const {
      return std::chrono::duration<double>(end - start).count();
    }
  };

  Tracer() : origin_(Clock::now()) {}

  /// Open a span; returns its id for end() and for children's parent.
  std::uint32_t begin(const char* name, std::uint64_t wave,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name over the spans of `waves`: each span's
  /// duration minus the summed durations of its direct children, clamped
  /// at zero. Children that ran outside their parent's interval (the
  /// replayed stages, whose logical parent is the flush they re-run) still
  /// count against the parent.
  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameTotals> self_times(
      const std::set<std::uint64_t>& waves) const;

  /// Write every span as one JSON object per line; times in microseconds
  /// since the tracer was created. Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t wave,
             std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, wave, parent)
                              : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
