#pragma once

// In-memory span tracing for the benchmark's traced run. A span is opened
// around one call into a library layer from the benchmark's own code; it
// records its name, start, end, the span that was open on the same thread
// when it began (its parent), and the run index its spans share. Spans are
// kept in memory, written out when the benchmark ends, and reduced to self
// time: a span's duration minus the part of it its children cover.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t run = -1;     ///< run/spec index shared by one run's spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span store. Disabled by default: `ScopedSpan` then records
/// nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends a finished span (thread-safe).
  void record(Span span);
  /// Moves every recorded span out, leaving the store empty.
  [[nodiscard]] std::vector<Span> take();

  /// Nanoseconds since the tracer was created (steady clock).
  [[nodiscard]] std::int64_t now_ns() const;
  /// Next unique span id (thread-safe).
  [[nodiscard]] std::int64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::int64_t epoch_ns_ = 0;
  std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction when the global tracer is enabled and
/// records on destruction. Its parent is the innermost span open on this
/// thread; `run` < 0 inherits the parent's run index.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t run = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Self time of all spans of one name.
struct SelfTime {
  double seconds = 0.0;
  std::size_t spans = 0;
};

/// Self time per span name, summed over all spans of that name.
[[nodiscard]] std::map<std::string, SelfTime> self_time_by_name(
    const std::vector<Span>& spans);

/// Writes spans as a JSON array of objects (name, id, parent, run,
/// start_ns, end_ns).
void write_spans_json(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
