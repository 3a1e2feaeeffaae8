#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last: {id, run}.
thread_local std::vector<std::pair<std::int64_t, std::int64_t>> t_open;

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

ScopedSpan::ScopedSpan(const char* name, std::int64_t run) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  if (!t_open.empty()) {
    span_.parent = t_open.back().first;
    if (run < 0) run = t_open.back().second;
  }
  span_.run = run;
  t_open.emplace_back(span_.id, run);
  span_.start_ns = tracer.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  span_.end_ns = tracer.now_ns();
  t_open.pop_back();
  tracer.record(std::move(span_));
}

std::map<std::string, SelfTime> self_time_by_name(
    const std::vector<Span>& spans) {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children (spans of several threads under one parent) are
  // subtracted once.
  std::unordered_map<std::int64_t, const Span*> by_id;
  for (const Span& span : spans) by_id[span.id] = &span;
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans) {
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    const std::int64_t start = std::max(span.start_ns, parent->second->start_ns);
    const std::int64_t end = std::min(span.end_ns, parent->second->end_ns);
    if (end > start) children[span.parent].emplace_back(start, end);
  }

  std::map<std::string, SelfTime> self;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    const auto found = children.find(span.id);
    if (found != children.end()) {
      auto& intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_start = intervals.front().first;
      std::int64_t run_end = intervals.front().second;
      for (const auto& [start, end] : intervals) {
        if (start > run_end) {
          covered += run_end - run_start;
          run_start = start;
        }
        run_end = std::max(run_end, end);
      }
      covered += run_end - run_start;
    }
    SelfTime& entry = self[span.name];
    entry.seconds +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
    entry.spans += 1;
  }
  return self;
}

void write_spans_json(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << '}'
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("failed writing span file " + path);
}

}  // namespace perfbench
