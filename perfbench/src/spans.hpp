#pragma once
// Span recording for the traced run. Each client thread owns one SpanLog
// (no locking); the logs are merged after the threads join and exported
// in the Chrome trace-event shape obs::Tracer writes, so Perfetto and
// chrome://tracing open the file directly.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanEvent {
  std::string name;   // the per-layer metric the span feeds, e.g. "sat.sweep_s"
  std::string design; // design the call worked on
  const char* category = "layer";
  std::uint32_t tid = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  void add(std::string name, std::string design, const char* category,
           Clock::time_point start, Clock::time_point end) {
    events_.push_back(
        {std::move(name), std::move(design), category, tid_, start, end});
  }

  const std::vector<SpanEvent>& events() const { return events_; }

private:
  std::uint32_t tid_;
  std::vector<SpanEvent> events_;
};

/// RAII span around one call into a library layer.
class ScopedSpan {
public:
  ScopedSpan(SpanLog& log, std::string name, std::string design,
             const char* category = "layer")
      : log_(log), name_(std::move(name)), design_(std::move(design)),
        category_(category), start_(Clock::now()) {}
  ~ScopedSpan() {
    log_.add(std::move(name_), std::move(design_), category_, start_,
             Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanLog& log_;
  std::string name_;
  std::string design_;
  const char* category_;
  Clock::time_point start_;
};

/// Chrome trace-event JSON of `events` (times relative to `epoch`), with
/// one thread_name record per client thread.
std::string chromeTraceJson(const std::vector<SpanEvent>& events,
                            std::uint32_t threads, Clock::time_point epoch,
                            const std::string& processName);

} // namespace perfbench
