// Span-based stage tracer emitting Chrome trace_event JSON
// (chrome://tracing, Perfetto).  Disabled by default: the global
// collector pointer is null and a Span construction is one relaxed load.
// `--trace-json <file>` turns it on for the run and writes the file when
// tracing stops.
//
// Usage:
//   obs::StartTracing();
//   { obs::Span span("filter", "pipeline"); ...work...; }
//   obs::StopTracingToFile("trace.json");
//
// Spans become "X" (complete) events with microsecond timestamps; thread
// names registered via obs::SetCurrentThreadName (or util/threadname)
// become "M" thread_name metadata events, so worker threads show up
// labeled in the timeline.
#ifndef GKGPU_OBS_TRACE_HPP
#define GKGPU_OBS_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>

namespace gkgpu::obs {

bool TracingActive() noexcept;

/// Starts collecting spans (clears any previously collected events).
void StartTracing();

/// Stops collecting and renders the collected events as Chrome
/// trace_event JSON.  Returns the JSON string (also usable by tests).
std::string StopTracing();

/// StopTracing() + write to `path`.  Returns false on I/O failure.
bool StopTracingToFile(const std::string& path);

/// Records `name` as this thread's label in future trace output.  Cheap
/// no-op while tracing is inactive is NOT guaranteed — callers register
/// once per thread at spawn, not in hot loops.
void RegisterTraceThreadName(const std::string& name);

/// RAII span: records one complete ("X") event from construction to
/// destruction.  `name` and `category` must be string literals or
/// otherwise outlive the span (they are captured by pointer at close).
class Span {
 public:
  Span(const char* name, const char* category) noexcept
      : name_(nullptr), category_(nullptr) {
    if (TracingActive()) {
      name_ = name;
      category_ = category;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void Close() noexcept;

 private:
  const char* name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace gkgpu::obs

#endif  // GKGPU_OBS_TRACE_HPP
