// Span tracing: nested, timestamped spans (plus instant events) recorded by
// a thread-safe Tracer and exported in Chrome's trace-event format, so a
// whole audit session — retries, backoff, batch verification, per-chunk
// Miller work on the pool — loads straight into chrome://tracing / Perfetto.
//
// Two clocks: kSteady (wall time, µs) for real profiling, and
// kDeterministic (a monotonic tick per timestamp) so tests pin span nesting
// and ordering bit-for-bit.
//
// Instrumented layers never take a Tracer parameter; they ask for the
// process-global current tracer (one atomic load) and emit nothing when none
// is installed. Install one with TracerScope around the region of interest:
//
//   obs::Tracer tracer;
//   { obs::TracerScope scope{&tracer};  // audits/sessions now emit spans
//     session.run_storage_audit(link, SessionStart::fresh(rng), ...); }
//   write(tracer.to_chrome_json());
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace seccloud::obs {

enum class EventKind : std::uint8_t {
  kSpan,     ///< has a duration (Chrome "X" complete event)
  kInstant,  ///< a point in time (Chrome "i" instant event)
};

struct TraceEvent {
  std::string name;
  EventKind kind = EventKind::kSpan;
  std::uint64_t ts_us = 0;   ///< begin timestamp (µs, or ticks)
  std::uint64_t dur_us = 0;  ///< span duration (0 for instants)
  std::uint32_t tid = 0;     ///< dense per-process thread id
  std::uint32_t depth = 0;   ///< nesting depth on its thread at begin
  std::vector<std::pair<std::string, std::string>> args;

  bool operator==(const TraceEvent&) const = default;
};

class Tracer;

/// RAII span: records begin on construction, emits the TraceEvent when
/// end()'d or destroyed. Default-constructed spans are inert (the "no
/// tracer installed" fast path); moved-from spans become inert.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  /// Attaches a key/value annotation (shown in the trace viewer).
  void arg(std::string key, std::string value);
  /// Ends the span now (idempotent; the destructor calls it too).
  void end();
  explicit operator bool() const noexcept { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::string name);

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::uint64_t begin_ = 0;
  std::uint32_t depth_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

class Tracer {
 public:
  enum class Clock : std::uint8_t { kSteady, kDeterministic };

  explicit Tracer(Clock clock = Clock::kSteady);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Clock clock() const noexcept { return clock_; }
  /// µs since the tracer's construction (steady), or the next tick
  /// (deterministic — every call returns a distinct increasing value).
  std::uint64_t now_us() const noexcept;

  Span span(std::string name) { return Span{this, std::move(name)}; }
  void instant(std::string name,
               std::vector<std::pair<std::string, std::string>> args = {});

  std::size_t size() const;
  /// Events sorted by (ts, longer-duration-first) so a parent span precedes
  /// the children it encloses.
  std::vector<TraceEvent> events() const;
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}) loadable in
  /// chrome://tracing and Perfetto.
  std::string to_chrome_json() const;

 private:
  friend class Span;
  void record(TraceEvent event);

  Clock clock_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::atomic<std::uint64_t> tick_{0};
  mutable std::mutex m_;
  std::vector<TraceEvent> events_;
};

/// The process-global tracer instrumented code reports to (nullptr when
/// tracing is off — the instrumentation fast path).
Tracer* current_tracer() noexcept;
void set_current_tracer(Tracer* tracer) noexcept;

/// Installs `tracer` as current for the scope's lifetime.
class TracerScope {
 public:
  explicit TracerScope(Tracer* tracer);
  ~TracerScope();
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

/// Span / instant on the current tracer; inert no-ops when none installed.
Span trace_span(std::string name);
void trace_instant(std::string name);

}  // namespace seccloud::obs
