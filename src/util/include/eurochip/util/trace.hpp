// eurochip::util::trace — process-wide, thread-safe flow tracing.
//
// The hub is a shared platform (paper Recommendation 7); its operators
// must be able to answer "where did job 42 spend its 21 ms?" without a
// debugger. This layer records RAII spans (nested intervals) and instant
// events from every thread in the process and exports them as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing), as per-job
// flight records (hub::JobRecord), and — aggregated — through
// hub::MetricsRegistry::export_prometheus().
//
// Span model
// ----------
// A Span is an interval on the thread that opened it. Nesting is implicit:
// each thread tracks its current innermost span, a newly begun span adopts
// it as parent, and destruction restores it — so spans must be closed in
// LIFO order per thread (RAII guarantees this). Work that hops threads —
// a hub worker running a job — carries its lineage explicitly: capture
// current_context() on the publishing thread and open a ContextScope
// around the work on the executing thread; spans begun inside adopt the
// captured parent and track.
// The `track` is a logical grouping id (the hub uses the JobId) that
// survives any number of handoffs.
//
// Cost model
// ----------
// Disabled (the production default), a EUROCHIP_TRACE_SPAN site costs one
// relaxed atomic load and a predictable branch — name expressions are not
// evaluated, nothing allocates, no lock is taken. Enabled, each span
// appends one record to a per-thread buffer under that buffer's own,
// uncontended mutex; the one global lock is taken per *thread* (buffer
// registration) and at export/clear, never per event. Defining
// EUROCHIP_TRACE_DISABLED compiles macro sites out entirely.
//
// Sessions: start() enables collection, stop() disables it, clear() drops
// buffered events (call between sessions, not while spans are open).
// Timestamps are microseconds since the process trace epoch (first use),
// shared with util::log's line timestamps so logs and traces line up.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace eurochip::util::trace {

using SpanId = std::uint64_t;  ///< 0 = "no span"

/// Explicit lineage handoff across threads: the parent span to nest under
/// and the logical track (e.g. hub JobId) to inherit.
struct TraceContext {
  SpanId parent = 0;
  std::uint64_t track = 0;
};

/// One recorded item. `kSpan` is a closed interval; `kInstant` is a point
/// event (fault trigger, retry, mirrored debug log line).
struct Event {
  enum class Kind : std::uint8_t { kSpan, kInstant };
  Kind kind = Kind::kSpan;
  SpanId id = 0;        ///< this span's id (instants: owning span's id)
  SpanId parent = 0;    ///< enclosing span at begin time (0 = root)
  std::uint64_t track = 0;
  double start_us = 0.0;  ///< since the process trace epoch
  double dur_us = 0.0;    ///< kSpan only
  std::string name;
  std::string cat;
  std::vector<std::pair<std::string, std::string>> args;
  std::uint32_t tid = 0;  ///< stable per-thread index (filled at snapshot)
};

/// Stable identity of a thread that emitted events.
struct ThreadInfo {
  std::uint32_t tid = 0;      ///< registration index, stable for the process
  std::string name;           ///< set_thread_name(), or "thread-<tid>"
  std::uint64_t os_tid = 0;   ///< OS thread id (gettid on Linux)
};

namespace internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

/// True while a trace session is active. This is the whole disabled-mode
/// cost of an instrumentation site.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

void start();
void stop();
/// Drops all buffered events (thread registrations and names survive).
/// Call between sessions — not while spans are open.
void clear();

/// Milliseconds since the process trace epoch; util::log stamps lines with
/// this clock so log text and trace timestamps are directly comparable.
double process_now_ms();

/// This thread's current innermost span + track, for cross-thread handoff.
[[nodiscard]] TraceContext current_context();

/// Adopts a captured TraceContext as this thread's lineage for the scope's
/// lifetime: spans begun inside nest under ctx.parent and carry ctx.track.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  SpanId saved_parent_;
  std::uint64_t saved_track_;
};

/// RAII interval. Default-constructed spans are inert; begin() arms them
/// (the EUROCHIP_TRACE_SPAN macro uses this two-step shape so name
/// expressions are only evaluated when tracing is enabled). end() is
/// idempotent and runs at destruction.
class Span {
 public:
  Span() = default;
  Span(std::string name, std::string cat) {
    if (enabled()) begin(std::move(name), std::move(cat));
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void begin(std::string name, std::string cat = "");
  void end();

  /// Attaches a key/value annotation (shown under "args" in Perfetto).
  void annotate(std::string key, std::string value);
  void annotate(std::string key, double value);
  void annotate(std::string key, std::uint64_t value);
  void annotate(std::string key, std::int64_t value);
  void annotate(std::string key, bool value);

  /// Emits an instant event owned by this span (e.g. a retry, a fault).
  void event(std::string name, std::string detail = "");

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  bool active_ = false;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  std::uint64_t track_ = 0;
  double start_us_ = 0.0;
  std::string name_;
  std::string cat_;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Thread-level instant event, parented to the current innermost span.
void instant(std::string name, std::string cat, std::string detail = "");

/// Names this thread for exports (e.g. "hub-worker-3"). Safe
/// to call whether or not tracing is enabled; the name is applied when the
/// thread first emits an event.
void set_thread_name(std::string name);

/// Copies out every buffered event (sorted by start time, tid filled in)
/// and the emitting threads. Safe while a session is active; spans still
/// open are not included.
[[nodiscard]] std::vector<Event> snapshot();
[[nodiscard]] std::vector<ThreadInfo> threads();

/// Chrome trace-event JSON ("X" complete events + "i" instants + thread
/// metadata). Load in Perfetto or chrome://tracing.
[[nodiscard]] std::string export_chrome_json();

/// Writes export_chrome_json() to `path`; returns false on I/O failure.
bool export_chrome_json_file(const std::string& path);

}  // namespace eurochip::util::trace

#define EUROCHIP_TRACE_CAT_IMPL_(a, b) a##b
#define EUROCHIP_TRACE_CAT_(a, b) EUROCHIP_TRACE_CAT_IMPL_(a, b)

/// Declares an RAII span covering the rest of the enclosing scope. The
/// name/category expressions are evaluated only when tracing is enabled;
/// disabled cost is one atomic load + branch. Compile out entirely with
/// -DEUROCHIP_TRACE_DISABLED.
#ifdef EUROCHIP_TRACE_DISABLED
#define EUROCHIP_TRACE_SPAN(...) \
  do {                           \
  } while (false)
#else
#define EUROCHIP_TRACE_SPAN(...)                                            \
  ::eurochip::util::trace::Span EUROCHIP_TRACE_CAT_(eurochip_trace_span_,   \
                                                    __LINE__);              \
  if (::eurochip::util::trace::enabled())                                   \
  EUROCHIP_TRACE_CAT_(eurochip_trace_span_, __LINE__).begin(__VA_ARGS__)
#endif
