// Benchmark-side clocks, spans and statistics.
//
// The benchmark measures the program from outside: every span here is
// recorded by the benchmark's own code around a call into one layer (a flow
// step's `run`, FlowTemplate::execute, a hub job body). Nothing inside the
// library is instrumented, so the untraced run executes exactly the code a
// user runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "eurochip/flow/flow.hpp"

namespace perfbench {

namespace flow = eurochip::flow;

/// Wall clock (steady_clock), milliseconds since the first call.
double now_ms();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), milliseconds.
double thread_cpu_ms();
/// CPU time of the whole process, all threads, milliseconds.
double process_cpu_ms();
/// Resolution of the clock behind now_ms(), milliseconds.
double clock_resolution_ms();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// One timed interval, recorded by the thread that ran it.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double cpu_ms = 0.0;       ///< thread CPU consumed between start and end
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t job = 0;     ///< spans of one request share this id
  std::uint32_t tid = 0;     ///< small per-thread number, for the viewer

  [[nodiscard]] double wall_ms() const { return end_ms - start_ms; }
};

/// Keeps spans in memory; writes them out once, when the run ends. Safe to
/// use from any thread. Nesting is tracked per thread, so a span opened
/// while another is open on the same thread becomes its child. One recorder
/// at a time may be active on a thread.
class SpanRecorder {
 public:
  static constexpr std::uint64_t kInheritJob = ~std::uint64_t{0};

  /// Opens a span under the calling thread's innermost open span. With
  /// kInheritJob the span takes its parent's job id (0 for a root).
  std::size_t begin(std::string name, std::uint64_t job = kInheritJob);
  void end(std::size_t index);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" events), which ui.perfetto.dev opens.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name,
             std::uint64_t job = SpanRecorder::kInheritJob)
      : recorder_(recorder), index_(recorder.begin(std::move(name), job)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t index_;
};

/// Span name of a traced flow step: "flow.<step>".
std::string step_span_name(const std::string& step);
inline constexpr const char* kExecuteSpan = "flow.execute";
inline constexpr const char* kJobSpan = "hub.job";

/// A copy of flow::reference_template() whose every step `run` is wrapped
/// in a "flow.<step>" span. Names and fingerprints are kept unchanged, so
/// the traced template computes the same cache keys as the reference flow
/// and shares cache entries with it. `recorder` must outlive the template.
flow::FlowTemplate traced_reference_template(SpanRecorder& recorder);

/// The identity of a flow's results: the content digests of the mapped,
/// placed and routed artifacts plus the GDS bytes, combined exactly as
/// hub::make_flow_job computes JobContext::artifact_digest.
eurochip::util::Digest artifact_digest(const flow::FlowArtifacts& artifacts);

// --- statistics -----------------------------------------------------------

/// The p-th percentile of `samples`, or nothing when fewer than ten samples
/// lie strictly above it: a tail figure resting on fewer is not reported.
std::optional<double> reportable_percentile(std::vector<double> samples,
                                            double p);

/// Geometric mean over items of each item's p-th percentile sample. Items
/// without samples are skipped.
double geomean_of_percentiles(const std::vector<std::vector<double>>& per_item,
                              double p);

/// Per execute span: its wall time minus the wall time of its direct child
/// spans (the traced steps). Without a cache this is the flow's own
/// bookkeeping; with one it adds probe, restore, store and the L2 traffic.
struct ExecuteSplit {
  std::size_t execute_index = 0;
  double execute_ms = 0.0;
  double steps_ms = 0.0;
  std::size_t steps = 0;

  [[nodiscard]] double overhead_ms() const { return execute_ms - steps_ms; }
};
std::vector<ExecuteSplit> split_executes(const std::vector<Span>& spans);

}  // namespace perfbench
