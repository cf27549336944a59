// The EuroChip reference RTL-to-GDSII flow.
//
// Implements the paper's Recommendation 4 (vendor- and technology-
// independent flow templates): a flow is an ordered list of named steps
// over a shared FlowContext; the reference template instantiates
// elaborate -> synth -> map -> place -> route -> sta -> power -> drc -> gds
// for any TechnologyNode. Steps can be replaced or dropped for ablation.
//
// Two effort presets model the open-vs-commercial PPA gap the paper
// discusses (§III-D): FlowQuality::kOpen mirrors an open flow's default
// effort; kCommercial spends more optimization/iteration effort.
//
// Thread-safety contract
// ----------------------
// FlowTemplate::execute is const and re-entrant: all per-run state lives in
// the FlowContext it creates, and every engine it calls (elaborate, synth,
// map, place, cts, route, sta, power, drc, gds) takes its inputs and
// randomness (util::Rng, seeded from FlowConfig::seed) by parameter and
// keeps no mutable globals. Concurrent execute() calls on the same or
// different templates are therefore safe, provided:
//   * each call gets its own FlowConfig (configs are copied in, so sharing
//     a prototype by value is fine);
//   * concurrent runs use distinct `gds_output_path`s (or leave it empty) —
//     the filesystem is the one shared sink;
//   * nobody mutates a FlowTemplate's step list (add/remove/replace_step)
//     while another thread is executing it.
// A FlowCache (FlowConfig::cache) MAY be shared by any number of
// concurrent execute() calls: the cache is internally synchronized, and the
// heap artifacts it shares between runs are immutable (shared_ptr<const T>;
// steps replace them, never edit them), so no mutable artifact state is
// ever aliased between runs or between a run and the cache — see
// cache.hpp. The only process-wide mutable state in the stack is util's
// log threshold, which is atomic. eurochip::hub::JobServer relies on this
// contract to run flows on a worker pool that shares one FlowCache.
//
// Every kernel runs on the thread that called execute(); concurrency comes
// from running many flows at once — see DESIGN.md "Execution model".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "eurochip/cts/cts.hpp"
#include "eurochip/dbg/symbols.hpp"
#include "eurochip/drc/checker.hpp"
#include "eurochip/gds/gds.hpp"
#include "eurochip/netlist/netlist.hpp"
#include "eurochip/pdk/node.hpp"
#include "eurochip/place/placer.hpp"
#include "eurochip/power/power.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/rtl/ir.hpp"
#include "eurochip/synth/aig.hpp"
#include "eurochip/synth/mapper.hpp"
#include "eurochip/timing/sta.hpp"
#include "eurochip/util/cancel.hpp"
#include "eurochip/util/digest.hpp"

namespace eurochip::flow {

class FlowCache;  // cache.hpp; FlowConfig only carries a borrowed pointer
class BreakController;  // breakpoint.hpp; shared park/inspect/resume state

/// Effort preset. The same engines run in both; only effort knobs differ —
/// which is exactly how the open-vs-proprietary PPA gap is reproduced.
enum class FlowQuality { kOpen, kCommercial };

const char* to_string(FlowQuality q);

struct FlowConfig {
  pdk::TechnologyNode node;
  FlowQuality quality = FlowQuality::kOpen;
  /// 0 = derive a default from the node (40 x FO4).
  double clock_period_ps = 0.0;
  double utilization = 0.6;
  std::uint64_t seed = 1;
  /// Ignored: every flow kernel runs on the calling thread. Kept only so
  /// existing callers that still assign it keep compiling.
  int threads = 0;
  /// Optional expert overrides (Recommendation 4 customization points).
  std::optional<int> synth_iterations;
  std::optional<synth::MapOptions> map_options;
  std::optional<place::PlacementOptions> place_options;
  std::optional<route::RouteOptions> route_options;
  std::optional<power::PowerOptions> power_options;
  /// Insert a scan chain after mapping (design-for-test).
  bool insert_scan = false;
  /// When set, the final GDSII stream is written here.
  std::string gds_output_path;
  /// Cooperative cancellation: checked between flow steps by
  /// FlowTemplate::execute. A default token never fires. Cancellation
  /// surfaces as ErrorCode::kCancelled, a passed deadline as
  /// ErrorCode::kDeadlineExceeded.
  util::CancelToken cancel;
  /// Optional shared per-step artifact cache (borrowed; must outlive the
  /// run). When set, execute() restores each step whose key the cache holds
  /// and stores an entry for each step it executes. Safe to share across
  /// concurrent runs — see cache.hpp.
  FlowCache* cache = nullptr;
  /// Flow breakpoint: when `break_after` names a step and `breakpoint` is
  /// set, execute() parks on the controller after that step completes
  /// (executed or restored from the cache) and blocks
  /// until BreakController::resume() or cancellation. While parked the
  /// deadline clock is suspended — see breakpoint.hpp. Parking changes
  /// WHEN the flow finishes, never its artifacts, and neither knob enters
  /// any cache fingerprint.
  std::string break_after;
  std::shared_ptr<BreakController> breakpoint;

  [[nodiscard]] double effective_clock_ps() const {
    return clock_period_ps > 0.0 ? clock_period_ps
                                 : 40.0 * node.fo4_delay_ps;
  }
};

/// The headline numbers of a completed flow (the "PPA" of the paper).
struct PpaReport {
  std::size_t cell_count = 0;
  double area_um2 = 0.0;
  double die_area_mm2 = 0.0;
  double wns_ps = 0.0;
  double fmax_mhz = 0.0;
  bool timing_met = false;
  double power_uw = 0.0;
  double leakage_uw = 0.0;
  std::int64_t wirelength_dbu = 0;
  std::size_t drc_violations = 0;
  double gds_bytes = 0.0;
  double clock_skew_ps = 0.0;      ///< 0 for purely combinational designs
  int clock_buffers = 0;
};

/// Per-step accounting.
struct StepRecord {
  std::string name;
  double runtime_ms = 0.0;
  std::string detail;
  /// True when the step was restored from a FlowCache entry instead of
  /// being executed; runtime_ms then reflects the original run.
  bool cached = false;
};

/// The slots of FlowArtifacts a step reads and writes: the seven heap
/// artifacts in dependency order, then the four value reports.
enum ArtifactSlot : std::size_t {
  kLibrarySlot,
  kAigSlot,
  kMappedSlot,
  kPlacedSlot,
  kClockTreeSlot,
  kRoutedSlot,
  kSymbolsSlot,
  kTimingSlot,
  kPowerSlot,
  kDrcSlot,
  kGdsSlot,
  kArtifactSlots
};

/// Slots below this one hold shared heap artifacts; the rest hold values.
inline constexpr std::size_t kHeapSlots = kTimingSlot;

/// A set of slots, one bit per ArtifactSlot.
using ArtifactMask = std::uint16_t;

[[nodiscard]] constexpr ArtifactMask slot_bit(std::size_t slot) {
  return static_cast<ArtifactMask>(1u << slot);
}

/// The slot whose artifact `slot` points into (mapped -> library, placed
/// -> mapped, routed -> placed); kArtifactSlots for the rest.
[[nodiscard]] constexpr std::size_t upstream_slot(std::size_t slot) {
  switch (slot) {
    case kMappedSlot: return kLibrarySlot;
    case kPlacedSlot: return kMappedSlot;
    case kRoutedSlot: return kPlacedSlot;
    default: return kArtifactSlots;
  }
}

/// All intermediate artifacts. The heap artifacts are immutable once a
/// step publishes them and are shared by pointer: a FlowCache entry, a
/// restored run and the run that built them all hold the same objects. A
/// step that changes an upstream artifact builds a new one (copying first
/// where it edits) and replaces the pointer; it never writes through it.
/// Cross-references (mapped -> library, placed -> mapped, routed -> placed)
/// are raw pointers into the objects this struct holds.
struct FlowArtifacts {
  const rtl::Module* design = nullptr;
  std::shared_ptr<const netlist::CellLibrary> library;
  std::shared_ptr<const synth::Aig> aig;
  std::shared_ptr<const netlist::Netlist> mapped;
  std::shared_ptr<const place::PlacedDesign> placed;
  std::shared_ptr<const cts::ClockTree> clock_tree;  ///< null for comb designs
  std::shared_ptr<const route::RoutedDesign> routed;
  timing::TimingReport timing;
  power::PowerReport power;
  drc::DrcReport drc;
  std::vector<std::uint8_t> gds_bytes;
  /// Cross-stage symbol provenance (dbg). Created by the elaborate step and
  /// extended (copy, then edit) by map/dft/sta; an overlay that never feeds
  /// back into any artifact or the artifact digest, so runs are
  /// bit-identical with or without consumers.
  std::shared_ptr<const dbg::SymbolTable> symbols;
};

/// Calls f(slot, member) for each heap-artifact pointer of `a`, in slot
/// order, so an upstream artifact is always visited before its dependents.
template <typename Artifacts, typename F>
void for_each_artifact(Artifacts& a, F&& f) {
  f(kLibrarySlot, a.library);
  f(kAigSlot, a.aig);
  f(kMappedSlot, a.mapped);
  f(kPlacedSlot, a.placed);
  f(kClockTreeSlot, a.clock_tree);
  f(kRoutedSlot, a.routed);
  f(kSymbolsSlot, a.symbols);
}

struct FlowResult {
  PpaReport ppa;
  std::vector<StepRecord> steps;
  FlowArtifacts artifacts;
  double total_runtime_ms = 0.0;
  /// Number of steps restored from FlowConfig::cache (0 when no cache was
  /// attached or nothing matched).
  std::size_t cache_hits = 0;
};

/// Shared state threaded through flow steps.
struct FlowContext {
  FlowConfig config;
  FlowArtifacts artifacts;
  std::vector<StepRecord> steps;
};

/// One named step of a flow template.
struct FlowStep {
  std::string name;
  std::function<util::Status(FlowContext&)> run;
  /// Cache fingerprint: absorbs the stage-relevant FlowConfig knobs into
  /// `h` (the design/node digests and the keys of the steps that wrote
  /// `reads` are added by step_keys()). Steps without a fingerprint —
  /// custom steps added via add_step/replace_step — are never cached, and
  /// neither is any step after them (their effect on later stages is
  /// unknown).
  std::function<void(const FlowConfig&, util::Hasher&)> fingerprint;
  /// The slots `run` reads and writes, fixed by what its code touches (the
  /// design and node enter every key, so no step lists them). A cached
  /// step's entry holds exactly its `writes`.
  ArtifactMask reads = 0;
  ArtifactMask writes = 0;
};

/// An ordered, editable step list (Recommendation 4's "template").
class FlowTemplate {
 public:
  explicit FlowTemplate(std::string name) : name_(std::move(name)) {}

  void add_step(FlowStep step) { steps_.push_back(std::move(step)); }

  /// Removes a step by name; returns false if absent (ablation helper).
  bool remove_step(const std::string& name);

  /// Replaces a step's implementation; returns false if absent. The
  /// replaced step loses its cache fingerprint (the new body is opaque),
  /// so it and all downstream steps run uncached.
  bool replace_step(const std::string& name,
                    std::function<util::Status(FlowContext&)> run);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<FlowStep>& steps() const { return steps_; }

  /// Executes all steps in order, timing each; stops at the first failure.
  util::Result<FlowResult> execute(const rtl::Module& design,
                                   FlowConfig config) const;

  /// Recomputes the cache keys execute() would use for (design, config):
  /// keys[i] digests the design, the node, step i's name and knobs, and
  /// the keys of the steps that last wrote what step i reads. Exposed so
  /// callers can probe resumability without running anything. Both
  /// outputs are resized to steps().size(); keyable[i] is false from the
  /// first fingerprint-less step onwards.
  void step_keys(const rtl::Module& design, const FlowConfig& config,
                 std::vector<util::Digest>* keys,
                 std::vector<bool>* keyable) const;

  /// How many leading steps of a (design, config) run `cache` — counting
  /// its second-level tier — holds, so that a run restores them without
  /// executing anything. The federation uses it to measure how far a
  /// failed-over job fast-forwards on its new hub (cold L1, warm shared
  /// L2) before real work starts.
  [[nodiscard]] std::size_t cached_prefix_depth(const rtl::Module& design,
                                                const FlowConfig& config,
                                                const FlowCache& cache) const;

 private:
  std::string name_;
  std::vector<FlowStep> steps_;
};

/// Builds the standard RTL-to-GDSII template for the preset in `config`.
[[nodiscard]] FlowTemplate reference_template();

/// Convenience: reference template end-to-end.
[[nodiscard]] util::Result<FlowResult> run_reference_flow(
    const rtl::Module& design, const FlowConfig& config);

/// Effort knobs a preset expands to (exposed for tests/benches).
struct EffortKnobs {
  int synth_iterations;
  synth::MapOptions map_options;
  place::PlacementOptions place_options;
  route::RouteOptions route_options;
  int buffer_max_fanout;  ///< 0 = no fanout buffering
};

[[nodiscard]] EffortKnobs knobs_for(FlowQuality quality, std::uint64_t seed,
                                    double utilization);

/// Renders a human-readable report card for a completed flow: per-step log
/// plus the PPA summary — the text a cloud enablement platform would show
/// a user after a run.
[[nodiscard]] std::string render_report(const FlowResult& result,
                                        const FlowConfig& config);

}  // namespace eurochip::flow
