// Graph-based static timing analysis.
//
// Arrival times and slews propagate through the combinational cone in
// topological order using the library's NLDM tables; wire delay comes from
// an Elmore model fed by routed net lengths (post-layout) or a fanout-based
// wireload model (pre-layout). Endpoints are DFF D-pins (setup against the
// clock period) and primary outputs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "eurochip/netlist/netlist.hpp"
#include "eurochip/pdk/node.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::timing {

struct StaOptions {
  double clock_period_ps = 10000.0;
  double input_slew_ps = 20.0;
  double primary_output_load_ff = 10.0;
  double setup_margin_ps = 0.0;      ///< extra guard band
  /// Pre-layout wireload model: wire cap per fanout (fF) when no routing
  /// information is supplied.
  double wireload_cap_per_fanout_ff = 1.5;
  /// Clock skew (e.g. from cts::ClockTree::skew_ps()): tightens setup by
  /// this much and is the hazard hold paths must beat.
  double clock_skew_ps = 0.0;
  double hold_margin_ps = 0.0;
};

/// Timing of one endpoint (DFF D-pin or primary output).
struct Endpoint {
  std::string name;
  double arrival_ps = 0.0;
  double required_ps = 0.0;
  double slack_ps = 0.0;
};

struct PathStep {
  std::string point;      ///< "cell/pin" or port name
  double arrival_ps = 0.0;
  double incr_ps = 0.0;
};

struct TimingReport {
  double wns_ps = 0.0;    ///< worst negative setup slack
  double tns_ps = 0.0;    ///< total negative setup slack
  double clock_period_ps = 0.0;
  double critical_path_delay_ps = 0.0;
  /// Highest clock frequency at which WNS would be zero, MHz.
  double fmax_mhz = 0.0;
  std::vector<Endpoint> endpoints;     ///< sorted by ascending slack
  std::vector<PathStep> critical_path; ///< launch to capture
  std::size_t num_endpoints = 0;

  /// Hold (min-delay) analysis over register-to-register paths: the
  /// shortest data arrival must exceed clock skew + hold margin.
  double worst_hold_slack_ps = 0.0;
  std::size_t hold_violations = 0;

  [[nodiscard]] bool met() const { return wns_ps >= 0.0; }
  [[nodiscard]] bool hold_met() const { return hold_violations == 0; }
};

/// Per-net arrival summary, exported for the design-debug symbol table
/// (dbg::SymbolTable): the full per-net view the TimingReport's endpoint
/// list compresses away.
struct NetArrival {
  double arrival_ps = 0.0;      ///< latest arrival at the net
  double arrival_min_ps = 0.0;  ///< earliest arrival (hold analysis)
  bool driven = false;          ///< false for floating/unreached nets
};

/// Runs STA. `routing` may be null for pre-layout (wireload) analysis; when
/// provided it must belong to the same netlist. When `arrivals` is non-null
/// it is resized to num_nets() and filled with every net's arrival window.
[[nodiscard]] util::Result<TimingReport> analyze(
    const netlist::Netlist& netlist, const pdk::TechnologyNode& node,
    const StaOptions& options = {},
    const route::RoutedDesign* routing = nullptr,
    std::vector<NetArrival>* arrivals = nullptr);

}  // namespace eurochip::timing
