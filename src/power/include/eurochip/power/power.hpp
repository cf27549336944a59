// Power estimation: switching activity from vector simulation, dynamic
// power from alpha*C*V^2*f, and library leakage.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/netlist/netlist.hpp"
#include "eurochip/pdk/node.hpp"
#include "eurochip/route/router.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/rng.hpp"

namespace eurochip::power {

struct PowerOptions {
  double clock_mhz = 100.0;
  int activity_cycles = 256;       ///< random vectors for activity extraction
  std::uint64_t seed = 11;
  double default_activity = 0.15;  ///< fallback toggle rate if simulation off
  bool simulate_activity = true;
};

struct PowerReport {
  double dynamic_uw = 0.0;
  double leakage_uw = 0.0;
  double clock_tree_uw = 0.0;      ///< DFF clock-pin switching estimate
  double total_uw = 0.0;
  double average_activity = 0.0;   ///< mean toggle rate over nets
  std::size_t nets_analyzed = 0;
};

/// Estimates power for a mapped netlist on `node`. `routing` adds wire
/// capacitance when available (post-layout power); may be null.
[[nodiscard]] util::Result<PowerReport> estimate(
    const netlist::Netlist& netlist, const pdk::TechnologyNode& node,
    const PowerOptions& options = {},
    const route::RoutedDesign* routing = nullptr);

}  // namespace eurochip::power
