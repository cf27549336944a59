// k-LUT technology mapping: the FPGA-prototyping path.
//
// The paper (§III-B): FPGAs "are useful for prototyping but fall short in
// providing insights into the full backend design process required for
// ASIC development". This mapper covers an AIG with k-input LUTs (the
// FPGA fabric abstraction) so the FPGA-vs-ASIC coverage bench can compare
// what each flow teaches: LUT mapping ends where the ASIC backend begins.
// Its cuts come from the cut engine it shares with the standard-cell
// mapper (cuts.hpp); only its depth-first selection and pruning are its own.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/synth/aig.hpp"
#include "eurochip/util/result.hpp"

namespace eurochip::synth {

struct LutMapOptions {
  int k = 4;               ///< LUT input count (4 or 6 are typical)
};

/// One mapped LUT.
struct Lut {
  std::uint32_t root = 0;                 ///< AIG node it implements
  std::vector<std::uint32_t> inputs;      ///< AIG leaf nodes
};

struct LutMapping {
  std::vector<Lut> luts;
  std::size_t num_registers = 0;          ///< AIG latches pass through
  int depth = 0;                          ///< LUT levels on the longest path
  double estimated_fmax_mhz = 0.0;        ///< from a per-level LUT delay

  [[nodiscard]] std::size_t lut_count() const { return luts.size(); }
};

/// Covers the AIG with k-LUTs (depth-optimal cut selection, area-aware
/// tie-break). Fails for k < 2 or k > 6.
[[nodiscard]] util::Result<LutMapping> map_to_luts(
    const Aig& aig, const LutMapOptions& options = {});

}  // namespace eurochip::synth
