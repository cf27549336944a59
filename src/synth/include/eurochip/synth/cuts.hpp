// k-feasible cuts: the one cut engine under both technology mappers
// (map_to_library with k = 3, map_to_luts with k <= 6). A cut of node n is
// a set of at most k leaves that separates n from the inputs, and carries
// n's function over them, composed from the fanin cuts' functions when the
// cut is formed. Each mapper keeps its own selection and pruning policy.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "eurochip/synth/aig.hpp"

namespace eurochip::synth {

/// Cut-set bound per node for both mappers (the trivial cut comes on top).
constexpr std::size_t kCutsPerNode = 8;

struct Cut {
  std::array<std::uint32_t, 6> leaves{};  ///< ascending node ids
  std::uint8_t size = 0;
  /// The node's function as a 6-variable truth table in which leaf s is
  /// variable s (0xAAAA..., 0xCCCC..., ...), replicated over the unused
  /// variables. Its low 8 bits are therefore the 3-variable table.
  std::uint64_t tt = 0;

  /// Compares leaves only: one leaf set has one function.
  [[nodiscard]] bool operator==(const Cut& o) const {
    return size == o.size &&
           std::equal(leaves.begin(), leaves.begin() + size, o.leaves.begin());
  }
};

/// The cut {n}, with n as variable 0.
[[nodiscard]] Cut trivial_cut(std::uint32_t n);

/// The k-feasible cuts of AND node `n` (k <= 6), from its fanins' cut sets
/// `cuts0` and `cuts1`: each pair's leaf union in pair order (c0 outer,
/// c1 inner), skipping unions larger than k and duplicates.
[[nodiscard]] std::vector<Cut> merge_fanin_cuts(
    const Aig& aig, std::uint32_t n, const std::vector<Cut>& cuts0,
    const std::vector<Cut>& cuts1, int k);

}  // namespace eurochip::synth
