#include "eurochip/synth/lutmap.hpp"

#include <algorithm>
#include <limits>

#include "eurochip/synth/cuts.hpp"

namespace eurochip::synth {

util::Result<LutMapping> map_to_luts(const Aig& aig,
                                     const LutMapOptions& opt) {
  if (opt.k < 2 || opt.k > 6) {
    return util::Status::InvalidArgument("LUT k must be in [2, 6]");
  }
  if (util::Status s = aig.check(); !s.ok()) return s;

  // Per node: cut set, best (depth-minimal) cut, LUT level.
  std::vector<std::vector<Cut>> cuts(aig.num_nodes());
  std::vector<Cut> best_cut(aig.num_nodes());
  std::vector<int> level(aig.num_nodes(), 0);

  const auto is_leaf_node = [&aig](std::uint32_t n) {
    return aig.node(n).kind != NodeKind::kAnd;  // input, latch or constant
  };
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (is_leaf_node(n)) cuts[n] = {trivial_cut(n)};
  }
  // Depth of a cut's leaves (the cut's LUT sits one level above).
  const auto leaf_level = [&level](const Cut& c) {
    int lvl = 0;
    for (int s = 0; s < c.size; ++s) lvl = std::max(lvl, level[c.leaves[s]]);
    return lvl;
  };

  for (std::uint32_t n : aig.and_nodes_topo()) {
    const AigNode& an = aig.node(n);
    std::vector<Cut> cand = merge_fanin_cuts(
        aig, n, cuts[lit_node(an.fanin0)], cuts[lit_node(an.fanin1)], opt.k);
    // Depth of a cut = 1 + max leaf level; pick depth-minimal, then
    // smallest cut.
    int best_level = std::numeric_limits<int>::max();
    for (const Cut& c : cand) {
      const int lvl = leaf_level(c) + 1;
      if (lvl < best_level ||
          (lvl == best_level && c.size < best_cut[n].size)) {
        best_level = lvl;
        best_cut[n] = c;
      }
    }
    level[n] = best_level;

    // Prune the cut set for fanouts: keep the chosen + shallowest few,
    // plus the trivial cut.
    std::sort(cand.begin(), cand.end(),
              [&leaf_level](const Cut& a, const Cut& b) {
                const int la = leaf_level(a);
                const int lb = leaf_level(b);
                if (la != lb) return la < lb;
                return a.size < b.size;
              });
    if (cand.size() > kCutsPerNode) cand.resize(kCutsPerNode);
    cand.push_back(trivial_cut(n));
    cuts[n] = std::move(cand);
  }

  // Cover extraction from outputs and latch next-states.
  LutMapping mapping;
  mapping.num_registers = aig.latches().size();
  std::vector<char> required(aig.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  const auto require = [&](Lit l) {
    const std::uint32_t n = lit_node(l);
    if (required[n] == 0) {
      required[n] = 1;
      stack.push_back(n);
    }
  };
  for (const AigOutput& o : aig.outputs()) require(o.lit);
  for (std::uint32_t latch : aig.latches()) require(aig.latch_next(latch));

  int max_level = 0;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (is_leaf_node(n)) continue;
    Lut lut;
    lut.root = n;
    const Cut& cut = best_cut[n];
    lut.inputs.assign(cut.leaves.begin(), cut.leaves.begin() + cut.size);
    for (std::uint32_t leaf : lut.inputs) require(make_lit(leaf, false));
    mapping.luts.push_back(std::move(lut));
    max_level = std::max(max_level, level[n]);
  }
  mapping.depth = max_level;
  // Typical fabric timing: ~0.45 ns LUT+local-route delay per level.
  const double lut_delay_ns = 0.35 + 0.05 * opt.k;
  mapping.estimated_fmax_mhz =
      1000.0 / (std::max(1, mapping.depth) * lut_delay_ns);
  return mapping;
}

}  // namespace eurochip::synth
