#include "eurochip/synth/cuts.hpp"

#include <algorithm>

namespace eurochip::synth {

namespace {

/// Variable s of a 6-variable truth table.
constexpr std::array<std::uint64_t, 6> kVar = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// The function of fanin `lit` over the leaves of `m`, composed from the
/// fanin's cut `from`, whose leaves are among m's.
std::uint64_t fanin_tt(Lit lit, const Cut& from, const Cut& m) {
  const std::uint32_t node = lit_node(lit);
  const auto end = m.leaves.begin() + m.size;
  const auto self = std::find(m.leaves.begin(), end, node);
  std::uint64_t tt = from.tt;
  if (node == 0) {
    tt = 0;
  } else if (self != end) {
    tt = kVar[static_cast<std::size_t>(self - m.leaves.begin())];
  } else {
    // Re-index: both leaf lists ascend, so from's leaf s moves up to m's
    // slot t >= s. Moving the top leaf first, each swap exchanges variable
    // s with a variable t that tt does not depend on.
    for (int s = from.size - 1, t = m.size - 1; s >= 0; --s, --t) {
      while (m.leaves[t] != from.leaves[s]) --t;
      if (t == s) break;  // the leaves below s sit in their own slots
      const std::uint64_t vs = kVar[s];
      const std::uint64_t vt = kVar[t];
      const int shift = (1 << t) - (1 << s);
      tt = (tt & ~(vs ^ vt)) | ((tt & vs & ~vt) << shift) |
           ((tt & ~vs & vt) >> shift);
    }
  }
  return lit_compl(lit) ? ~tt : tt;
}

}  // namespace

Cut trivial_cut(std::uint32_t n) {
  return Cut{{n}, 1, kVar[0]};
}

std::vector<Cut> merge_fanin_cuts(const Aig& aig, std::uint32_t n,
                                  const std::vector<Cut>& cuts0,
                                  const std::vector<Cut>& cuts1, int k) {
  const AigNode& an = aig.node(n);
  std::vector<Cut> out;
  for (const Cut& c0 : cuts0) {
    for (const Cut& c1 : cuts1) {
      std::array<std::uint32_t, 12> u{};
      const auto u_end = std::set_union(
          c0.leaves.begin(), c0.leaves.begin() + c0.size, c1.leaves.begin(),
          c1.leaves.begin() + c1.size, u.begin());
      const auto size = u_end - u.begin();
      if (size > k) continue;
      Cut m;
      std::copy(u.begin(), u_end, m.leaves.begin());
      m.size = static_cast<std::uint8_t>(size);
      if (std::find(out.begin(), out.end(), m) != out.end()) continue;
      m.tt = fanin_tt(an.fanin0, c0, m) & fanin_tt(an.fanin1, c1, m);
      out.push_back(m);
    }
  }
  return out;
}

}  // namespace eurochip::synth
