#include <gtest/gtest.h>

#include <set>

#include "eurochip/rtl/designs.hpp"
#include "eurochip/synth/elaborate.hpp"
#include "eurochip/synth/lutmap.hpp"
#include "eurochip/synth/opt.hpp"
#include "eurochip/util/digest.hpp"

namespace eurochip::synth {
namespace {

TEST(LutMapTest, CoversEveryRequiredNode) {
  const auto m = rtl::designs::alu(8);
  const auto aig = elaborate(m);
  ASSERT_TRUE(aig.ok());
  const auto mapping = map_to_luts(*aig);
  ASSERT_TRUE(mapping.ok()) << mapping.status().to_string();
  EXPECT_GT(mapping->lut_count(), 0u);
  EXPECT_EQ(mapping->num_registers, aig->latches().size());
  // Every LUT's inputs must be leaves (PI/latch/const) or roots of other
  // LUTs — i.e. the cover is closed.
  std::set<std::uint32_t> roots;
  for (const auto& lut : mapping->luts) roots.insert(lut.root);
  for (const auto& lut : mapping->luts) {
    EXPECT_LE(lut.inputs.size(), 4u);
    for (std::uint32_t leaf : lut.inputs) {
      const auto kind = aig->node(leaf).kind;
      const bool ok = kind == NodeKind::kInput ||
                      kind == NodeKind::kLatch ||
                      kind == NodeKind::kConst ||
                      roots.count(leaf) > 0;
      EXPECT_TRUE(ok) << "dangling LUT input " << leaf;
    }
  }
}

TEST(LutMapTest, WiderLutsReduceCountAndDepth) {
  const auto m = rtl::designs::multiplier(8);
  const auto aig = optimize(*elaborate(m), 2);
  LutMapOptions k4;
  k4.k = 4;
  LutMapOptions k6;
  k6.k = 6;
  const auto m4 = map_to_luts(aig, k4);
  const auto m6 = map_to_luts(aig, k6);
  ASSERT_TRUE(m4.ok());
  ASSERT_TRUE(m6.ok());
  EXPECT_LE(m6->lut_count(), m4->lut_count());
  EXPECT_LE(m6->depth, m4->depth);
}

TEST(LutMapTest, LutCountBelowAndCount) {
  // Each 4-LUT absorbs several AND nodes.
  const auto m = rtl::designs::mini_cpu_datapath(8);
  const auto aig = optimize(*elaborate(m), 2);
  const auto mapping = map_to_luts(aig);
  ASSERT_TRUE(mapping.ok());
  EXPECT_LT(mapping->lut_count(), aig.num_ands());
}

TEST(LutMapTest, DepthBelowAigDepth) {
  const auto m = rtl::designs::adder(16);
  const auto aig = optimize(*elaborate(m), 2);
  const auto mapping = map_to_luts(aig);
  ASSERT_TRUE(mapping.ok());
  EXPECT_LT(mapping->depth, static_cast<int>(aig.max_level()));
  EXPECT_GT(mapping->estimated_fmax_mhz, 0.0);
}

TEST(LutMapTest, RejectsBadK) {
  const auto m = rtl::designs::counter(4);
  const auto aig = elaborate(m);
  LutMapOptions bad;
  bad.k = 1;
  EXPECT_FALSE(map_to_luts(*aig, bad).ok());
  bad.k = 9;
  EXPECT_FALSE(map_to_luts(*aig, bad).ok());
}

// One digest over 64 LUT mappings: the scale-1 and scale-2 catalogs after
// optimize(2), each at k = 4 and k = 6. It absorbs every LUT's root and
// inputs and each mapping's depth, so a change to cut enumeration or cut
// selection that moves any mapping moves it.
TEST(LutMapTest, CatalogMappingsMatchPinnedDigests) {
  util::Hasher h;
  std::size_t mappings = 0;
  for (const int scale : {1, 2}) {
    for (const auto& entry : rtl::designs::standard_catalog(scale)) {
      const auto aig = elaborate(entry.module);
      ASSERT_TRUE(aig.ok()) << entry.name;
      const Aig opt = optimize(*aig, 2);
      for (const int k : {4, 6}) {
        LutMapOptions options;
        options.k = k;
        const auto mapping = map_to_luts(opt, options);
        ASSERT_TRUE(mapping.ok()) << entry.name << " k=" << k;
        h.u64(mapping->luts.size());
        for (const Lut& lut : mapping->luts) {
          h.u32(lut.root).u64(lut.inputs.size());
          for (const std::uint32_t leaf : lut.inputs) h.u32(leaf);
        }
        h.i64(mapping->depth);
        ++mappings;
      }
    }
  }
  EXPECT_EQ(mappings, 64u);
  const util::Digest got = h.finalize();
  const util::Digest pinned{0x3fd086da3cc981b7ULL, 0x99fbc88cb182e0cbULL};
  EXPECT_EQ(got, pinned) << "got " << got.hex() << ", pinned " << pinned.hex();
}

TEST(LutMapTest, PureRegisterDesignHasZeroLuts) {
  const auto m = rtl::designs::shift_register(4, 3);
  const auto aig = elaborate(m);
  const auto mapping = map_to_luts(*aig);
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(mapping->lut_count(), 0u);
  EXPECT_EQ(mapping->num_registers, 12u);
  EXPECT_EQ(mapping->depth, 0);
}

}  // namespace
}  // namespace eurochip::synth
