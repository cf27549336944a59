// Wire-format round trips for every flow artifact (flow/serialize.hpp):
// a deserialized artifact must be indistinguishable from the original —
// equal content digests where digest_of exists, byte-identical
// re-serialization everywhere — and corrupt, truncated or misfiled cache
// entries must be rejected with a Status, never a crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/wire.hpp"
#include "wire_snapshot.hpp"

namespace eurochip {
namespace {

using wire_test::from_wire;
using wire_test::to_wire;
using wire_test::WireSnapshot;

// One reference-flow run on a sequential design (counter has flops, so
// every artifact — clock tree included — is populated), shared by all
// round-trip tests.
struct Baked {
  std::unique_ptr<rtl::Module> design;
  flow::FlowContext ctx;
};

const Baked& baked() {
  static const Baked* b = [] {
    auto* out = new Baked;
    out->design = std::make_unique<rtl::Module>(rtl::designs::counter(8));
    flow::FlowConfig cfg;
    cfg.node = pdk::standard_node("sky130ish").value();
    cfg.quality = flow::FlowQuality::kOpen;
    cfg.seed = 11;
    auto res = flow::run_reference_flow(*out->design, cfg);
    if (!res.ok()) {
      ADD_FAILURE() << "reference flow failed: " << res.status().to_string();
    } else {
      out->ctx.config = cfg;
      out->ctx.artifacts = std::move(res->artifacts);
      out->ctx.steps = std::move(res->steps);
    }
    out->ctx.artifacts.design = out->design.get();
    return out;
  }();
  return *b;
}

template <typename T>
std::vector<std::uint8_t> bytes_of(const T& value) {
  util::WireWriter w;
  flow::serialize(w, value);
  return std::move(w).take();
}

TEST(SerializeTest, LibraryRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.library, nullptr);
  const auto bytes = bytes_of(*a.library);
  util::WireReader r(bytes);
  auto lib = flow::deserialize_library(r);
  ASSERT_TRUE(lib.ok()) << lib.status().to_string();
  EXPECT_EQ(lib->name(), a.library->name());
  EXPECT_EQ(lib->size(), a.library->size());
  EXPECT_EQ(bytes_of(*lib), bytes);  // re-encoding is the identity
}

TEST(SerializeTest, AigRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.aig, nullptr);
  const auto bytes = bytes_of(*a.aig);
  util::WireReader r(bytes);
  auto aig = flow::deserialize_aig(r);
  ASSERT_TRUE(aig.ok()) << aig.status().to_string();
  EXPECT_EQ(aig->num_nodes(), a.aig->num_nodes());
  EXPECT_EQ(bytes_of(*aig), bytes);
}

TEST(SerializeTest, NetlistRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.mapped, nullptr);
  const auto bytes = bytes_of(*a.mapped);
  util::WireReader r(bytes);
  auto nl = flow::deserialize_netlist(r, a.library.get());
  ASSERT_TRUE(nl.ok()) << nl.status().to_string();
  EXPECT_EQ(flow::digest_of(*nl), flow::digest_of(*a.mapped));
  EXPECT_EQ(bytes_of(*nl), bytes);
}

TEST(SerializeTest, PlacedRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.placed, nullptr);
  const auto bytes = bytes_of(*a.placed);
  util::WireReader r(bytes);
  auto placed = flow::deserialize_placed(r, a.mapped.get());
  ASSERT_TRUE(placed.ok()) << placed.status().to_string();
  EXPECT_EQ(flow::digest_of(*placed), flow::digest_of(*a.placed));
  EXPECT_EQ(bytes_of(*placed), bytes);
}

TEST(SerializeTest, ClockTreeRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.clock_tree, nullptr) << "counter is sequential; CTS expected";
  const auto bytes = bytes_of(*a.clock_tree);
  util::WireReader r(bytes);
  auto tree = flow::deserialize_clock_tree(r);
  ASSERT_TRUE(tree.ok()) << tree.status().to_string();
  EXPECT_EQ(tree->num_sinks, a.clock_tree->num_sinks);
  EXPECT_EQ(bytes_of(*tree), bytes);
}

TEST(SerializeTest, RoutedRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.routed, nullptr);
  const auto bytes = bytes_of(*a.routed);
  util::WireReader r(bytes);
  auto routed = flow::deserialize_routed(r, a.placed.get());
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_EQ(flow::digest_of(*routed), flow::digest_of(*a.routed));
  EXPECT_EQ(bytes_of(*routed), bytes);
}

TEST(SerializeTest, ReportsRoundTripByteStable) {
  const auto& a = baked().ctx.artifacts;
  {
    const auto bytes = bytes_of(a.timing);
    util::WireReader r(bytes);
    auto t = flow::deserialize_timing(r);
    ASSERT_TRUE(t.ok()) << t.status().to_string();
    EXPECT_EQ(t->wns_ps, a.timing.wns_ps);
    EXPECT_EQ(t->endpoints.size(), a.timing.endpoints.size());
    EXPECT_EQ(bytes_of(*t), bytes);
  }
  {
    const auto bytes = bytes_of(a.power);
    util::WireReader r(bytes);
    auto p = flow::deserialize_power(r);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(p->total_uw, a.power.total_uw);
    EXPECT_EQ(bytes_of(*p), bytes);
  }
  {
    const auto bytes = bytes_of(a.drc);
    util::WireReader r(bytes);
    auto d = flow::deserialize_drc(r);
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->violations.size(), a.drc.violations.size());
    EXPECT_EQ(bytes_of(*d), bytes);
  }
  for (const flow::StepRecord& step : baked().ctx.steps) {
    const auto bytes = bytes_of(step);
    util::WireReader r(bytes);
    auto s = flow::deserialize_step(r);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    EXPECT_EQ(s->name, step.name);
    EXPECT_EQ(s->detail, step.detail);
    EXPECT_EQ(bytes_of(*s), bytes);
  }
}

TEST(SerializeSnapshotTest, RoundTripPreservesEveryArtifact) {
  const Baked& b = baked();
  const WireSnapshot wire = to_wire(b.ctx);
  ASSERT_EQ(wire.entries.size(), b.ctx.steps.size());
  for (const auto& entry : wire.entries) EXPECT_GT(entry.size(), 28u);

  flow::FlowContext out;
  out.config = b.ctx.config;
  out.artifacts.design = b.design.get();
  const auto st = from_wire(wire, out);
  ASSERT_TRUE(st.ok()) << st.to_string();

  ASSERT_NE(out.artifacts.mapped, nullptr);
  ASSERT_NE(out.artifacts.placed, nullptr);
  ASSERT_NE(out.artifacts.routed, nullptr);
  EXPECT_EQ(flow::digest_of(*out.artifacts.mapped),
            flow::digest_of(*b.ctx.artifacts.mapped));
  EXPECT_EQ(flow::digest_of(*out.artifacts.placed),
            flow::digest_of(*b.ctx.artifacts.placed));
  EXPECT_EQ(flow::digest_of(*out.artifacts.routed),
            flow::digest_of(*b.ctx.artifacts.routed));
  EXPECT_EQ(out.artifacts.gds_bytes, b.ctx.artifacts.gds_bytes);
  EXPECT_EQ(out.steps.size(), b.ctx.steps.size());
  EXPECT_EQ(out.artifacts.design, b.design.get());  // borrowed ptr untouched
  // Cross-references are wired to the artifacts read alongside them.
  EXPECT_EQ(&out.artifacts.mapped->library(), out.artifacts.library.get());
  EXPECT_EQ(out.artifacts.placed->netlist, out.artifacts.mapped.get());
  EXPECT_EQ(out.artifacts.routed->placed, out.artifacts.placed.get());

  // Serialization is deterministic: the round-tripped context re-encodes
  // to identical entries (the property the shared remote cache relies
  // on).
  const WireSnapshot again = to_wire(out);
  EXPECT_EQ(again.keys, wire.keys);
  EXPECT_EQ(again.entries, wire.entries);
}

/// Calls f(bytes) for each entry of `wire`.
template <typename F>
void for_each_stream(WireSnapshot& wire, F&& f) {
  for (auto& entry : wire.entries) f(entry);
}

TEST(SerializeSnapshotTest, EveryTruncationIsRejectedCleanly) {
  WireSnapshot wire = to_wire(baked().ctx);
  // Every prefix of every entry must fail with a Status (digest trailer or
  // bounds check), never crash. Stride keeps the loop fast on multi-KB
  // streams.
  for_each_stream(wire, [&](std::vector<std::uint8_t>& bytes) {
    const std::vector<std::uint8_t> whole = bytes;
    const std::size_t stride = whole.size() / 257 + 1;
    for (std::size_t len = 0; len < whole.size(); len += stride) {
      bytes.assign(whole.begin(), whole.begin() + static_cast<long>(len));
      flow::FlowContext out;
      EXPECT_FALSE(from_wire(wire, out).ok())
          << "prefix of " << len << " of " << whole.size() << " bytes decoded";
    }
    bytes = whole;
  });
}

TEST(SerializeSnapshotTest, EveryByteFlipIsRejected) {
  WireSnapshot wire = to_wire(baked().ctx);
  for_each_stream(wire, [&](std::vector<std::uint8_t>& bytes) {
    const std::size_t stride = bytes.size() / 97 + 1;
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      bytes[pos] ^= 0x5Au;
      flow::FlowContext out;
      EXPECT_FALSE(from_wire(wire, out).ok())
          << "flip at byte " << pos << " of " << bytes.size() << " decoded";
      bytes[pos] ^= 0x5Au;
    }
  });
}

TEST(SerializeSnapshotTest, EntryUnderAnotherKeyIsRejected) {
  const WireSnapshot wire = to_wire(baked().ctx);
  for (std::size_t step = 0; step < wire.entries.size(); ++step) {
    for (std::size_t other = 0; other < wire.entries.size(); ++other) {
      if (other == step) continue;
      flow::FlowArtifacts a = baked().ctx.artifacts;
      flow::ArtifactMask writes = 0;
      flow::StepRecord record;
      EXPECT_FALSE(flow::deserialize_entry(wire.keys[step],
                                           wire.entries[other], a, writes,
                                           record)
                       .ok())
          << "entry " << other << " accepted as step " << step;
    }
  }
  // A key covers the keys of what its step read: the same map entry under
  // the map key of a run on another library is a different entry.
  flow::FlowContext other_node = baked().ctx;
  other_node.config.node = pdk::standard_node("ihp130ish").value();
  const WireSnapshot moved = to_wire(other_node);
  constexpr std::size_t kMapStep = 3;
  ASSERT_EQ(flow::reference_template().steps()[kMapStep].name, "map");
  ASSERT_NE(moved.keys[kMapStep], wire.keys[kMapStep]);
  flow::FlowArtifacts a = baked().ctx.artifacts;
  flow::ArtifactMask writes = 0;
  flow::StepRecord record;
  EXPECT_FALSE(flow::deserialize_entry(moved.keys[kMapStep],
                                       wire.entries[kMapStep], a, writes,
                                       record)
                   .ok());
}

TEST(SerializeSnapshotTest, WrongVersionIsRejected) {
  // An entry whose trailer is valid for its key but whose version is
  // unknown must be rejected by the header check, not mis-parsed.
  const util::Digest key{0x1234, 0x5678};
  const auto sealed = [&key](std::uint32_t version) {
    util::WireWriter w;
    w.u32(flow::kWireMagic);
    w.u32(version);
    w.u32(0);  // writes nothing
    flow::serialize(w, flow::StepRecord{"power", 1.0, "", false});
    auto payload = std::move(w).take();
    util::Hasher h;
    h.digest(key).bytes(payload.data(), payload.size());
    const auto d = h.finalize();
    util::WireWriter trailer;
    trailer.u64(d.hi);
    trailer.u64(d.lo);
    for (auto byte : std::move(trailer).take()) payload.push_back(byte);
    return payload;
  };
  flow::FlowArtifacts a;
  flow::ArtifactMask writes = 0;
  flow::StepRecord record;
  EXPECT_FALSE(flow::deserialize_entry(key, sealed(flow::kWireVersion + 1), a,
                                       writes, record)
                   .ok());
  // The same bytes at the current version decode: the version alone failed.
  EXPECT_TRUE(flow::deserialize_entry(key, sealed(flow::kWireVersion), a,
                                      writes, record)
                  .ok());
  EXPECT_EQ(record.name, "power");
}

}  // namespace
}  // namespace eurochip
