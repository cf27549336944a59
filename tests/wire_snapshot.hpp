// A flow snapshot in wire format v4, the way the second-level cache holds
// it: one blob per heap artifact under its content address, plus the
// manifest that names them. Shared by the serialization tests.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"

namespace eurochip::wire_test {

struct WireSnapshot {
  flow::ArtifactAddresses addresses{};
  std::vector<std::vector<std::uint8_t>> blobs =
      std::vector<std::vector<std::uint8_t>>(flow::kArtifactSlots);
  std::vector<std::uint8_t> manifest;
};

inline WireSnapshot to_wire(const flow::FlowContext& ctx) {
  WireSnapshot wire;
  flow::for_each_artifact(ctx.artifacts, [&](std::size_t slot, const auto& p) {
    if (!p) return;
    wire.blobs[slot] = flow::artifact_blob(ctx.artifacts, slot);
    wire.addresses[slot] =
        flow::artifact_address(slot, wire.blobs[slot], wire.addresses);
  });
  wire.manifest =
      flow::serialize_manifest(ctx.artifacts, ctx.steps, wire.addresses);
  return wire;
}

/// Reads the manifest, then every artifact it names from `wire.blobs`.
inline util::Status from_wire(const WireSnapshot& wire,
                              flow::FlowContext& ctx) {
  flow::ArtifactAddresses addresses{};
  util::Status st = flow::deserialize_manifest(wire.manifest, ctx, addresses);
  for (std::size_t slot = 0; st.ok() && slot < flow::kArtifactSlots; ++slot) {
    if (addresses[slot] == util::Digest{}) continue;
    st = flow::read_artifact_blob(slot, wire.blobs[slot], addresses,
                                  ctx.artifacts);
  }
  return st;
}

}  // namespace eurochip::wire_test
