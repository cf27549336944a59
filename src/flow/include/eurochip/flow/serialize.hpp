// Wire-format (de)serialization of flow artifacts — the exchange format
// the federated second-level cache (fed::RemoteCache) stores in.
//
// In memory a FlowCache snapshot shares its artifacts by pointer; across
// hubs they travel as bytes (util::WireWriter, little-endian). The L2 holds
// two kinds of value:
//   * an artifact blob: one heap artifact's encoding, stored under its
//     content address H(version, slot, blob, address of the artifact it
//     points at), so equal artifacts are stored once and a reader can
//     verify a blob against the address it asked for;
//   * a manifest, stored under a step key: a magic/version header, the
//     addresses of the snapshot's artifacts, the value reports and step
//     records, and a util::Digest trailer over the payload.
// Reading rewires the cross-references (mapped -> library, placed ->
// mapped, routed -> placed) to the artifacts the reader already holds.
//
// Determinism contract: serializing equal artifacts yields equal bytes,
// and a deserialized artifact is indistinguishable from the original to
// every downstream consumer — flow::digest_of() of a round-tripped
// netlist/placement/routing equals the original's digest (serialize_test
// enforces this per type). Corrupt or truncated input NEVER throws or
// crashes: it surfaces as a non-OK Status, which the cache tier treats as
// a miss.
//
// The per-type functions are exposed so tests can round-trip each artifact
// in isolation; the artifact-blob functions below are built on them.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip::flow {

/// Stream header: "ECFS" + format version. Bump the version on any layout
/// change; readers reject unknown versions (a federation can then roll
/// hubs forward without poisoning the shared cache).
inline constexpr std::uint32_t kWireMagic = 0x53464345u;  // "ECFS" LE
/// v2: SoA netlist image; v3: routed geometry + dbg::SymbolTable;
/// v4: content-addressed artifact blobs plus per-step manifests.
inline constexpr std::uint32_t kWireVersion = 4;

// --- per-artifact encoders ------------------------------------------------

void serialize(util::WireWriter& w, const netlist::CellLibrary& lib);
[[nodiscard]] util::Result<netlist::CellLibrary> deserialize_library(
    util::WireReader& r);

void serialize(util::WireWriter& w, const synth::Aig& aig);
/// Rebuilds by replaying the public construction API in node order; the
/// structural hash must reproduce every AND at its original id, so a
/// stream produced by a different strash implementation is rejected
/// rather than silently re-folded.
[[nodiscard]] util::Result<synth::Aig> deserialize_aig(util::WireReader& r);

void serialize(util::WireWriter& w, const netlist::Netlist& nl);
/// `library` is the (already deserialized) library the netlist indexes
/// into; borrowed, must outlive the netlist.
[[nodiscard]] util::Result<netlist::Netlist> deserialize_netlist(
    util::WireReader& r, const netlist::CellLibrary* library);

void serialize(util::WireWriter& w, const place::PlacedDesign& placed);
/// `netlist` is borrowed and required; net_pad_points is rebuilt, not
/// shipped.
[[nodiscard]] util::Result<place::PlacedDesign> deserialize_placed(
    util::WireReader& r, const netlist::Netlist* netlist);

void serialize(util::WireWriter& w, const cts::ClockTree& tree);
[[nodiscard]] util::Result<cts::ClockTree> deserialize_clock_tree(
    util::WireReader& r);

void serialize(util::WireWriter& w, const route::RoutedDesign& routed);
/// `placed` is borrowed and required.
[[nodiscard]] util::Result<route::RoutedDesign> deserialize_routed(
    util::WireReader& r, const place::PlacedDesign* placed);

void serialize(util::WireWriter& w, const timing::TimingReport& t);
[[nodiscard]] util::Result<timing::TimingReport> deserialize_timing(
    util::WireReader& r);

void serialize(util::WireWriter& w, const power::PowerReport& p);
[[nodiscard]] util::Result<power::PowerReport> deserialize_power(
    util::WireReader& r);

void serialize(util::WireWriter& w, const drc::DrcReport& d);
[[nodiscard]] util::Result<drc::DrcReport> deserialize_drc(
    util::WireReader& r);

void serialize(util::WireWriter& w, const std::vector<StepRecord>& steps);
[[nodiscard]] util::Result<std::vector<StepRecord>> deserialize_steps(
    util::WireReader& r);

void serialize(util::WireWriter& w, const dbg::SymbolTable& sym);
/// Every NameRef is validated against the shipped arena, so a corrupt
/// stream cannot produce out-of-range string views.
[[nodiscard]] util::Result<dbg::SymbolTable> deserialize_symbols(
    util::WireReader& r);

// --- content-addressed snapshots (what RemoteCache stores) ---------------

/// The heap artifacts of FlowArtifacts, in manifest order.
enum ArtifactSlot : std::size_t {
  kLibrarySlot,
  kAigSlot,
  kMappedSlot,
  kPlacedSlot,
  kClockTreeSlot,
  kRoutedSlot,
  kSymbolsSlot,
  kArtifactSlots
};

/// One content address per slot; a zero Digest marks an absent artifact.
using ArtifactAddresses = std::array<util::Digest, kArtifactSlots>;

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

/// The slot whose artifact `slot` points into (mapped -> library, placed
/// -> mapped, routed -> placed); kArtifactSlots for the rest.
[[nodiscard]] std::size_t upstream_slot(std::size_t slot);

/// The encoding of artifact `slot` of `a`, which must be set.
[[nodiscard]] std::vector<std::uint8_t> artifact_blob(const FlowArtifacts& a,
                                                      std::size_t slot);

/// H(version, slot, blob, addresses[upstream_slot(slot)]): the address the
/// blob is stored under.
[[nodiscard]] util::Digest artifact_address(
    std::size_t slot, const std::vector<std::uint8_t>& blob,
    const ArtifactAddresses& addresses);

/// Checks `blob` against addresses[slot], then decodes it into slot `slot`
/// of `a`, wired to the upstream artifact `a` already holds.
[[nodiscard]] util::Status read_artifact_blob(
    std::size_t slot, const std::vector<std::uint8_t>& blob,
    const ArtifactAddresses& addresses, FlowArtifacts& a);

/// The manifest of a snapshot: `addresses`, the value reports of
/// `artifacts`, and `steps`, sealed with a digest trailer.
[[nodiscard]] std::vector<std::uint8_t> serialize_manifest(
    const FlowArtifacts& artifacts, const std::vector<StepRecord>& steps,
    const ArtifactAddresses& addresses);

/// Verifies the trailer and header, then fills `addresses`, the value
/// reports of ctx.artifacts and ctx.steps (heap artifacts are untouched).
/// On any error the outputs may be partial and must be discarded.
[[nodiscard]] util::Status deserialize_manifest(
    const std::vector<std::uint8_t>& bytes, FlowContext& ctx,
    ArtifactAddresses& addresses);

}  // namespace eurochip::flow
