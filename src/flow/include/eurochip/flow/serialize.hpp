// Wire-format (de)serialization of flow artifacts — the exchange format
// the federated second-level cache (fed::RemoteCache) stores in.
//
// In memory a FlowCache entry shares its artifacts by pointer; across hubs
// it travels as bytes (util::WireWriter, little-endian). The L2 holds one
// value per step key: that step's cache entry, i.e. the slots the step
// wrote and its step record, sealed with a digest trailer over the key
// and the payload. Reading wires each decoded artifact's cross-reference
// (mapped -> library, placed -> mapped, routed -> placed) to the upstream
// artifact the reader already holds, which the step key guarantees is
// the one the writer read.
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
// in isolation; the entry functions below are built on them.
#pragma once

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
/// v4: content-addressed artifact blobs plus per-step manifests;
/// v5: one sealed entry per step key, holding what the step wrote.
inline constexpr std::uint32_t kWireVersion = 5;

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

void serialize(util::WireWriter& w, const StepRecord& step);
[[nodiscard]] util::Result<StepRecord> deserialize_step(util::WireReader& r);

void serialize(util::WireWriter& w, const dbg::SymbolTable& sym);
/// Every NameRef is validated against the shipped arena, so a corrupt
/// stream cannot produce out-of-range string views.
[[nodiscard]] util::Result<dbg::SymbolTable> deserialize_symbols(
    util::WireReader& r);

// --- cache entries (what RemoteCache stores) -----------------------------

/// One FlowCache entry on the wire, stored under its step key: a header
/// (magic, version, `writes`), each written heap artifact as a presence
/// flag plus its encoding, the written value reports, `record`, and a
/// trailer H(key, payload), so an entry served under another key fails to
/// verify.
[[nodiscard]] std::vector<std::uint8_t> serialize_entry(
    const util::Digest& key, const FlowArtifacts& artifacts,
    ArtifactMask writes, const StepRecord& record);

/// Verifies `bytes` against `key`, then decodes the written slots into
/// `artifacts` (a heap artifact that points upstream is wired to the
/// upstream artifact `artifacts` already holds) and `record`, and sets
/// `writes`. On any error the outputs may be partial and must be
/// discarded.
[[nodiscard]] util::Status deserialize_entry(
    const util::Digest& key, const std::vector<std::uint8_t>& bytes,
    FlowArtifacts& artifacts, ArtifactMask& writes, StepRecord& record);

}  // namespace eurochip::flow
