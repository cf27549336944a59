#include "eurochip/flow/cache.hpp"

#include "eurochip/util/fault.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::flow {

namespace {

// --- resident-size estimation -------------------------------------------
//
// The byte budget is enforced against an estimate of each artifact's heap
// footprint: container element counts times element sizes plus string
// payloads. It undercounts allocator slack and overcounts nothing large;
// good enough to keep a shared cache bounded.

std::size_t approx_bytes(const netlist::CellLibrary& lib) {
  // NLDM tables are small fixed grids; 512 bytes/cell is a generous flat
  // estimate that avoids reaching into NldmTable internals.
  return lib.size() * (sizeof(netlist::LibraryCell) + 512);
}

std::size_t approx_bytes(const synth::Aig& aig) {
  return aig.num_nodes() * (sizeof(synth::AigNode) + 2 * sizeof(std::uint64_t));
}

std::size_t approx_bytes(const netlist::Netlist& nl) {
  // The SoA netlist accounts for its own flat arrays exactly.
  return sizeof(netlist::Netlist) + nl.memory_bytes();
}

std::size_t approx_bytes(const place::PlacedDesign& placed) {
  return sizeof(place::PlacedDesign) +
         (placed.cell_origin.size() + placed.input_pad.size() +
          placed.output_pad.size()) *
             sizeof(util::Point) +
         placed.floorplan.rows().size() * 4 * sizeof(std::int64_t);
}

std::size_t approx_bytes(const cts::ClockTree& tree) {
  std::size_t total = sizeof(cts::ClockTree);
  for (const cts::TreeNode& n : tree.nodes) {
    total += sizeof(cts::TreeNode) + n.children.size() * sizeof(std::uint32_t) +
             n.sinks.size() * sizeof(netlist::CellId);
  }
  return total;
}

std::size_t approx_bytes(const route::RoutedDesign& routed) {
  std::size_t total = sizeof(route::RoutedDesign) +
                      routed.nets.size() * sizeof(route::NetRoute);
  for (const route::NetRoute& n : routed.nets) {
    total += n.waypoints.size() * sizeof(route::RoutePoint) +
             n.seg_begin.size() * sizeof(std::uint32_t);
  }
  return total;
}

std::size_t approx_bytes(const dbg::SymbolTable& sym) {
  return sym.memory_bytes();
}

std::size_t approx_bytes(const timing::TimingReport& t) {
  std::size_t total = sizeof(timing::TimingReport);
  for (const timing::Endpoint& e : t.endpoints) {
    total += sizeof(timing::Endpoint) + e.name.size();
  }
  for (const timing::PathStep& s : t.critical_path) {
    total += sizeof(timing::PathStep) + s.point.size();
  }
  return total;
}

std::size_t approx_bytes(const drc::DrcReport& d) {
  std::size_t total = sizeof(drc::DrcReport);
  for (const drc::Violation& v : d.violations) {
    total += sizeof(drc::Violation) + v.detail.size();
  }
  return total;
}

std::size_t approx_bytes(const std::vector<StepRecord>& steps) {
  std::size_t total = 0;
  for (const StepRecord& s : steps) {
    total += sizeof(StepRecord) + s.name.size() + s.detail.size();
  }
  return total;
}

/// The upstream object an artifact of `slot` points at (null if none).
const void* upstream_object(std::size_t slot, const void* artifact) {
  switch (slot) {
    case kMappedSlot:
      return &static_cast<const netlist::Netlist*>(artifact)->library();
    case kPlacedSlot:
      return static_cast<const place::PlacedDesign*>(artifact)->netlist;
    case kRoutedSlot:
      return static_cast<const route::RoutedDesign*>(artifact)->placed;
    default: return nullptr;
  }
}

}  // namespace

// --- Snapshot ------------------------------------------------------------
//
// The state after one step: shared pointers to the immutable heap
// artifacts plus copies of the value reports and step records. `design` is
// deliberately NOT captured — the content digest in the key already
// guarantees the caller's design is equivalent, and holding a borrowed
// pointer would dangle.
struct FlowCache::Snapshot {
  FlowArtifacts artifacts;
  std::vector<StepRecord> steps;
  std::array<std::size_t, kArtifactSlots> artifact_bytes{};
  std::size_t value_bytes = 0;  ///< reports, GDS and step records
  std::size_t bytes = 0;        ///< stored alone: value_bytes + artifacts
};

FlowCache::FlowCache() : FlowCache(Options{}) {}

FlowCache::FlowCache(Options options) : options_(options) {}

FlowCache::~FlowCache() = default;

std::shared_ptr<const FlowCache::Snapshot> FlowCache::make_snapshot(
    FlowArtifacts artifacts, std::vector<StepRecord> steps) {
  auto snap = std::make_shared<Snapshot>();
  snap->artifacts = std::move(artifacts);
  snap->artifacts.design = nullptr;
  snap->steps = std::move(steps);
  const FlowArtifacts& a = snap->artifacts;
  snap->value_bytes = sizeof(Snapshot) + a.gds_bytes.size() +
                      approx_bytes(snap->steps) + approx_bytes(a.timing) +
                      approx_bytes(a.drc);
  snap->bytes = snap->value_bytes;
  for_each_artifact(a, [&](std::size_t slot, const auto& p) {
    if (p) snap->bytes += snap->artifact_bytes[slot] = approx_bytes(*p);
  });
  return snap;
}

void FlowCache::restore(const Snapshot& snap, FlowContext& ctx) {
  const rtl::Module* design = ctx.artifacts.design;
  ctx.artifacts = snap.artifacts;
  ctx.artifacts.design = design;
  ctx.steps = snap.steps;
  for (StepRecord& rec : ctx.steps) rec.cached = true;
}

bool FlowCache::lookup(const util::Digest& key, FlowContext& ctx) {
  util::trace::Span span;
  if (util::trace::enabled()) span.begin("cache.lookup", "flow.cache");
  // Fault site "flowcache.lookup": the cache is an accelerator, so a
  // status fault degrades to a miss instead of failing the flow (kThrow
  // still propagates — that is the exception-isolation scenario).
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("flowcache.lookup").ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
      if (span.active()) span.annotate("hit", std::string("degraded-miss"));
      return false;
    }
  }
  std::shared_ptr<const Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      snap = it->second.snapshot;
      ++hits_;
    } else if (options_.second_level == nullptr) {
      ++misses_;
      if (span.active()) span.annotate("hit", false);
      return false;
    }
  }
  // Local miss: try the second-level tier outside the lock.
  const bool remote = snap == nullptr;
  if (remote && (snap = fetch_remote(key, span)) == nullptr) return false;
  if (span.active()) {
    if (remote) {
      span.annotate("hit", std::string("remote"));
    } else {
      span.annotate("hit", true);
    }
    span.annotate("bytes", static_cast<std::uint64_t>(snap->bytes));
  }
  // Pointer copies outside the lock; `snap` keeps the entry alive even if a
  // concurrent store evicts it.
  restore(*snap, ctx);
  return true;
}

std::shared_ptr<const FlowCache::Snapshot> FlowCache::fetch_remote(
    const util::Digest& key, util::trace::Span& span) {
  CacheTier& tier = *options_.second_level;
  std::vector<std::uint8_t> bytes;
  if (!tier.fetch(key, &bytes)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    if (span.active()) span.annotate("hit", false);
    return nullptr;
  }
  // The tier is an optimization, never trusted: a manifest or blob that is
  // missing or fails to verify or decode degrades to a miss.
  FlowContext tmp;
  ArtifactAddresses addresses{};
  util::Status status = deserialize_manifest(bytes, tmp, addresses);
  // Reuse resident artifacts by address, dependents first, so that a
  // reused chain (routed -> placed -> mapped -> library) stays one chain.
  std::array<std::shared_ptr<const void>, kArtifactSlots> local;
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t slot = kArtifactSlots; slot-- > 0;) {
      if (addresses[slot] == util::Digest{}) continue;
      const void* want = nullptr;
      for (std::size_t d = slot + 1; d < kArtifactSlots; ++d) {
        if (upstream_slot(d) == slot && local[d]) {
          want = upstream_object(d, local[d].get());
        }
      }
      if (const auto a = by_address_.find(addresses[slot]);
          want == nullptr && a != by_address_.end()) {
        want = a->second;
      }
      const auto r = resident_.find(want);
      if (r != resident_.end() && r->second.address == addresses[slot]) {
        local[slot] = r->second.object;
      }
    }
  }
  // Fetch the rest, each verified against its address and wired to the
  // upstream artifact already chosen. got[kArtifactSlots] stays null.
  std::array<const void*, kArtifactSlots + 1> got{};
  for_each_artifact(tmp.artifacts, [&](std::size_t slot, auto& p) {
    if (!status.ok() || addresses[slot] == util::Digest{}) return;
    using T = typename std::decay_t<decltype(p)>::element_type;
    if (local[slot] && upstream_object(slot, local[slot].get()) ==
                           got[upstream_slot(slot)]) {
      p = std::static_pointer_cast<T>(local[slot]);
    } else {
      std::vector<std::uint8_t> blob;
      status = tier.fetch(addresses[slot], &blob)
                   ? read_artifact_blob(slot, blob, addresses, tmp.artifacts)
                   : util::Status::NotFound("artifact blob missing");
    }
    got[slot] = p.get();
  });
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++remote_errors_;
    ++misses_;
    if (span.active()) span.annotate("hit", std::string("remote-error"));
    return nullptr;
  }
  std::shared_ptr<const Snapshot> snap =
      make_snapshot(std::move(tmp.artifacts), std::move(tmp.steps));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++remote_hits_;
  }
  // Re-admit locally so the next lookup skips the network. admit_local
  // does not publish back — the tier just served these bytes.
  admit_local(key, snap, &addresses);
  return snap;
}

void FlowCache::store(const util::Digest& key, const FlowContext& ctx) {
  util::trace::Span span;
  if (util::trace::enabled()) span.begin("cache.store", "flow.cache");
  // Fault site "flowcache.store": a status fault skips admission — the
  // flow stays correct, only future lookups lose the snapshot.
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("flowcache.store").ok()) {
      if (span.active()) span.annotate("admitted", std::string("degraded-skip"));
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (span.active()) span.annotate("admitted", std::string("already-present"));
      return;
    }
  }
  // Snapshot outside the lock. A racing store of the same key is resolved
  // in admit_local: first writer wins.
  std::shared_ptr<const Snapshot> snap = make_snapshot(ctx.artifacts, ctx.steps);
  const bool over_budget = snap->bytes > options_.max_bytes;
  if (span.active()) {
    span.annotate("bytes", static_cast<std::uint64_t>(snap->bytes));
    if (over_budget) {
      span.annotate("admitted", std::string("over-budget"));
    } else {
      span.annotate("admitted", true);
    }
  }
  if (!over_budget) admit_local(key, snap, nullptr);
  // Publish to the second-level tier even when over the local budget: the
  // tier has its own (typically larger) budget and serves every peer.
  if (options_.second_level != nullptr) publish(key, *snap);
}

void FlowCache::publish(const util::Digest& key, const Snapshot& snap) {
  CacheTier& tier = *options_.second_level;
  // Addresses already known for resident artifacts skip serialization.
  ArtifactAddresses addresses{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    for_each_artifact(snap.artifacts, [&](std::size_t slot, const auto& p) {
      const auto it = p ? resident_.find(p.get()) : resident_.end();
      if (it != resident_.end() && it->second.address) {
        addresses[slot] = *it->second.address;
      }
    });
  }
  bool learned = false;
  for_each_artifact(snap.artifacts, [&](std::size_t slot, const auto& p) {
    if (!p) return;
    std::vector<std::uint8_t> blob;
    if (addresses[slot] == util::Digest{}) {
      blob = artifact_blob(snap.artifacts, slot);
      addresses[slot] = artifact_address(slot, blob, addresses);
      learned = true;
    }
    if (tier.contains(addresses[slot])) return;
    if (blob.empty()) blob = artifact_blob(snap.artifacts, slot);
    tier.publish(addresses[slot], blob);
  });
  if (learned) {
    std::lock_guard<std::mutex> lock(mu_);
    remember_addresses_locked(snap.artifacts, addresses);
  }
  if (!tier.contains(key)) {
    tier.publish(key, serialize_manifest(snap.artifacts, snap.steps, addresses));
  }
}

void FlowCache::admit_local(const util::Digest& key,
                            std::shared_ptr<const Snapshot> snap,
                            const ArtifactAddresses* addresses) {
  if (snap->bytes > options_.max_bytes) return;  // would evict everything
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  // Charge the snapshot's own values, plus each artifact no resident
  // snapshot holds yet.
  bytes_ += snap->value_bytes;
  for_each_artifact(snap->artifacts, [&](std::size_t slot, const auto& p) {
    if (!p) return;
    Resident& r = resident_[p.get()];
    if (r.snapshots++ == 0) {
      r.object = p;
      r.bytes = snap->artifact_bytes[slot];
      bytes_ += r.bytes;
    }
  });
  if (addresses != nullptr) remember_addresses_locked(snap->artifacts, *addresses);
  lru_.push_front(key);
  index_.emplace(key, Entry{lru_.begin(), std::move(snap)});
  ++stores_;
  evict_to_budget_locked();
}

void FlowCache::remember_addresses_locked(const FlowArtifacts& a,
                                          const ArtifactAddresses& addresses) {
  for_each_artifact(a, [&](std::size_t slot, const auto& p) {
    const auto it = p ? resident_.find(p.get()) : resident_.end();
    if (it == resident_.end() || it->second.address) return;
    it->second.address = addresses[slot];
    by_address_.emplace(addresses[slot], p.get());
  });
}

void FlowCache::evict_to_budget_locked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const auto it = index_.find(lru_.back());
    lru_.pop_back();
    if (it == index_.end()) continue;
    // Release the snapshot's values, and each artifact it held last.
    const Snapshot& snap = *it->second.snapshot;
    bytes_ -= snap.value_bytes;
    for_each_artifact(snap.artifacts, [&](std::size_t, const auto& p) {
      const auto r = p ? resident_.find(p.get()) : resident_.end();
      if (r == resident_.end() || --r->second.snapshots > 0) return;
      bytes_ -= r->second.bytes;
      if (r->second.address) {
        const auto a = by_address_.find(*r->second.address);
        if (a != by_address_.end() && a->second == p.get()) by_address_.erase(a);
      }
      resident_.erase(r);
    });
    index_.erase(it);
    ++evictions_;
  }
}

bool FlowCache::contains(const util::Digest& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  resident_.clear();
  by_address_.clear();
  bytes_ = 0;
}

FlowCache::Stats FlowCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.stores = stores_;
  s.evictions = evictions_;
  s.remote_hits = remote_hits_;
  s.remote_errors = remote_errors_;
  s.bytes = bytes_;
  s.entries = index_.size();
  return s;
}

}  // namespace eurochip::flow
