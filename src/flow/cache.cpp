#include "eurochip/flow/cache.hpp"

#include <array>

#include "eurochip/flow/serialize.hpp"
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

std::size_t approx_bytes(const StepRecord& record) {
  return sizeof(StepRecord) + record.name.size() + record.detail.size();
}

constexpr ArtifactMask kHeapMask = slot_bit(kHeapSlots) - 1;

/// Copies the slots in `mask` from `from` into `to`.
void copy_slots(const FlowArtifacts& from, ArtifactMask mask,
                FlowArtifacts& to) {
  const auto copy = [mask](std::size_t slot, auto& dst, const auto& src) {
    if (mask & slot_bit(slot)) dst = src;
  };
  copy(kLibrarySlot, to.library, from.library);
  copy(kAigSlot, to.aig, from.aig);
  copy(kMappedSlot, to.mapped, from.mapped);
  copy(kPlacedSlot, to.placed, from.placed);
  copy(kClockTreeSlot, to.clock_tree, from.clock_tree);
  copy(kRoutedSlot, to.routed, from.routed);
  copy(kSymbolsSlot, to.symbols, from.symbols);
  copy(kTimingSlot, to.timing, from.timing);
  copy(kPowerSlot, to.power, from.power);
  copy(kDrcSlot, to.drc, from.drc);
  copy(kGdsSlot, to.gds_bytes, from.gds_bytes);
}

}  // namespace

// --- Entry ---------------------------------------------------------------
//
// What one step wrote: the slots in `held` (its written slots plus the
// upstream chain of its heap artifacts) and its record. `design` is
// deliberately NOT captured — the content digest in the key already
// guarantees the caller's design is equivalent, and holding a borrowed
// pointer would dangle.
struct FlowCache::Entry {
  FlowArtifacts artifacts;  ///< the held slots; every other slot is empty
  ArtifactMask held = 0;
  StepRecord record;        ///< marked cached, ready to append
  std::array<std::size_t, kHeapSlots> artifact_bytes{};
  std::size_t value_bytes = 0;  ///< the entry, its value reports and record
  std::size_t bytes = 0;        ///< stored alone: value_bytes + artifacts
};

FlowCache::FlowCache() : FlowCache(Options{}) {}

FlowCache::FlowCache(Options options) : options_(options) {}

FlowCache::~FlowCache() = default;

std::shared_ptr<const FlowCache::Entry> FlowCache::make_entry(
    const FlowArtifacts& artifacts, ArtifactMask writes, StepRecord record) {
  auto entry = std::make_shared<Entry>();
  // Pin the upstream chain: routed -> placed -> mapped -> library.
  entry->held = writes;
  for (std::size_t slot = kHeapSlots; slot-- > 0;) {
    if ((entry->held & slot_bit(slot)) != 0 &&
        upstream_slot(slot) != kArtifactSlots) {
      entry->held |= slot_bit(upstream_slot(slot));
    }
  }
  copy_slots(artifacts, entry->held, entry->artifacts);
  entry->record = std::move(record);
  entry->record.cached = true;
  const FlowArtifacts& a = entry->artifacts;
  entry->value_bytes = sizeof(Entry) + a.gds_bytes.size() +
                       approx_bytes(entry->record) + approx_bytes(a.timing) +
                       approx_bytes(a.drc);
  entry->bytes = entry->value_bytes;
  for_each_artifact(a, [&](std::size_t slot, const auto& p) {
    if (p) entry->bytes += entry->artifact_bytes[slot] = approx_bytes(*p);
  });
  return entry;
}

void FlowCache::restore(const Entry& entry, FlowContext& ctx) {
  copy_slots(entry.artifacts, entry.held, ctx.artifacts);
  ctx.steps.push_back(entry.record);
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
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      entry = it->second.entry;
      ++hits_;
    } else if (options_.second_level == nullptr) {
      ++misses_;
      if (span.active()) span.annotate("hit", false);
      return false;
    }
  }
  // Local miss: try the second-level tier outside the lock.
  const bool remote = entry == nullptr;
  if (remote && (entry = fetch_remote(key, ctx, span)) == nullptr) return false;
  if (span.active()) {
    if (remote) {
      span.annotate("hit", std::string("remote"));
    } else {
      span.annotate("hit", true);
    }
    span.annotate("bytes", static_cast<std::uint64_t>(entry->bytes));
  }
  // Pointer copies outside the lock; `entry` keeps the entry alive even if
  // a concurrent store evicts it.
  restore(*entry, ctx);
  return true;
}

std::shared_ptr<const FlowCache::Entry> FlowCache::fetch_remote(
    const util::Digest& key, const FlowContext& ctx, util::trace::Span& span) {
  std::vector<std::uint8_t> bytes;
  if (!options_.second_level->fetch(key, &bytes)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    if (span.active()) span.annotate("hit", false);
    return nullptr;
  }
  // The tier is an optimization, never trusted: an entry that fails to
  // verify or decode degrades to a miss. Written artifacts are wired to
  // the upstream artifacts the caller holds, which the key pins.
  FlowArtifacts artifacts;
  copy_slots(ctx.artifacts, kHeapMask, artifacts);
  ArtifactMask writes = 0;
  StepRecord record;
  if (!deserialize_entry(key, bytes, artifacts, writes, record).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++remote_errors_;
    ++misses_;
    if (span.active()) span.annotate("hit", std::string("remote-error"));
    return nullptr;
  }
  std::shared_ptr<const Entry> entry =
      make_entry(artifacts, writes, std::move(record));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++remote_hits_;
  }
  // Re-admit locally so the next lookup skips the network. admit_local
  // does not publish back — the tier just served these bytes.
  admit_local(key, entry);
  return entry;
}

void FlowCache::store(const util::Digest& key, const FlowContext& ctx,
                      ArtifactMask writes) {
  util::trace::Span span;
  if (util::trace::enabled()) span.begin("cache.store", "flow.cache");
  // Fault site "flowcache.store": a status fault skips admission — the
  // flow stays correct, only future lookups lose the entry.
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
  // Build the entry outside the lock. A racing store of the same key is
  // resolved in admit_local: first writer wins.
  std::shared_ptr<const Entry> entry = make_entry(
      ctx.artifacts, writes, ctx.steps.empty() ? StepRecord{} : ctx.steps.back());
  const bool over_budget = entry->bytes > options_.max_bytes;
  if (span.active()) {
    span.annotate("bytes", static_cast<std::uint64_t>(entry->bytes));
    if (over_budget) {
      span.annotate("admitted", std::string("over-budget"));
    } else {
      span.annotate("admitted", true);
    }
  }
  if (!over_budget) admit_local(key, entry);
  // Publish to the second-level tier even when over the local budget: the
  // tier has its own (typically larger) budget and serves every peer.
  CacheTier* tier = options_.second_level;
  if (tier != nullptr && !tier->contains(key)) {
    tier->publish(key, serialize_entry(key, entry->artifacts, writes,
                                       entry->record));
  }
}

void FlowCache::admit_local(const util::Digest& key,
                            std::shared_ptr<const Entry> entry) {
  if (entry->bytes > options_.max_bytes) return;  // would evict everything
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  // Charge the entry's own values, plus each artifact no resident entry
  // holds yet.
  bytes_ += entry->value_bytes;
  for_each_artifact(entry->artifacts, [&](std::size_t slot, const auto& p) {
    if (!p) return;
    Resident& r = resident_[p.get()];
    if (r.entries++ == 0) {
      r.object = p;
      r.bytes = entry->artifact_bytes[slot];
      bytes_ += r.bytes;
    }
  });
  lru_.push_front(key);
  index_.emplace(key, Indexed{lru_.begin(), std::move(entry)});
  ++stores_;
  evict_to_budget_locked();
}

void FlowCache::evict_to_budget_locked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const auto it = index_.find(lru_.back());
    lru_.pop_back();
    if (it == index_.end()) continue;
    // Release the entry's values, and each artifact it held last.
    const Entry& entry = *it->second.entry;
    bytes_ -= entry.value_bytes;
    for_each_artifact(entry.artifacts, [&](std::size_t, const auto& p) {
      const auto r = p ? resident_.find(p.get()) : resident_.end();
      if (r == resident_.end() || --r->second.entries > 0) return;
      bytes_ -= r->second.bytes;
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
