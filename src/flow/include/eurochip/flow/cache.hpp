// FlowCache: a thread-safe, content-addressed, byte-budgeted (LRU) cache
// of per-stage flow artifacts, shared by all hub::JobServer workers.
//
// Motivation (paper Recommendations 4/7): a shared enablement hub runs the
// same flow templates over and over — campaigns, PPA sweeps, tiered-access
// traces resubmit identical stage prefixes hundreds of times. Instead of
// recomputing RTL->GDSII from scratch per job, FlowTemplate::execute keys
// every step with a stable digest chain
//
//   key_0   = H(design digest, node digest)
//   key_i   = H(key_{i-1}, step name, stage-relevant FlowConfig knobs)
//
// and consults the cache deepest-prefix-first: a hit restores the cached
// FlowContext snapshot and execution resumes at the first stale step.
// After each completed step the post-step snapshot is stored under that
// step's key.
//
// Snapshots share artifacts: the heap artifacts of FlowArtifacts are
// immutable (shared_ptr<const T>), so a snapshot is a copy of their
// pointers plus the value reports and step records, and store and restore
// copy pointers, not artifacts. A restored run that changes an artifact
// builds a new one (see flow.hpp), so nothing a snapshot points at is ever
// written.
//
// Thread-safety: all public methods are safe from any thread. One mutex
// guards the index/LRU list and the resident-artifact table; snapshots are
// immutable once stored (shared_ptr<const Snapshot>), so a restore copies
// pointers out of a snapshot that eviction cannot free under it.
//
// Eviction: strict LRU over an approximate byte budget (Options::max_bytes,
// sized via approx_bytes estimates of the artifact containers). Each
// distinct artifact is charged once, however many snapshots share it, and
// its bytes are released when the last snapshot holding it is evicted. A
// snapshot larger than the whole budget is not admitted. Keys are 128-bit
// content digests (util::Digest); collisions are cache-poisoning, not
// correctness hazards the design accepts silently — at 128 bits they are
// negligible.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::flow {

/// A second-level snapshot store behind a FlowCache — in a federation, the
/// remote cache tier shared by all hubs (fed::RemoteCache). It holds two
/// kinds of value (serialize.hpp): a manifest under each step key (the same
/// content digests as the L1), and one blob per artifact under the
/// artifact's content address. Implementations must be safe to call from
/// any thread.
///
/// The contract is deliberately lossy: fetch() may miss for any reason
/// (eviction, network fault, corruption) and publish() is fire-and-forget —
/// FlowCache treats the tier as an optimization, never as ground truth.
class CacheTier {
 public:
  virtual ~CacheTier() = default;

  /// On hit, fills `out` with the stored bytes and returns true.
  virtual bool fetch(const util::Digest& key,
                     std::vector<std::uint8_t>* out) = 0;

  /// Offers `bytes` for storage under `key`. May be dropped silently.
  virtual void publish(const util::Digest& key,
                       const std::vector<std::uint8_t>& bytes) = 0;

  /// True if `key` is resident, without fetching (no side effects). The
  /// default says no — a tier that cannot answer cheaply just makes
  /// resumability probes (FlowTemplate::cached_prefix_depth) conservative.
  [[nodiscard]] virtual bool contains(const util::Digest& key) const {
    (void)key;
    return false;
  }
};

class FlowCache {
 public:
  struct Options {
    /// Approximate cap on resident snapshot bytes. LRU entries are evicted
    /// until the estimate fits.
    std::size_t max_bytes = 256u << 20;
    /// Optional second-level tier (borrowed; must outlive the cache). On a
    /// local miss, lookup() fetches the key's manifest, reuses the
    /// artifacts it names that are resident here, fetches and verifies the
    /// rest, and re-admits the snapshot locally. store() publishes the
    /// artifacts the tier lacks, then the manifest. A manifest or blob
    /// that is missing or fails to verify or decode (truncation,
    /// corruption, version skew) counts as remote_errors and degrades to a
    /// plain miss.
    CacheTier* second_level = nullptr;
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< lookup() found the key locally
    std::uint64_t misses = 0;      ///< lookup() probes that found nothing
    std::uint64_t stores = 0;      ///< snapshots admitted
    std::uint64_t evictions = 0;   ///< entries dropped for the byte budget
    std::uint64_t remote_hits = 0;    ///< misses rescued by second_level
    std::uint64_t remote_errors = 0;  ///< tier bytes that failed to decode
    std::size_t bytes = 0;  ///< resident estimate, each artifact once
    std::size_t entries = 0;       ///< current entry count
  };

  FlowCache();  ///< default Options
  explicit FlowCache(Options options);
  ~FlowCache();

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  /// On hit, copies the stored snapshot into `ctx` (artifact pointers,
  /// value reports and step records; `ctx.artifacts.design` is left
  /// untouched) and returns true. On miss returns false and leaves `ctx`
  /// unchanged.
  bool lookup(const util::Digest& key, FlowContext& ctx);

  /// Admits a snapshot of `ctx` under `key`, sharing its artifacts. No-op
  /// (LRU touch only) if the key is already present; no-op if the snapshot
  /// alone exceeds the byte budget.
  void store(const util::Digest& key, const FlowContext& ctx);

  /// True if `key` is resident (no LRU touch, no restore).
  [[nodiscard]] bool contains(const util::Digest& key) const;

  /// The second-level tier this cache was built over (null if none).
  [[nodiscard]] CacheTier* second_level() const {
    return options_.second_level;
  }

  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t max_bytes() const { return options_.max_bytes; }

 private:
  struct Snapshot;
  /// One heap artifact held by resident snapshots, keyed by its address in
  /// memory and charged to the budget once.
  struct Resident {
    std::shared_ptr<const void> object;
    std::size_t bytes = 0;
    std::size_t snapshots = 0;  ///< resident snapshots that hold it
    std::optional<util::Digest> address;  ///< L2 address, once known
  };

  /// Wraps artifact pointers and step records in a sized snapshot.
  static std::shared_ptr<const Snapshot> make_snapshot(
      FlowArtifacts artifacts, std::vector<StepRecord> steps);
  static void restore(const Snapshot& snap, FlowContext& ctx);

  /// Rebuilds the snapshot stored under `key` from the second-level tier;
  /// null (counted, and annotated on `span`) on a miss or a remote error.
  std::shared_ptr<const Snapshot> fetch_remote(const util::Digest& key,
                                               util::trace::Span& span);

  /// Publishes `snap` to the second-level tier: the artifacts it lacks,
  /// then the manifest under `key`.
  void publish(const util::Digest& key, const Snapshot& snap);

  /// Admits an already-built snapshot under the L1 policy (presence check,
  /// budget check, LRU insert), recording `addresses` (may be null) for
  /// its artifacts. Shared by store() and the L2 re-admission path; does
  /// NOT publish to second_level.
  void admit_local(const util::Digest& key,
                   std::shared_ptr<const Snapshot> snap,
                   const ArtifactAddresses* addresses);

  /// Records the L2 address of each resident artifact of `a` that has none.
  void remember_addresses_locked(const FlowArtifacts& a,
                                 const ArtifactAddresses& addresses);
  void evict_to_budget_locked();

  Options options_;
  mutable std::mutex mu_;
  /// MRU at front. The map owns iterators into this list.
  std::list<util::Digest> lru_;
  struct Entry {
    std::list<util::Digest>::iterator lru_it;
    std::shared_ptr<const Snapshot> snapshot;
  };
  std::unordered_map<util::Digest, Entry, util::DigestHash> index_;
  std::unordered_map<const void*, Resident> resident_;
  /// L2 address -> one resident artifact stored under it.
  std::unordered_map<util::Digest, const void*, util::DigestHash> by_address_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t remote_errors_ = 0;
};

}  // namespace eurochip::flow
