// FlowCache: a thread-safe, content-addressed, byte-budgeted (LRU) cache
// of flow step results, shared by all hub::JobServer workers.
//
// Motivation (paper Recommendations 4/7): a shared enablement hub runs the
// same flow templates over and over — campaigns, PPA sweeps, tiered-access
// traces resubmit near-identical flows hundreds of times. Instead of
// recomputing RTL->GDSII from scratch per job, FlowTemplate::execute keys
// every step by what it reads (FlowStep::reads):
//
//   base  = H(design digest, node digest)
//   key_i = H(base, step name, stage-relevant FlowConfig knobs,
//             key of the last writer of each slot step i reads)
//
// and walks the steps once: a step whose key the cache holds is restored,
// any other step runs and stores its entry. So a knob change reruns only
// the steps that read, directly or through an artifact, what it changed —
// a power-only variant reruns power alone.
//
// One entry per executed step: the slots the step wrote (FlowStep::writes),
// the upstream artifacts those point into (mapped -> library, placed ->
// mapped -> library, routed -> placed -> mapped -> library), and the
// step's record. The heap artifacts are immutable (shared_ptr<const T>),
// so store and restore copy pointers, not artifacts, and a restored run
// that changes an artifact builds a new one (see flow.hpp). Holding the
// upstream chain keeps an entry valid on its own: evicting the entry that
// wrote the netlist cannot free the netlist a resident placement points
// at, and a restore installs the chain with the artifact.
//
// Thread-safety: all public methods are safe from any thread. One mutex
// guards the index/LRU list and the resident-artifact table; entries are
// immutable once stored (shared_ptr<const Entry>), so a restore copies
// pointers out of an entry that eviction cannot free under it.
//
// Eviction: strict LRU over an approximate byte budget (Options::max_bytes,
// sized via approx_bytes estimates of the artifact containers). Each
// distinct artifact is charged once, however many entries hold it, and its
// bytes are released when the last entry holding it is evicted. An entry
// larger than the whole budget is not admitted. Keys are 128-bit content
// digests (util::Digest); collisions are cache-poisoning, not correctness
// hazards the design accepts silently — at 128 bits they are negligible.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "eurochip/flow/flow.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::flow {

/// A second-level entry store behind a FlowCache — in a federation, the
/// remote cache tier shared by all hubs (fed::RemoteCache). It holds one
/// sealed value per step key (serialize.hpp), under the same digests as
/// the L1. Implementations must be safe to call from any thread.
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
    /// Approximate cap on resident entry bytes. LRU entries are evicted
    /// until the estimate fits.
    std::size_t max_bytes = 256u << 20;
    /// Optional second-level tier (borrowed; must outlive the cache). On a
    /// local miss, lookup() fetches the key's entry, decodes it against
    /// the caller's upstream artifacts and re-admits it locally. store()
    /// publishes the entry when the tier lacks the key. An entry that
    /// fails to verify or decode (truncation, corruption, version skew, a
    /// value served under another key) counts as remote_errors and
    /// degrades to a plain miss.
    CacheTier* second_level = nullptr;
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< lookup() found the key locally
    std::uint64_t misses = 0;      ///< lookup() probes that found nothing
    std::uint64_t stores = 0;      ///< entries admitted
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

  /// On hit, restores the step stored under `key` into `ctx`: its heap
  /// artifacts and their upstream chain (a written slot the step left
  /// null comes back null), its written value reports, and its record,
  /// appended to ctx.steps with `cached` set. A fetch from the second
  /// level decodes against ctx's upstream artifacts. On miss returns false
  /// and leaves `ctx` unchanged.
  bool lookup(const util::Digest& key, FlowContext& ctx);

  /// Admits the entry of the step that just ran on `ctx`: the `writes`
  /// slots of ctx.artifacts, the upstream artifacts they point into, and
  /// the step's record (ctx.steps.back()). No-op (LRU touch only) if the
  /// key is already present; not admitted locally if the entry alone
  /// exceeds the byte budget.
  void store(const util::Digest& key, const FlowContext& ctx,
             ArtifactMask writes);

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
  struct Entry;
  /// One heap artifact held by resident entries, keyed by its address in
  /// memory and charged to the budget once.
  struct Resident {
    std::shared_ptr<const void> object;
    std::size_t bytes = 0;
    std::size_t entries = 0;  ///< resident entries that hold it
  };

  /// Wraps the written slots of `artifacts`, their upstream chain and
  /// `record` in a sized entry.
  static std::shared_ptr<const Entry> make_entry(const FlowArtifacts& artifacts,
                                                 ArtifactMask writes,
                                                 StepRecord record);
  static void restore(const Entry& entry, FlowContext& ctx);

  /// Rebuilds the entry stored under `key` from the second-level tier,
  /// decoded against the upstream artifacts of `ctx`; null (counted, and
  /// annotated on `span`) on a miss or a remote error.
  std::shared_ptr<const Entry> fetch_remote(const util::Digest& key,
                                            const FlowContext& ctx,
                                            util::trace::Span& span);

  /// Admits an already-built entry under the L1 policy (presence check,
  /// budget check, LRU insert). Shared by store() and the L2 re-admission
  /// path; does NOT publish to second_level.
  void admit_local(const util::Digest& key, std::shared_ptr<const Entry> entry);
  void evict_to_budget_locked();

  Options options_;
  mutable std::mutex mu_;
  /// MRU at front. The map owns iterators into this list.
  std::list<util::Digest> lru_;
  struct Indexed {
    std::list<util::Digest>::iterator lru_it;
    std::shared_ptr<const Entry> entry;
  };
  std::unordered_map<util::Digest, Indexed, util::DigestHash> index_;
  std::unordered_map<const void*, Resident> resident_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t remote_errors_ = 0;
};

}  // namespace eurochip::flow
