// Consistent-hash front-end router for a federated multi-hub service.
//
// The paper's Recommendation 7 platform, scaled out: when one JobServer is
// not enough, a federation runs several and needs a stable answer to
// "which hub owns this submission?". The router shards by the
// (node, design) identity digest on a consistent-hash ring: each hub
// contributes `vnodes` virtual points, a key maps to the first point at or
// after its hash. Adding/removing one hub remaps only the keys whose
// nearest point changed — about 1/N of the space — so a hub joining or
// leaving does not reshuffle every design's cache locality.
//
// Sharding by (node, design) is deliberate: all submissions of one design
// on one node land on the same hub, so that hub's L1 FlowCache collects
// the design's step entries and its circuit breaker sees the design's
// full failure history. Work stealing (federation.hpp) then smooths the
// load imbalance this locality costs.
//
// Availability: each hub carries a weight in [0, 1] controlling how many of
// its vnodes are active. The health layer sets weight 0 when a hub is
// declared down (its keys fall through to the next live point on the ring)
// and ramps the weight back up as a rejoining hub proves consecutive
// healthy heartbeats, so a cold-L1 returner takes traffic gradually
// instead of all at once. At full weight the mapping is identical to the
// unweighted ring, so cross-topology determinism is unaffected.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "eurochip/util/digest.hpp"

namespace eurochip::fed {

class Router {
 public:
  struct Options {
    /// Virtual points per hub. More points = smoother key distribution at
    /// the cost of a larger ring (lookup stays O(log(hubs * vnodes))).
    int vnodes = 64;
    /// Absorbed into every ring-point hash, so two federations with the
    /// same hub count still shard differently when seeded apart.
    std::uint64_t seed = 0;
  };

  explicit Router(std::size_t num_hubs) : Router(num_hubs, Options{}) {}
  Router(std::size_t num_hubs, Options options);

  /// The shard key of a submission: H(node_name, design_name). Stable
  /// across processes (util::Hasher is platform-independent).
  [[nodiscard]] static util::Digest shard_key(const std::string& node_name,
                                              const std::string& design_name);

  /// Hub index owning `key` — deterministic for a fixed (hub count,
  /// options, weights). Points of masked vnodes are skipped; if every
  /// vnode of every hub is masked (total outage) the unweighted mapping
  /// is used as a last resort so the answer stays well-defined.
  [[nodiscard]] std::size_t hub_for(const util::Digest& key) const;

  /// Sets `hub`'s routing weight in [0, 1]: ceil(weight * vnodes) of its
  /// points stay active. 0 removes the hub from the ring (failover), 1
  /// restores the full unweighted mapping. Thread-safe.
  void set_weight(std::size_t hub, double weight);

  /// Fraction of `hub`'s vnodes currently active.
  [[nodiscard]] double weight(std::size_t hub) const;

  [[nodiscard]] std::size_t num_hubs() const { return num_hubs_; }

 private:
  struct Point {
    std::uint64_t pos = 0;
    std::uint32_t hub = 0;
    /// Per-hub vnode ordinal; active iff vnode < active_[hub].
    std::uint32_t vnode = 0;
  };

  std::size_t num_hubs_;
  int vnodes_ = 0;
  /// Ring points sorted by position.
  std::vector<Point> ring_;
  /// Guards active_ against concurrent set_weight/hub_for (the ring
  /// itself is immutable after construction).
  mutable std::mutex mu_;
  /// Active vnode count per hub.
  std::vector<int> active_;
};

}  // namespace eurochip::fed
