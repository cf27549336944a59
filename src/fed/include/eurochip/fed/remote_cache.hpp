// RemoteCache: the federation's shared second-level entry store.
//
// Implements flow::CacheTier over an in-process LRU of byte blobs — one
// sealed cache entry per step key (flow/serialize.hpp, wire v5) — standing
// in for the remote artifact service a multi-site federation would deploy.
// An entry holds only what its step wrote, so a hub publishes only the
// steps it executed. Because the tier stores *bytes*, every fetch pays the
// serialize/deserialize round trip the real network path would, and a hub
// never aliases another hub's in-memory artifacts through it: a fetched
// entry is decoded against the fetching run's own upstream artifacts.
//
// Network-cost model: each fetch/publish is charged
//     cost_ms = latency_ms + bytes / (1000 * bandwidth_mb_per_s)
// accumulated into Stats::simulated_network_ms (and, when
// Options::sleep_on_transfer is set, actually slept — for benches that
// want wall-clock realism). The model is deliberately simple: the point
// is to make L2 hits visibly non-free relative to L1 hits, not to model
// TCP.
//
// Fault sites (chaos testing, see util::FaultInjector):
//   * "fed.remote.fetch"   — a status fault degrades the fetch to a miss;
//   * "fed.remote.publish" — a status fault drops the publish;
//   * "fed.remote.corrupt" — a status fault flips a byte in the fetched
//     copy, exercising the reader's digest-trailer rejection end to end.
//
// Thread-safety: all methods safe from any thread; one mutex guards the
// index/LRU. Blobs are shared_ptr<const ...>, so a fetch copies out of a
// stable blob even if a concurrent publish evicts the entry.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/util/digest.hpp"

namespace eurochip::fed {

class RemoteCache : public flow::CacheTier {
 public:
  struct Options {
    /// Byte budget over stored blob sizes (LRU eviction).
    std::size_t max_bytes = 512u << 20;
    /// Per-operation latency floor, milliseconds.
    double latency_ms = 0.2;
    /// Simulated link bandwidth; <= 0 disables the size-dependent term.
    double bandwidth_mb_per_s = 1000.0;
    /// Actually sleep for the modeled cost (benches); off = account only.
    bool sleep_on_transfer = false;
  };

  struct Stats {
    std::uint64_t fetch_hits = 0;
    std::uint64_t fetch_misses = 0;
    std::uint64_t publishes = 0;       ///< blobs admitted
    std::uint64_t publish_dupes = 0;   ///< key already present (LRU touch)
    std::uint64_t evictions = 0;
    std::uint64_t bytes_fetched = 0;   ///< payload bytes served
    std::uint64_t bytes_published = 0; ///< payload bytes admitted
    double simulated_network_ms = 0.0; ///< accumulated transfer cost
    std::size_t bytes = 0;             ///< resident blob bytes
    std::size_t entries = 0;
  };

  RemoteCache() = default;
  explicit RemoteCache(Options options) : options_(options) {}

  RemoteCache(const RemoteCache&) = delete;
  RemoteCache& operator=(const RemoteCache&) = delete;

  // flow::CacheTier
  bool fetch(const util::Digest& key,
             std::vector<std::uint8_t>* out) override;
  void publish(const util::Digest& key,
               const std::vector<std::uint8_t>& bytes) override;

  [[nodiscard]] bool contains(const util::Digest& key) const override;
  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t max_bytes() const { return options_.max_bytes; }

 private:
  /// Transfer-cost model; also sleeps when configured. Called outside mu_.
  double charge_transfer(std::size_t bytes);
  void evict_to_budget_locked();

  Options options_;
  mutable std::mutex mu_;
  std::list<util::Digest> lru_;  ///< MRU at front
  struct Entry {
    std::list<util::Digest>::iterator lru_it;
    std::shared_ptr<const std::vector<std::uint8_t>> blob;
  };
  std::unordered_map<util::Digest, Entry, util::DigestHash> index_;
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace eurochip::fed
