#include "eurochip/fed/remote_cache.hpp"

#include <chrono>
#include <thread>

#include "eurochip/util/fault.hpp"

namespace eurochip::fed {

double RemoteCache::charge_transfer(std::size_t bytes) {
  double cost_ms = options_.latency_ms;
  if (options_.bandwidth_mb_per_s > 0.0) {
    cost_ms += static_cast<double>(bytes) /
               (1000.0 * options_.bandwidth_mb_per_s);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.simulated_network_ms += cost_ms;
  }
  if (options_.sleep_on_transfer && cost_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(cost_ms));
  }
  return cost_ms;
}

bool RemoteCache::fetch(const util::Digest& key,
                        std::vector<std::uint8_t>* out) {
  // Fault site "fed.remote.fetch": a status fault models the remote tier
  // being unreachable — degrade to a miss, never fail the caller.
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("fed.remote.fetch").ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.fetch_misses;
      return false;
    }
  }
  std::shared_ptr<const std::vector<std::uint8_t>> blob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.fetch_misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    blob = it->second.blob;
    ++stats_.fetch_hits;
    stats_.bytes_fetched += blob->size();
  }
  charge_transfer(blob->size());
  *out = *blob;  // copy outside the lock — the wire never aliases storage
  // Fault site "fed.remote.corrupt": flip one byte of the fetched COPY
  // (storage stays intact), proving the entry digest trailer turns
  // wire corruption into a plain miss downstream.
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("fed.remote.corrupt").ok() && !out->empty()) {
      (*out)[out->size() / 2] ^= 0x5Au;
    }
  }
  return true;
}

void RemoteCache::publish(const util::Digest& key,
                          const std::vector<std::uint8_t>& bytes) {
  // Fault site "fed.remote.publish": a status fault drops the publish —
  // fire-and-forget by contract, so the caller never notices.
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("fed.remote.publish").ok()) return;
  }
  if (bytes.size() > options_.max_bytes) return;  // would evict everything
  charge_transfer(bytes.size());
  auto blob = std::make_shared<const std::vector<std::uint8_t>>(bytes);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Content-addressed: same key = same bytes; just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    ++stats_.publish_dupes;
    return;
  }
  lru_.push_front(key);
  bytes_ += blob->size();
  stats_.bytes_published += blob->size();
  index_.emplace(key, Entry{lru_.begin(), std::move(blob)});
  ++stats_.publishes;
  evict_to_budget_locked();
}

void RemoteCache::evict_to_budget_locked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const util::Digest victim = lru_.back();
    const auto it = index_.find(victim);
    if (it != index_.end()) {
      bytes_ -= it->second.blob->size();
      index_.erase(it);
      ++stats_.evictions;
    }
    lru_.pop_back();
  }
}

bool RemoteCache::contains(const util::Digest& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

void RemoteCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

RemoteCache::Stats RemoteCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.bytes = bytes_;
  s.entries = index_.size();
  return s;
}

}  // namespace eurochip::fed
