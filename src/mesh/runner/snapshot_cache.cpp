#include "mesh/runner/snapshot_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mesh/common/assert.hpp"

namespace mesh::runner {
namespace {

void appendDouble(std::string& out, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, value);
  out += buf;
}

void appendUint(std::string& out, const char* name, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu;", name,
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

std::string SnapshotCache::keyFor(const harness::ScenarioConfig& config) {
  // Exact serialization, not a hash: collisions would silently hand a run
  // the wrong world, and the handful of sweep keys makes string compares
  // free. Anything the snapshot's contents depend on must appear here —
  // placement inputs, the channel plan, gateway selection, and every phy
  // parameter the reachability rows are a function of.
  std::string key;
  key.reserve(256);
  appendUint(key, "seed", config.seed);
  appendUint(key, "n", config.nodeCount);
  appendDouble(key, "w", config.areaWidthM);
  appendDouble(key, "h", config.areaHeightM);
  appendUint(key, "fading", config.rayleighFading ? 1 : 0);
  appendUint(key, "conn", config.ensureConnected ? 1 : 0);
  appendUint(key, "place", static_cast<std::uint64_t>(config.placement));
  appendUint(key, "ch", config.channels);
  appendUint(key, "assign", static_cast<std::uint64_t>(config.channelAssign));
  appendUint(key, "gw", config.gateways);
  appendUint(key, "gwsel", static_cast<std::uint64_t>(config.gatewaySelect));
  key += "gwnodes=";
  for (net::NodeId id : config.gatewayNodes) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%u,", static_cast<unsigned>(id));
    key += buf;
  }
  key += ';';
  const phy::PhyParams& phy = config.node.phy;
  appendDouble(key, "txp", phy.txPowerW);
  appendDouble(key, "gtx", phy.antennaGainTx);
  appendDouble(key, "grx", phy.antennaGainRx);
  appendDouble(key, "sysl", phy.systemLoss);
  appendDouble(key, "ah", phy.antennaHeightM);
  appendDouble(key, "freq", phy.frequencyHz);
  appendDouble(key, "rxthr", phy.rxThresholdW);
  appendDouble(key, "csthr", phy.csThresholdW);
  return key;
}

std::size_t SnapshotCache::defaultBudgetBytes() {
  constexpr std::size_t kDefaultMb = 512;
  std::size_t mb = kDefaultMb;
  if (const char* env = std::getenv("MESH_TOPOLOGY_CACHE_MB")) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      mb = static_cast<std::size_t>(parsed);
    }
  }
  return mb * std::size_t{1024} * std::size_t{1024};
}

std::optional<bool> SnapshotCache::enabledFromEnvironment() {
  const char* env = std::getenv("MESH_TOPOLOGY_CACHE");
  if (env == nullptr) return std::nullopt;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
      std::strcmp(env, "false") == 0) {
    return false;
  }
  if (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0 ||
      std::strcmp(env, "true") == 0) {
    return true;
  }
  return std::nullopt;
}

SnapshotCache::SnapshotCache(std::size_t budgetBytes)
    : budgetBytes_{budgetBytes} {}

TopologySnapshotPtr SnapshotCache::acquire(const std::string& key,
                                           bool& shouldBuild) {
  std::unique_lock<std::mutex> lock{mutex_};
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      // First claimant: insert a Building entry and let the caller build.
      entries_.emplace(key, Entry{});
      shouldBuild = true;
      return nullptr;
    }
    if (it->second.ready) {
      lru_.splice(lru_.begin(), lru_, it->second.lruPos);
      ++stats_.reused;
      shouldBuild = false;
      return it->second.snapshot;
    }
    // A builder owns the key; wait for publish (notifies) or abandon
    // (erases + notifies, in which case the loop re-claims).
    ready_.wait(lock);
  }
}

void SnapshotCache::publish(const std::string& key,
                            TopologySnapshotPtr snapshot) {
  MESH_REQUIRE(snapshot != nullptr);
  std::lock_guard<std::mutex> lock{mutex_};
  auto it = entries_.find(key);
  MESH_REQUIRE(it != entries_.end() && !it->second.ready);
  it->second.ready = true;
  it->second.snapshot = std::move(snapshot);
  it->second.bytes = it->second.snapshot->approxBytes();
  lru_.push_front(key);
  it->second.lruPos = lru_.begin();
  stats_.bytes += it->second.bytes;
  ++stats_.built;
  evictOverBudget();
  ready_.notify_all();
}

void SnapshotCache::abandon(const std::string& key) {
  std::lock_guard<std::mutex> lock{mutex_};
  auto it = entries_.find(key);
  MESH_REQUIRE(it != entries_.end() && !it->second.ready);
  entries_.erase(it);
  ++stats_.failed;
  ready_.notify_all();
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

void SnapshotCache::evictOverBudget() {
  // Keep at least the newest entry resident regardless of budget — a
  // single oversized world must still be shareable within its own seed.
  while (stats_.bytes > budgetBytes_ && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    MESH_REQUIRE(it != entries_.end() && it->second.ready);
    stats_.bytes -= it->second.bytes;
    ++stats_.evicted;
    entries_.erase(it);  // adopters' shared_ptrs keep the world alive
    lru_.pop_back();
  }
}

}  // namespace mesh::runner
