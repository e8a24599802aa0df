#pragma once
// SnapshotCache: build-once, copy-on-write topology worlds for sweeps
// (DESIGN §14).
//
// A comparison sweep runs N protocols × T topology seeds; everything the
// topology seed alone determines — placement, the spatial grid, the frozen
// per-pair link rows, the channel plan, the gateway roster — used to be
// rebuilt N times per seed. The cache keys harness::TopologySnapshot
// instances by the serialized topology-relevant config subset (seed
// included): the first run of a key builds the world, captures it, and
// publishes; concurrent runs of the same key block until the snapshot is
// ready, then adopt it without copying. Runs whose scenario is ineligible
// (mobility, custom link models — see harness::snapshotEligible) bypass
// the cache entirely and are reported as snapshot "off".
//
// Results are byte-identical with the cache on or off: reachability
// builds draw no RNG, Rng::fork is const (skipping placement draws
// perturbs no other stream), and the Channel's copy-on-write row views
// keep one run's faults invisible to siblings. MESH_TOPOLOGY_CACHE=off is
// the escape hatch; MESH_TOPOLOGY_CACHE_MB bounds resident snapshot bytes
// — least recently used Ready entries are evicted once the budget is
// exceeded (adopters holding the shared_ptr keep evicted worlds alive
// until they finish).

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "mesh/harness/scenario.hpp"
#include "mesh/harness/topology_snapshot.hpp"

namespace mesh::runner {

// The issue-facing name: the snapshot type itself lives in harness
// (Simulation must adopt it, and runner sits above harness in the link
// order), aliased here so runner code reads as specified.
using TopologySnapshot = harness::TopologySnapshot;
using TopologySnapshotPtr = harness::TopologySnapshotPtr;

class SnapshotCache {
 public:
  struct Stats {
    std::uint64_t built{0};    // worlds built and published
    std::uint64_t reused{0};   // acquire() hits (including wait-for-build)
    std::uint64_t failed{0};   // builder abandoned (construction threw)
    std::uint64_t evicted{0};  // Ready entries dropped for the budget
    std::size_t bytes{0};      // resident snapshot bytes
  };

  explicit SnapshotCache(std::size_t budgetBytes = defaultBudgetBytes());

  // Serializes the topology-relevant config subset — every field the
  // snapshot's contents are a function of, seed included. Equal keys imply
  // identical worlds; differing protocol/traffic/duration/faults/rate
  // fields deliberately do not enter the key, which is the whole point of
  // sharing.
  static std::string keyFor(const harness::ScenarioConfig& config);

  // ~512 MiB unless MESH_TOPOLOGY_CACHE_MB overrides it.
  static std::size_t defaultBudgetBytes();
  // MESH_TOPOLOGY_CACHE: "off"/"0"/"false" disables, "on"/"1"/"true"
  // enables; nullopt when unset/unrecognized (caller falls back to the
  // BenchOptions knob).
  static std::optional<bool> enabledFromEnvironment();

  // Returns the snapshot for `key`, blocking while another worker builds
  // it. When the key is absent the caller becomes the builder:
  // `shouldBuild` is set and null is returned — the caller MUST then
  // publish() or abandon() exactly once, or every later acquire() of the
  // key deadlocks.
  TopologySnapshotPtr acquire(const std::string& key, bool& shouldBuild);
  void publish(const std::string& key, TopologySnapshotPtr snapshot);
  // Builder's failure path: drops the claim so waiters (and retries) each
  // proceed to build standalone — a broken config fails per-run, exactly
  // like the rebuild-every-run path.
  void abandon(const std::string& key);

  Stats stats() const;

 private:
  struct Entry {
    bool ready{false};  // false: a builder owns it, waiters block
    TopologySnapshotPtr snapshot;
    std::size_t bytes{0};
    std::list<std::string>::iterator lruPos;  // valid when ready
  };

  void evictOverBudget();  // caller holds mutex_

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used, Ready only
  std::size_t budgetBytes_;
  Stats stats_;
};

}  // namespace mesh::runner
