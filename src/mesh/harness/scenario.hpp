#pragma once
// Scenario description and the Simulation that executes it.
//
// A ScenarioConfig captures everything Section 4.1 specifies: 50 static
// nodes placed uniformly at random in 1000 m × 1000 m, TwoRay propagation,
// Rayleigh fading, 2 Mbps, two multicast groups of ten members with CBR
// 512 B × 20 pkt/s sources, 400 s duration, δ = 30 ms, α = 20 ms — plus
// the knobs the paper sweeps (metric, probing rate, number of sources).
//
// The same Simulation also runs the testbed emulation: a custom link-model
// factory replaces random geometry with the Figure 4 floor graph.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mesh/channelplan/channel_plan.hpp"
#include "mesh/common/rng.hpp"
#include "mesh/common/vec2.hpp"
#include "mesh/fault/fault_injector.hpp"
#include "mesh/fault/recovery_analyzer.hpp"
#include "mesh/gateway/gateway_relay.hpp"
#include "mesh/gateway/gateway_set.hpp"
#include "mesh/harness/counters.hpp"
#include "mesh/harness/mesh_node.hpp"
#include "mesh/harness/topology_snapshot.hpp"
#include "mesh/metrics/metric.hpp"
#include "mesh/net/pool.hpp"
#include "mesh/phy/channel.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::harness {

struct GroupSpec {
  net::GroupId group{1};
  std::vector<net::NodeId> sources;
  std::vector<net::NodeId> members;
};

// Which protocol variant runs: the mesh-based ODMRP or the tree-based
// MAODV-inspired protocol (Section 4.3), each original or with a metric.
enum class Routing : std::uint8_t { Odmrp = 0, Tree = 1 };

struct ProtocolSpec {
  // nullopt -> original protocol (no probing, first-query-wins).
  std::optional<metrics::MetricKind> metric;
  double probeRateScale{1.0};
  Routing routing{Routing::Odmrp};
  bool adaptiveProbing{false};

  static ProtocolSpec original() { return {}; }
  static ProtocolSpec with(metrics::MetricKind kind, double rateScale = 1.0) {
    return {kind, rateScale, Routing::Odmrp};
  }
  static ProtocolSpec treeOriginal() {
    return {std::nullopt, 1.0, Routing::Tree};
  }
  static ProtocolSpec tree(metrics::MetricKind kind, double rateScale = 1.0) {
    return {kind, rateScale, Routing::Tree};
  }
  static ProtocolSpec adaptive(metrics::MetricKind kind, double rateScale = 1.0) {
    return {kind, rateScale, Routing::Odmrp, /*adaptiveProbing=*/true};
  }
  std::string name() const {
    std::string base = routing == Routing::Tree ? "TREE" : "ODMRP";
    std::string name;
    if (!metric) {
      name = base;
    } else if (routing == Routing::Tree) {
      name = "T-" + std::string{metrics::toString(*metric)};
    } else {
      name = metrics::toString(*metric);
    }
    if (adaptiveProbing) name += "*";  // adaptive probing marker
    return name;
  }
};

// How random geometric scenarios place their nodes.
//
//  * UniformRejection — the paper's method: uniform positions, re-drawn
//    until the 250 m disk graph is connected. O(n²) per attempt and the
//    acceptance probability drops with n, so it does not scale.
//  * Grid — O(n): one node per cell of a ceil(sqrt(n))-column grid (cells
//    shuffled so node ids carry no spatial information), jittered within
//    the central half of its cell. Adjacent occupied cells stay within
//    250 m at the paper's density (50 nodes/km²: worst case ~224 m), so
//    the disk graph is connected by construction — no rejection loop.
enum class Placement : std::uint8_t { UniformRejection = 0, Grid = 1 };

struct ScenarioConfig {
  std::size_t nodeCount{50};
  double areaWidthM{1000.0};
  double areaHeightM{1000.0};
  bool rayleighFading{true};
  // Reject random placements whose 250 m disk graph is disconnected, so
  // every topology can in principle deliver to every member. Only
  // meaningful with Placement::UniformRejection (Grid is connected by
  // construction).
  bool ensureConnected{true};
  Placement placement{Placement::UniformRejection};
  // 0 = static mesh (the paper's premise). > 0: random-waypoint mobility
  // with speeds in [max/2, max] and short pauses — the MANET regime the
  // bench_mobility extension explores.
  double mobilityMaxSpeedMps{0.0};

  std::vector<GroupSpec> groups;
  app::CbrConfig traffic;  // group id is overridden per GroupSpec

  // Rate adaptation: which controller runs on every node and which 802.11
  // rate set the shared RateTable holds. The defaults (Fixed + Basic) keep
  // the simulator on the legacy single-rate path, bit-identical to the
  // pre-rate code.
  rate::ControlKind rateControl{rate::ControlKind::Fixed};
  rate::RateSetKind rateSet{rate::RateSetKind::Basic};

  // Multi-channel mesh (src/mesh/channelplan): the PHY is partitioned into
  // `channels` orthogonal collision domains — one phy::Channel and one
  // event queue per domain, frames only interact within a domain. 1 (the
  // default) is the paper's single shared channel. More than one requires
  // a static geometric scenario (no mobility, no custom link model), and
  // multicast traffic only flows inside a domain unless gateways carry it
  // across: pick groups channel-locally (makeStripedGroups), or configure
  // `gateways` below and let spanning groups ride the handoff path.
  std::size_t channels{1};
  channelplan::AssignStrategy channelAssign{channelplan::AssignStrategy::Static};
  // Worker threads driving the collision domains in parallel (clamped to
  // [1, channels]). Purely a wall-clock knob: traces, counters and every
  // aggregate are byte-identical for any worker count — the determinism
  // tests pin this.
  std::size_t domainWorkers{1};

  // Cross-domain gateways (src/mesh/gateway): `gateways` nodes get one
  // extra radio per foreign collision domain and relay frames between
  // domains at epoch barriers every `switchSlot`. 0 (the default) builds no
  // relay at all — the channels>1 path stays byte-identical to the
  // gateway-less simulator. `gatewaySelect` picks which nodes serve
  // (ignored when `gatewayNodes` names them explicitly).
  std::size_t gateways{0};
  gateway::GatewaySelect gatewaySelect{gateway::GatewaySelect::EveryK};
  std::vector<net::NodeId> gatewayNodes;  // explicit roster (forces Explicit)
  SimTime switchSlot{SimTime::milliseconds(50)};

  ProtocolSpec protocol;
  SimTime duration{SimTime::seconds(std::int64_t{400})};
  std::uint64_t seed{1};

  // Empty = tracing disabled (hook sites cost one pointer test). Non-empty:
  // every packet-lifecycle event is recorded and exported to this JSONL
  // path when run() finishes; parent directories are created on demand.
  std::string tracePath;

  MeshNodeConfig node;  // phy / mac / odmrp parameter blocks

  // Fault injection (src/mesh/fault). `faults` is an explicit timeline;
  // `churn` additionally generates a seed-defined random schedule at build
  // time (merged into the timeline). Churn victims exclude every source
  // and member so a crash breaks *routes*, not endpoints — the recovery
  // metrics would be meaningless otherwise. Both empty: zero overhead.
  fault::FaultSchedule faults;
  std::optional<fault::ChurnSpec> churn;
  // Non-empty: churn draws victims from this explicit list instead of the
  // complement-of-endpoints default — the §4.1 churn figure uses it to
  // crash actual forwarding-group members discovered in a pilot run.
  std::vector<net::NodeId> churnVictims;

  // Optional: replace geometric placement entirely (testbed emulation).
  // When set, positions are taken from `fixedPositions` (may be empty for
  // display-free models) and the factory's model is used as-is. The
  // simulator reference lets time-varying models read the clock.
  std::function<std::unique_ptr<phy::LinkModel>(sim::Simulator&, Rng&)>
      linkModelFactory;
  std::vector<Vec2> fixedPositions;
};

// Convenience: the paper's Section 4.1 base scenario (before choosing a
// protocol, seed, or source count).
ScenarioConfig paperSimulationScenario();

// The paper scenario scaled to `nodeCount` nodes at the paper's density:
// the area side grows as 1000 m × sqrt(n / 50), so per-node degree matches
// the 50-node baseline. Uses Placement::Grid — O(n) and connected by
// construction, where the paper's rejection sampling becomes hopeless at
// thousands of nodes (set `placement = Placement::UniformRejection` to
// restore the old path). The scale benches and the 500-node robustness
// tests build on this.
ScenarioConfig scaledSimulationScenario(std::size_t nodeCount);

// Picks `groupCount` groups of `membersPerGroup` members and
// `sourcesPerGroup` sources (sources are distinct from members, like the
// paper's testbed setup) uniformly at random.
std::vector<GroupSpec> makeRandomGroups(std::size_t nodeCount,
                                        std::size_t groupCount,
                                        std::size_t membersPerGroup,
                                        std::size_t sourcesPerGroup, Rng& rng);

// Channel-local groups for multi-channel runs with the Static (id mod C)
// assignment: `groupsPerChannel` groups per channel, each drawn from one
// residue class mod `channels` so every group lives inside one collision
// domain. Group ids interleave channels (group g -> channel (g-1) mod C).
// With channels == 1 this degenerates to makeRandomGroups' shape over all
// ids. Draws from `rng` sequentially, so the result is deterministic.
std::vector<GroupSpec> makeStripedGroups(std::size_t nodeCount,
                                         std::size_t channels,
                                         std::size_t groupsPerChannel,
                                         std::size_t membersPerGroup,
                                         std::size_t sourcesPerGroup, Rng& rng);

// Each node runs at most one CBR flow. Returns the diagnostic naming the
// first node that is the source of two (listed twice, or in two groups),
// or "" when there is none.
std::string repeatedSourceError(const std::vector<GroupSpec>& groups);

// Aggregated outcome of one simulation run.
struct RunResults {
  std::uint64_t packetsSent{0};        // CBR packets across all sources
  std::uint64_t expectedDeliveries{0}; // packetsSent × member fan-out
  std::uint64_t packetsDelivered{0};
  double pdr{0.0};                     // delivered / expected
  double throughputBps{0.0};           // payload bits delivered per second
  double meanDelayS{0.0};
  std::uint64_t probeBytesReceived{0};
  std::uint64_t dataBytesReceived{0};
  std::uint64_t controlBytesReceived{0};
  double probeOverheadPct{0.0};        // 100 × probe / data bytes received
  std::uint64_t macBroadcastsSent{0};
  std::uint64_t radioFramesCorrupted{0};
  std::uint64_t eventsExecuted{0};

  // Fault/churn metrics (RecoveryAnalyzer); all zero on fault-free runs.
  std::uint64_t faultsApplied{0};
  std::uint64_t faultsCleared{0};
  double faultWindowS{0.0};
  double inWindowPdr{0.0};
  double outWindowPdr{0.0};
  double overheadInflation{0.0};
  double meanTimeToRepairS{0.0};
  std::uint64_t repairsObserved{0};
  std::uint64_t repairsUnresolved{0};

  // Per-collision-domain counters, indexed by channel. Empty unless the
  // run used channels > 1. Summed over each domain's nodes and gateway
  // ports; `meshtrace verify` cross-checks them against the trace's
  // channel-tagged TxStart/Deliver records.
  std::vector<std::uint64_t> channelFrames;     // radio frames sent
  std::vector<std::uint64_t> channelDelivered;  // packets delivered to sinks

  // Gateway relay totals; zero/empty unless the run configured gateways.
  // `handoffFrames` counts frames injected across a domain boundary;
  // per-gateway counters include the residual still staged at teardown
  // (frames captured after the last barrier).
  std::uint64_t gatewayCount{0};
  std::uint64_t handoffFrames{0};
  std::vector<gateway::GatewayCounters> gatewayStats;
};

// True when `config` describes a world that can be captured as a topology
// snapshot and re-adopted (DESIGN §14): static geometric placement whose
// link means are cacheable — no mobility, no custom link-model factory.
// Ineligible scenarios always build from scratch; the runner reports
// them as snapshot "off".
bool snapshotEligible(const ScenarioConfig& config);

class Simulation {
 public:
  explicit Simulation(ScenarioConfig config);

  // Adopt-snapshot construction (DESIGN §14): skips placement, the channel
  // plan, gateway selection and every reachability build by splicing in
  // the frozen world. `snapshot` must have been captured from a scenario
  // with identical topology-relevant fields (same seed, node count, area,
  // placement, phy params, channels, gateways — the sweep runner shares a
  // snapshot only among the runs of one topology, which differ in none of
  // them); protocol, traffic, duration, faults and rate control may differ
  // freely. Results are byte-identical to a from-scratch build:
  // reachability builds draw no RNG and Rng::fork is const, so skipping
  // work never perturbs any stream.
  Simulation(ScenarioConfig config, TopologySnapshotPtr snapshot);

  // Freezes this simulation's immutable world for reuse. Valid only on
  // snapshot-eligible scenarios built from scratch, at most once, before
  // run(); returns null when the scenario is ineligible. Zero-copy: the
  // channels move their built rows into the snapshot and keep reading
  // them through the shared path every adopter uses.
  TopologySnapshotPtr captureSnapshot();

  // True when this simulation was constructed by adopting a snapshot.
  bool adoptedSnapshot() const { return adopted_ != nullptr; }

  // Runs to the configured duration (plus a small drain window) and
  // returns the aggregated results.
  RunResults run();

  // Collision domain 0's simulator and channel — the only ones on a
  // single-channel run; domainChannel() reaches the others.
  sim::Simulator& simulator() { return *sims_[0]; }
  phy::Channel& channel() { return *channels_[0]; }
  // Per-run counter taxonomy: value(name) and snapshot() sum each
  // exported field over every node and gateway port of every domain.
  const Counters& counters() const { return counters_; }

  // The channel plan is always built; one domain lists every node.
  std::size_t channelCount() const { return plan_.channels; }
  const channelplan::ChannelPlan* plan() const { return &plan_; }
  phy::Channel& domainChannel(std::size_t channel) {
    return *channels_.at(channel);
  }
  MeshNode& node(net::NodeId id) { return *nodes_.at(id); }
  std::size_t nodeCount() const { return nodes_.size(); }
  // Gateway roster (empty unless the run configured gateways) and the
  // relay carrying frames between domains (null likewise).
  const gateway::GatewaySet& gatewaySet() const { return gatewaySet_; }
  const gateway::GatewayRelay* gatewayRelay() const { return relay_.get(); }
  // The injector scoped to `domain`; null when the scenario carries no
  // faults (explicit or churn) or none of them touches that domain.
  fault::FaultInjector* faultInjector(std::size_t domain = 0) {
    return domain < injectors_.size() ? injectors_[domain].get() : nullptr;
  }
  const std::vector<Vec2>& positions() const { return positions_; }
  const ScenarioConfig& config() const { return config_; }

  // Union of per-node data-edge counts (for the Figure 5 tree dump).
  std::unordered_map<net::LinkKey, std::uint64_t, net::LinkKeyHash>
  dataEdgeCounts() const;

 private:
  void build();
  // Builds the factory's or the mobility model for domain 0 and takes the
  // node positions from it; null for static geometric placement.
  std::unique_ptr<phy::LinkModel> makeDynamicLinkModel(Rng& rng);
  void buildGateways(Rng& rng);
  void buildFaults(Rng& rng);
  void aggregateTraffic(RunResults& results);
  std::string traceMetaLine() const;
  std::vector<Vec2> placeNodes(Rng& rng) const;
  std::vector<Vec2> placeNodesGrid(Rng& rng) const;
  std::vector<Vec2> placePositions(Rng& rng) const;
  static bool diskGraphConnected(const std::vector<Vec2>& positions,
                                 double rangeM);

  // Installs a fresh PacketPool scoped to `sim`'s run loop (DESIGN §12):
  // the pool becomes the thread's active pool for exactly the events that
  // simulator executes, so concurrent domain simulators never share one.
  void installPool(sim::Simulator& sim);

  ScenarioConfig config_;
  // One slab pool per domain simulator. Pool impls are refcounted by their
  // live packets, so member order relative to packet holders below is
  // immaterial.
  std::vector<std::unique_ptr<net::PacketPool>> pools_;
  std::unique_ptr<metrics::Metric> metric_;  // null for original ODMRP
  std::unique_ptr<rate::RateTable> rateTable_;  // null on fixed single-rate

  // One simulator, channel and trace collector (when tracing) per
  // collision domain. Declared BEFORE nodes_/injectors_ so anything
  // holding a Simulator& or Channel& (node timers cancel against their
  // domain simulator on destruction) is torn down first.
  channelplan::ChannelPlan plan_;
  std::vector<std::unique_ptr<sim::Simulator>> sims_;
  std::vector<std::unique_ptr<phy::Channel>> channels_;
  std::vector<std::unique_ptr<trace::TraceCollector>> traces_;

  // Gateway relay: its ports hold Radio/Mac instances referencing the
  // domain simulators and channels above, so like nodes_ it must be
  // declared after them (torn down first).
  gateway::GatewaySet gatewaySet_;
  std::unique_ptr<gateway::GatewayRelay> relay_;

  std::vector<std::unique_ptr<MeshNode>> nodes_;
  // Reads the stats of nodes_ and the relay's ports by collision domain.
  Counters counters_;
  // The merged fault timeline (explicit + churn) as configured, before
  // per-domain scoping; its union window is the run's fault window.
  fault::FaultSchedule faults_;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors_;
  std::vector<std::unique_ptr<fault::RecoveryAnalyzer>> recovery_;
  std::vector<Vec2> positions_;
  // Non-null when constructed by adoption; keeps the shared world alive
  // (the channels also hold their own ReachSnapshot refs, but
  // positions/plan copies here read from it during build).
  TopologySnapshotPtr adopted_;
};

}  // namespace mesh::harness
