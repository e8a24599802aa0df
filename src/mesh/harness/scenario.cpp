#include "mesh/harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>

#include "mesh/channelplan/domain_scheduler.hpp"
#include "mesh/common/assert.hpp"
#include "mesh/phy/fading.hpp"
#include "mesh/phy/propagation.hpp"

namespace mesh::harness {
namespace {

std::unique_ptr<phy::FadingModel> makeFading(bool rayleigh) {
  if (rayleigh) return std::make_unique<phy::RayleighFading>();
  return std::make_unique<phy::NoFading>();
}

// A node listed twice joins its group once: fan-outs and sink sums count
// each node once.
std::vector<net::NodeId> distinctIds(std::vector<net::NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

ScenarioConfig paperSimulationScenario() {
  ScenarioConfig config;
  config.nodeCount = 50;
  config.areaWidthM = 1000.0;
  config.areaHeightM = 1000.0;
  config.rayleighFading = true;
  config.duration = SimTime::seconds(std::int64_t{400});
  config.traffic.payloadBytes = 512;
  config.traffic.packetsPerSecond = 20.0;
  config.traffic.start = SimTime::seconds(std::int64_t{30});
  config.traffic.stop = SimTime::seconds(std::int64_t{400});
  return config;
}

ScenarioConfig scaledSimulationScenario(std::size_t nodeCount) {
  MESH_REQUIRE(nodeCount > 0);
  ScenarioConfig config = paperSimulationScenario();
  config.nodeCount = nodeCount;
  // Constant density (50 nodes per km²): area grows linearly with n.
  const double side =
      1000.0 * std::sqrt(static_cast<double>(nodeCount) / 50.0);
  config.areaWidthM = side;
  config.areaHeightM = side;
  // Rejection sampling is O(n²) per attempt with a vanishing acceptance
  // rate at scale; the grid generator is O(n) and connected by
  // construction at this (constant) density.
  config.placement = Placement::Grid;
  return config;
}

std::vector<GroupSpec> makeRandomGroups(std::size_t nodeCount,
                                        std::size_t groupCount,
                                        std::size_t membersPerGroup,
                                        std::size_t sourcesPerGroup, Rng& rng) {
  MESH_REQUIRE(groupCount * (membersPerGroup + sourcesPerGroup) <= nodeCount);
  std::vector<net::NodeId> ids(nodeCount);
  std::iota(ids.begin(), ids.end(), net::NodeId{0});
  // Fisher-Yates with our deterministic Rng.
  for (std::size_t i = nodeCount - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
    std::swap(ids[i], ids[j]);
  }
  std::vector<GroupSpec> groups;
  std::size_t next = 0;
  for (std::size_t g = 0; g < groupCount; ++g) {
    GroupSpec spec;
    spec.group = static_cast<net::GroupId>(g + 1);
    for (std::size_t s = 0; s < sourcesPerGroup; ++s) spec.sources.push_back(ids[next++]);
    for (std::size_t m = 0; m < membersPerGroup; ++m) spec.members.push_back(ids[next++]);
    groups.push_back(std::move(spec));
  }
  return groups;
}

std::vector<GroupSpec> makeStripedGroups(std::size_t nodeCount,
                                         std::size_t channels,
                                         std::size_t groupsPerChannel,
                                         std::size_t membersPerGroup,
                                         std::size_t sourcesPerGroup,
                                         Rng& rng) {
  MESH_REQUIRE(channels >= 1);
  std::vector<GroupSpec> groups;
  for (std::size_t c = 0; c < channels; ++c) {
    // This residue class is exactly the node set of channel c under the
    // Static (id mod C) assignment; shuffle it independently per channel.
    std::vector<net::NodeId> ids;
    for (std::size_t i = c; i < nodeCount; i += channels) {
      ids.push_back(static_cast<net::NodeId>(i));
    }
    MESH_REQUIRE(groupsPerChannel * (membersPerGroup + sourcesPerGroup) <=
                 ids.size());
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      const auto j =
          static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
      std::swap(ids[i], ids[j]);
    }
    std::size_t next = 0;
    for (std::size_t g = 0; g < groupsPerChannel; ++g) {
      GroupSpec spec;
      spec.group = static_cast<net::GroupId>(g * channels + c + 1);
      for (std::size_t s = 0; s < sourcesPerGroup; ++s) {
        spec.sources.push_back(ids[next++]);
      }
      for (std::size_t m = 0; m < membersPerGroup; ++m) {
        spec.members.push_back(ids[next++]);
      }
      groups.push_back(std::move(spec));
    }
  }
  return groups;
}

std::string repeatedSourceError(const std::vector<GroupSpec>& groups) {
  std::vector<net::NodeId> sources;
  for (const GroupSpec& spec : groups) {
    sources.insert(sources.end(), spec.sources.begin(), spec.sources.end());
  }
  std::sort(sources.begin(), sources.end());
  const auto twice = std::adjacent_find(sources.begin(), sources.end());
  if (twice == sources.end()) return {};
  return "node " + std::to_string(*twice) +
         " is the source of more than one flow (one CBR flow per node)";
}

bool snapshotEligible(const ScenarioConfig& config) {
  // The static-geometry subset: placement, reachability rows, channel plan
  // and gateway roster are all decided once at build time and never move.
  // Mobility rebuilds rows from live positions (a t=0 freeze would diverge
  // from the lazy first-transmission build) and custom link-model
  // factories own their geometry — both build from scratch.
  return !config.linkModelFactory && config.mobilityMaxSpeedMps == 0.0;
}

Simulation::Simulation(ScenarioConfig config) : config_{std::move(config)} {
  build();
}

Simulation::Simulation(ScenarioConfig config, TopologySnapshotPtr snapshot)
    : config_{std::move(config)}, adopted_{std::move(snapshot)} {
  MESH_REQUIRE(adopted_ != nullptr);
  MESH_REQUIRE(snapshotEligible(config_));
  build();
}

std::vector<Vec2> Simulation::placeNodes(Rng& rng) const {
  std::vector<Vec2> positions;
  positions.reserve(config_.nodeCount);
  for (std::size_t i = 0; i < config_.nodeCount; ++i) {
    positions.push_back(Vec2{rng.uniform(0.0, config_.areaWidthM),
                             rng.uniform(0.0, config_.areaHeightM)});
  }
  return positions;
}

std::vector<Vec2> Simulation::placeNodesGrid(Rng& rng) const {
  const std::size_t n = config_.nodeCount;
  MESH_REQUIRE(n > 0);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  const double cellW = config_.areaWidthM / static_cast<double>(cols);
  const double cellH = config_.areaHeightM / static_cast<double>(rows);
  // One node per cell of the row-major prefix 0..n-1 (a connected region
  // of the grid). The node -> cell map is shuffled so node ids carry no
  // spatial information: id-striped channel plans and group picks then
  // sample space uniformly, like the rejection path they replace.
  std::vector<std::size_t> cells(n);
  std::iota(cells.begin(), cells.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniformInt(std::uint64_t{i + 1}));
    std::swap(cells[i], cells[j]);
  }
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cell = cells[i];
    const double cx = (static_cast<double>(cell % cols) + 0.5) * cellW;
    const double cy = (static_cast<double>(cell / cols) + 0.5) * cellH;
    // Jitter keeps each node inside the central half of its cell, so two
    // nodes in adjacent occupied cells sit at most
    // hypot(1.5·cell, 0.5·cell) apart — ~224 m at the paper's density,
    // inside the 250 m disk range. Connectivity needs no rejection loop.
    positions.push_back(Vec2{cx + rng.uniform(-cellW / 4.0, cellW / 4.0),
                             cy + rng.uniform(-cellH / 4.0, cellH / 4.0)});
  }
  return positions;
}

std::vector<Vec2> Simulation::placePositions(Rng& rng) const {
  if (config_.placement == Placement::Grid) return placeNodesGrid(rng);
  std::vector<Vec2> positions = placeNodes(rng);
  if (config_.ensureConnected) {
    // 250 m is the nominal (fading-free) reception range.
    constexpr int kAttempts = 1000;
    for (int attempt = 1; !diskGraphConnected(positions, 250.0); ++attempt) {
      if (attempt == kAttempts) {
        char what[160];
        std::snprintf(what, sizeof what,
                      "no connected uniform placement of %zu nodes in "
                      "%gx%g m after %d attempts",
                      config_.nodeCount, config_.areaWidthM,
                      config_.areaHeightM, kAttempts);
        throw std::invalid_argument(what);
      }
      positions = placeNodes(rng);
    }
  }
  return positions;
}

bool Simulation::diskGraphConnected(const std::vector<Vec2>& positions,
                                    double rangeM) {
  if (positions.empty()) return true;
  std::vector<std::size_t> parent(positions.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const double range2 = rangeM * rangeM;
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a + 1; b < positions.size(); ++b) {
      if (positions[a].distanceSquaredTo(positions[b]) <= range2) {
        parent[find(a)] = find(b);
      }
    }
  }
  const std::size_t root = find(0);
  for (std::size_t i = 1; i < positions.size(); ++i) {
    if (find(i) != root) return false;
  }
  return true;
}

void Simulation::installPool(sim::Simulator& sim) {
  pools_.push_back(std::make_unique<net::PacketPool>());
  net::PacketPool* pool = pools_.back().get();
  // Save/restore the previous active pool so nested run() scopes (a test
  // driving one simulation from inside another's event) stay balanced.
  auto prev = std::make_shared<net::PacketPool*>(nullptr);
  sim.setRunScope(
      [pool, prev] { *prev = net::PacketPool::setCurrent(pool); },
      [prev] { net::PacketPool::setCurrent(*prev); });
}

std::unique_ptr<phy::LinkModel> Simulation::makeDynamicLinkModel(Rng& rng) {
  sim::Simulator& simulator = *sims_[0];
  if (config_.linkModelFactory) {
    Rng modelRng = rng.fork("linkmodel");
    positions_ = config_.fixedPositions;
    if (config_.nodeCount == 0 && !positions_.empty()) {
      config_.nodeCount = positions_.size();
    }
    return config_.linkModelFactory(simulator, modelRng);
  }
  if (config_.mobilityMaxSpeedMps > 0.0) {
    phy::RandomWaypointMobility::Params mobilityParams;
    mobilityParams.areaWidthM = config_.areaWidthM;
    mobilityParams.areaHeightM = config_.areaHeightM;
    mobilityParams.minSpeedMps = config_.mobilityMaxSpeedMps / 2.0;
    mobilityParams.maxSpeedMps = config_.mobilityMaxSpeedMps;
    mobilityParams.maxPause = SimTime::seconds(std::int64_t{5});
    mobilityParams.horizon = config_.duration + SimTime::seconds(std::int64_t{10});
    auto mobility = std::make_unique<phy::RandomWaypointMobility>(
        config_.nodeCount, mobilityParams, rng.fork("mobility"));
    positions_ = mobility->initialPositions();
    return std::make_unique<phy::MobileGeometricLinkModel>(
        simulator, config_.node.phy, std::move(mobility),
        std::make_unique<phy::TwoRayGroundModel>(),
        makeFading(config_.rayleighFading));
  }
  return nullptr;
}

void Simulation::build() {
  // Node ids are 16-bit with the top two reserved (net::kMaxNodes); a
  // larger world would alias them, so it is refused before any allocation.
  if (config_.nodeCount > net::kMaxNodes) {
    throw std::invalid_argument("node count " +
                                std::to_string(config_.nodeCount) +
                                " exceeds the 16-bit id space (at most " +
                                std::to_string(net::kMaxNodes) + ")");
  }
  // An empty traffic window is a scenario error (a clamped bench duration,
  // a mistyped stop_s), so it throws for the runner to report rather than
  // tripping CbrSource's invariant.
  const bool anySource =
      std::any_of(config_.groups.begin(), config_.groups.end(),
                  [](const GroupSpec& spec) { return !spec.sources.empty(); });
  if (anySource && config_.traffic.stop <= config_.traffic.start) {
    char what[128];
    std::snprintf(what, sizeof what,
                  "empty traffic window: stop %gs is not after start %gs",
                  config_.traffic.stop.toSeconds(),
                  config_.traffic.start.toSeconds());
    throw std::invalid_argument(what);
  }
  // MeshNode holds one CBR source; a repeated one is a scenario error too.
  if (const std::string what = repeatedSourceError(config_.groups);
      !what.empty()) {
    throw std::invalid_argument(what);
  }
  // Orthogonal collision domains need static geometry: the plan is decided
  // once from positions, and a custom or mobile link model would move
  // state across domains mid-run.
  const bool staticGeometry = snapshotEligible(config_);
  MESH_REQUIRE(config_.channels >= 1 && config_.channels <= 255);
  MESH_REQUIRE(staticGeometry || config_.channels == 1);
  const std::size_t domains = config_.channels;
  Rng rng{config_.seed};

  if (config_.protocol.metric) {
    metric_ = metrics::makeMetric(*config_.protocol.metric,
                                  config_.traffic.payloadBytes);
  }
  for (std::size_t d = 0; d < domains; ++d) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    installPool(*sims_[d]);
  }

  std::unique_ptr<phy::LinkModel> dynamicModel = makeDynamicLinkModel(rng);
  if (adopted_ != nullptr) {
    MESH_REQUIRE(adopted_->positions.size() == config_.nodeCount);
    MESH_REQUIRE(adopted_->plan.channels == domains);
    positions_ = adopted_->positions;
    plan_ = adopted_->plan;
  } else {
    if (dynamicModel == nullptr) {
      Rng placeRng = rng.fork("placement");
      positions_ = placePositions(placeRng);
    }
    // Display-free custom models carry no positions; their single domain
    // needs none, so the plan is drawn over placeholders.
    const std::vector<Vec2> placeholders(
        positions_.size() == config_.nodeCount ? 0 : config_.nodeCount);
    // 250 m: the nominal reception range — the radius inside which two
    // same-channel nodes contend.
    plan_ = channelplan::makeChannelPlan(
        config_.channelAssign, domains,
        placeholders.empty() ? positions_ : placeholders, 250.0);
  }

  if (config_.rateControl != rate::ControlKind::Fixed ||
      config_.rateSet != rate::RateSetKind::Basic) {
    // The basic rate tracks the PHY bitrate so code-0 and basic-code
    // airtimes agree.
    rateTable_ = std::make_unique<rate::RateTable>(rate::RateTable::forSet(
        config_.rateSet, config_.node.phy.bitRateBps));
  }

  for (std::size_t d = 0; d < domains; ++d) {
    if (!config_.tracePath.empty()) {
      auto collector = std::make_unique<trace::TraceCollector>(
          config_.tracePath + ".spill." + std::to_string(d));
      // Tag 0 on one-domain plans keeps record bytes single-channel.
      if (domains > 1) {
        collector->setChannelTag(static_cast<std::uint8_t>(d + 1));
      }
      traces_.push_back(std::move(collector));
    }
    // Every static domain's model indexes the full position vector by
    // global node id; a Channel only consults radios attached to it, so
    // carrier sense, NAV, busy power and reachability are per-domain state
    // for free.
    std::unique_ptr<phy::LinkModel> linkModel =
        dynamicModel != nullptr
            ? std::move(dynamicModel)
            : std::make_unique<phy::GeometricLinkModel>(
                  config_.node.phy, positions_,
                  std::make_unique<phy::TwoRayGroundModel>(),
                  makeFading(config_.rayleighFading));
    // fork("channel", 0) == fork("channel"): domain 0 draws the
    // single-channel stream.
    channels_.push_back(std::make_unique<phy::Channel>(
        *sims_[d], std::move(linkModel), rng.fork("channel", d)));
    if (!traces_.empty()) channels_[d]->setTrace(traces_[d].get());
    if (rateTable_ != nullptr) channels_[d]->setRateTable(rateTable_.get());
  }
  if (config_.mobilityMaxSpeedMps > 0.0) {
    // Fading headroom gives the cache ~3.4x distance slack over the CS
    // range (~1.3 km); refresh every 2 s so even 30 m/s nodes cannot
    // outrun it.
    channels_[0]->enableReachabilityRefresh(SimTime::seconds(std::int64_t{2}));
  }

  MeshNodeConfig nodeConfig = config_.node;
  nodeConfig.probeRateScale = config_.protocol.probeRateScale;
  nodeConfig.treeRouting = config_.protocol.routing == Routing::Tree;
  nodeConfig.adaptiveProbing.enabled = config_.protocol.adaptiveProbing;
  nodeConfig.rateControl = config_.rateControl;
  nodeConfig.rateTable = rateTable_.get();
  nodes_.reserve(config_.nodeCount);
  counters_ =
      Counters{domains, config_.rateControl != rate::ControlKind::Fixed};
  for (std::size_t i = 0; i < config_.nodeCount; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    const std::size_t d = plan_.channelOf(id);
    trace::TraceCollector* collector =
        traces_.empty() ? nullptr : traces_[d].get();
    nodes_.push_back(std::make_unique<MeshNode>(
        *sims_[d], *channels_[d], id, nodeConfig, metric_.get(),
        rng.fork("node", i), collector));
    counters_.add(nodes_.back()->counterSource(), d);
  }

  for (const GroupSpec& spec : config_.groups) {
    for (const net::NodeId member : spec.members) {
      nodes_.at(member)->joinGroup(spec.group);
    }
    for (const net::NodeId source : spec.sources) {
      app::CbrConfig cbr = config_.traffic;
      cbr.group = spec.group;
      nodes_.at(source)->addCbrSource(cbr);
    }
  }

  for (auto& node : nodes_) node->start();

  buildGateways(rng);
  // Faults last: the schedule is merged (explicit + generated churn) and
  // armed against the fully built simulation.
  buildFaults(rng);

  // Snapshot-eligible worlds force the reachability build at construction
  // (DESIGN §14). Builds draw no RNG and static positions make t=0 rows
  // identical to the lazy first-transmission build, so results cannot
  // change — and construction cost lands in setup_seconds whether a run
  // adopts its world or builds it from scratch, keeping the comparison
  // honest. Adopting runs splice the frozen rows in instead of
  // rebuilding. Runs after gateway wiring so the rows cover the relay's
  // port radios, which attach after each domain's own nodes.
  if (staticGeometry) {
    for (std::size_t d = 0; d < domains; ++d) {
      if (adopted_ != nullptr) {
        channels_[d]->adoptReachability(adopted_->reach.at(d));
      } else {
        channels_[d]->rebuildReachabilityNow();
      }
    }
  }
}

void Simulation::buildGateways(Rng& rng) {
  // Cross-domain gateways: the roster is deterministic (RNG-free given the
  // plan and positions), then the relay wires one port Radio + MAC per
  // foreign domain onto each gateway and the node's outbound broadcasts
  // are tapped for staging. gateways == 0 builds none of this — the
  // multi-channel path stays byte-identical to the gateway-less simulator.
  const std::size_t domains = plan_.channels;
  if (domains == 1 || (config_.gateways == 0 && config_.gatewayNodes.empty())) {
    return;
  }
  if (adopted_ != nullptr) {
    gatewaySet_ = adopted_->gatewaySet;
  } else {
    gateway::GatewaySelect select = config_.gatewaySelect;
    if (!config_.gatewayNodes.empty()) {
      select = gateway::GatewaySelect::Explicit;
    }
    // 250 m: the same nominal reception range the channel plan scores
    // boundary candidates against.
    gatewaySet_ = gateway::makeGatewaySet(select, config_.gateways,
                                          config_.gatewayNodes, plan_,
                                          positions_, 250.0);
  }
  std::vector<gateway::GatewayRelay::DomainContext> contexts;
  contexts.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    contexts.push_back(gateway::GatewayRelay::DomainContext{
        sims_[d].get(), channels_[d].get(), pools_[d].get(),
        traces_.empty() ? nullptr : traces_[d].get()});
  }
  relay_ = std::make_unique<gateway::GatewayRelay>(std::move(contexts));
  for (const net::NodeId g : gatewaySet_.nodes) {
    MESH_REQUIRE(static_cast<std::size_t>(g) < nodes_.size());
    const std::size_t idx = relay_->addGateway(
        g, plan_.channelOf(g), config_.node.phy, config_.node.mac,
        rng.fork("gwport", g),
        [this, g](const net::PacketPtr& packet, net::NodeId from) {
          nodes_.at(g)->injectFromGateway(packet, from);
        });
    nodes_.at(g)->setGatewayTap([this, idx](const net::PacketPtr& packet) {
      relay_->captureOutbound(idx, packet);
    });
  }
  // Port radios transmit on their channel like any node radio, so their
  // phy.* and mac.* counters count in their domain.
  relay_->forEachPort([this](std::size_t d, const phy::RadioStats& phy,
                             const mac::MacStats& mac) {
    counters_.add({&phy, &mac, nullptr, nullptr, nullptr, nullptr}, d);
  });
}

void Simulation::buildFaults(Rng& rng) {
  faults_ = config_.faults;
  if (config_.churn) {
    std::vector<net::NodeId> eligible;
    if (!config_.churnVictims.empty()) {
      // Explicit victim roster (the on-route churn figure crashes actual
      // forwarding-group members discovered in a pilot run).
      eligible = config_.churnVictims;
    } else {
      // Default churn victims: every node that is neither a source nor a
      // member.
      std::vector<bool> excluded(config_.nodeCount, false);
      for (const GroupSpec& spec : config_.groups) {
        for (const net::NodeId s : spec.sources) excluded.at(s) = true;
        for (const net::NodeId m : spec.members) excluded.at(m) = true;
      }
      for (std::size_t i = 0; i < config_.nodeCount; ++i) {
        if (!excluded[i]) eligible.push_back(static_cast<net::NodeId>(i));
      }
    }
    const fault::FaultSchedule generated = fault::FaultSchedule::generate(
        *config_.churn, config_.duration, eligible, rng.fork("faults"));
    for (const fault::FaultEvent& event : generated.events()) {
      faults_.add(event);
    }
  }
  if (faults_.empty()) return;

  // The merged schedule is scoped per domain so each injector only ever
  // touches its own domain's simulator, channel and nodes (the invariant
  // the parallel scheduler relies on). A gateway owns a radio in every
  // domain, so radio-level faults (crash, blackout, loss ramp,
  // interference) scope to each domain where the victim — and for link
  // faults the peer too — has a radio: crashing a gateway takes down its
  // home stack and every port. Node-level faults (probe blackhole, MAC
  // queue drop) act on the node's single protocol stack and stay
  // home-domain-only, which also keeps their hooks inside the home
  // domain's worker thread. Exactly one scoped copy per configured fault
  // keeps traced=true, so the merged trace and the recovery counts carry
  // each fault once.
  const std::size_t domains = plan_.channels;
  std::vector<bool> isGateway(config_.nodeCount, false);
  for (const net::NodeId g : gatewaySet_.nodes) isGateway.at(g) = true;
  const auto hasRadioIn = [&](net::NodeId node, std::size_t d) {
    return plan_.channelOf(node) == d || isGateway.at(node);
  };
  injectors_.resize(domains);
  recovery_.resize(domains);
  std::vector<bool> tracedCopyEmitted(faults_.size(), false);
  for (std::size_t d = 0; d < domains; ++d) {
    std::vector<fault::FaultEvent> scoped;
    for (std::size_t e = 0; e < faults_.events().size(); ++e) {
      const fault::FaultEvent& event = faults_.events()[e];
      const bool nodeLevel =
          event.kind == trace::FaultKind::ProbeBlackhole ||
          event.kind == trace::FaultKind::MacQueueDrop;
      if (nodeLevel) {
        if (plan_.channelOf(event.node) != d) continue;
      } else {
        if (!hasRadioIn(event.node, d)) continue;
        // A link fault needs both endpoints in this domain; a pair with
        // no shared domain names a link that cannot exist, so that copy
        // is dropped.
        if (event.peer != net::kInvalidNode && !hasRadioIn(event.peer, d)) {
          continue;
        }
      }
      fault::FaultEvent copy = event;
      copy.traced = !tracedCopyEmitted[e];
      tracedCopyEmitted[e] = true;
      scoped.push_back(copy);
    }
    if (scoped.empty()) continue;
    injectors_[d] = std::make_unique<fault::FaultInjector>(
        *sims_[d], *channels_[d],
        fault::FaultSchedule::fromEvents(std::move(scoped)));
    if (!traces_.empty()) injectors_[d]->setTrace(traces_[d].get());
    // Node-level victims are always same-domain (see scoping above), so
    // these hooks stay inside this domain's worker thread.
    injectors_[d]->setBlackholeHook([this](net::NodeId node, bool active) {
      nodes_.at(node)->setProbeBlackhole(active);
    });
    injectors_[d]->setQueueDropHook([this](net::NodeId node, bool active) {
      nodes_.at(node)->setQueueDropFault(active);
    });
    injectors_[d]->arm();

    // Mean fan-out per originated data packet: the factor that turns the
    // analyzer's originated-counter deltas into expected deliveries. A
    // source only reaches members sharing its channel.
    double fanout = 0.0;
    std::size_t sources = 0;
    for (const GroupSpec& spec : config_.groups) {
      for (const net::NodeId source : spec.sources) {
        if (plan_.channelOf(source) != d) continue;
        std::uint64_t f = 0;
        for (const net::NodeId member : distinctIds(spec.members)) {
          if (member != source && plan_.channelOf(member) == d) ++f;
        }
        fanout += static_cast<double>(f);
        ++sources;
      }
    }
    if (sources > 0) fanout /= static_cast<double>(sources);
    // Runs on domain d's worker thread, so it reads domain d only.
    const auto counts = [this, d] {
      return fault::RecoveryAnalyzer::Counts{
          counters_.sum(&net::ProtocolStats::dataOriginated, d),
          counters_.sum(&app::MulticastSink::packetsReceived, d),
          counters_.sum(&net::ProtocolStats::controlBytesSent, d)};
    };
    recovery_[d] = std::make_unique<fault::RecoveryAnalyzer>(
        *sims_[d], counts, injectors_[d]->schedule(), config_.duration,
        fanout);
    recovery_[d]->arm();
  }
}

namespace {

void applyRecovery(RunResults& results, const fault::RecoveryReport& report) {
  results.faultsApplied = report.faultsApplied;
  results.faultsCleared = report.faultsCleared;
  results.faultWindowS = report.faultWindowS;
  results.inWindowPdr = report.inWindowPdr;
  results.outWindowPdr = report.outWindowPdr;
  results.overheadInflation = report.overheadInflation;
  results.meanTimeToRepairS = report.meanTimeToRepairS;
  results.repairsObserved = report.repairsObserved;
  results.repairsUnresolved = report.repairsUnresolved;
}

// Folds per-domain recovery reports into one run-level report. Counts sum
// (each domain counts only its traced fault copies, so a fault scoped to
// several domains counts once); ratio metrics are weighted means over the
// windows they were measured in (each domain's fault-window seconds for
// in-window PDR and overhead inflation, the remaining horizon for
// out-of-window PDR, resolved repairs for the mean time-to-repair). A
// single report passes through unchanged. The caller sets the run-level
// fault window.
fault::RecoveryReport mergeRecoveryReports(
    const std::vector<fault::RecoveryReport>& reports, SimTime horizon) {
  if (reports.size() == 1) return reports.front();
  fault::RecoveryReport merged;
  const double horizonS = horizon.toSeconds();
  double inWeight = 0.0, outWeight = 0.0, repairWeight = 0.0;
  for (const fault::RecoveryReport& r : reports) {
    merged.faultsApplied += r.faultsApplied;
    merged.faultsCleared += r.faultsCleared;
    merged.repairsObserved += r.repairsObserved;
    merged.repairsUnresolved += r.repairsUnresolved;
    merged.inWindowPdr += r.inWindowPdr * r.faultWindowS;
    merged.overheadInflation += r.overheadInflation * r.faultWindowS;
    merged.inWindowControlBps += r.inWindowControlBps * r.faultWindowS;
    inWeight += r.faultWindowS;
    const double outS = horizonS > r.faultWindowS ? horizonS - r.faultWindowS : 0.0;
    merged.outWindowPdr += r.outWindowPdr * outS;
    merged.outWindowControlBps += r.outWindowControlBps * outS;
    outWeight += outS;
    merged.meanTimeToRepairS +=
        r.meanTimeToRepairS * static_cast<double>(r.repairsObserved);
    repairWeight += static_cast<double>(r.repairsObserved);
  }
  if (inWeight > 0.0) {
    merged.inWindowPdr /= inWeight;
    merged.overheadInflation /= inWeight;
    merged.inWindowControlBps /= inWeight;
  }
  if (outWeight > 0.0) {
    merged.outWindowPdr /= outWeight;
    merged.outWindowControlBps /= outWeight;
  }
  if (repairWeight > 0.0) merged.meanTimeToRepairS /= repairWeight;
  return merged;
}

}  // namespace

TopologySnapshotPtr Simulation::captureSnapshot() {
  if (!snapshotEligible(config_)) return nullptr;
  // An adopting run has nothing new to freeze — its snapshot already holds
  // this world.
  MESH_REQUIRE(adopted_ == nullptr);
  auto snapshot = std::make_shared<TopologySnapshot>();
  snapshot->positions = positions_;
  snapshot->plan = plan_;
  snapshot->gatewaySet = gatewaySet_;
  snapshot->reach.reserve(channels_.size());
  for (auto& channel : channels_) {
    snapshot->reach.push_back(channel->freezeAndShare());
  }
  return snapshot;
}

std::string Simulation::traceMetaLine() const {
  const double activeS =
      (config_.traffic.stop - config_.traffic.start).toSeconds();
  char meta[256];
  std::snprintf(meta, sizeof(meta),
                "{\"seed\":%llu,\"protocol\":\"%s\",\"nodes\":%zu,"
                "\"active_s\":%.17g}",
                static_cast<unsigned long long>(config_.seed),
                config_.protocol.name().c_str(), nodes_.size(), activeS);
  return meta;
}

RunResults Simulation::run() {
  std::vector<sim::Simulator*> domains;
  domains.reserve(sims_.size());
  for (const auto& domain : sims_) domains.push_back(domain.get());
  channelplan::DomainScheduler scheduler{std::move(domains),
                                         config_.domainWorkers};
  // A short drain window lets in-flight frames land before accounting.
  const SimTime horizon = config_.duration + SimTime::seconds(std::int64_t{1});
  if (relay_ != nullptr) {
    // Switch slots: one epoch barrier every switchSlot, plus a final one
    // at the horizon so the last partial slot still drains. Barriers run
    // alone on the caller's thread with every domain clock stopped exactly
    // at the barrier time — the property that makes the handoff order
    // independent of the worker count.
    MESH_REQUIRE(!config_.switchSlot.isZero());
    SimTime at = config_.switchSlot;
    for (; at <= horizon; at = at + config_.switchSlot) {
      scheduler.addBarrier(at, [this] { relay_->drainAtBarrier(); });
    }
    if (at - config_.switchSlot < horizon) {
      scheduler.addBarrier(horizon, [this] { relay_->drainAtBarrier(); });
    }
  }
  scheduler.run(horizon);

  RunResults results;
  for (const auto& domain : sims_) {
    results.eventsExecuted += domain->eventsExecuted();
  }
  aggregateTraffic(results);

  if (plan_.channels > 1) {
    for (std::size_t d = 0; d < plan_.channels; ++d) {
      results.channelFrames.push_back(
          counters_.sum(&phy::RadioStats::framesSent, d));
      results.channelDelivered.push_back(
          counters_.sum(&app::MulticastSink::packetsReceived, d));
    }
  }

  if (relay_ != nullptr) {
    results.gatewayCount = relay_->gatewayCount();
    results.handoffFrames = relay_->totalInjected();
    results.gatewayStats = relay_->counters();
  }

  std::vector<fault::RecoveryReport> reports;
  for (const auto& recovery : recovery_) {
    if (recovery != nullptr) reports.push_back(recovery->report());
  }
  if (!reports.empty()) {
    fault::RecoveryReport report =
        mergeRecoveryReports(reports, config_.duration);
    // The union window of the configured schedule, however many domains
    // each fault was scoped to.
    report.faultWindowS = faults_.faultWindow(config_.duration).toSeconds();
    applyRecovery(results, report);
  }

  if (!traces_.empty()) {
    std::vector<trace::TraceCollector*> parts;
    parts.reserve(traces_.size());
    for (const auto& collector : traces_) parts.push_back(collector.get());
    if (!trace::TraceCollector::exportMergedJsonl(
            config_.tracePath, traceMetaLine(), counters_.snapshot(), parts)) {
      throw std::runtime_error("trace export failed: cannot write " +
                               config_.tracePath);
    }
  }
  return results;
}

void Simulation::aggregateTraffic(RunResults& results) {
  // A member node has one sink for every group it joined, so sinks are
  // read once per node, not once per group that lists it.
  std::vector<net::NodeId> allMembers;
  for (const GroupSpec& spec : config_.groups) {
    const std::vector<net::NodeId> members = distinctIds(spec.members);
    for (const net::NodeId source : spec.sources) {
      const app::CbrSource* cbr = nodes_.at(source)->cbr();
      MESH_ASSERT(cbr != nullptr);
      results.packetsSent += cbr->packetsSent();
      // Every member except the source itself (a source may be a member)
      // should receive each packet.
      std::uint64_t fanout = members.size();
      if (std::binary_search(members.begin(), members.end(), source)) --fanout;
      results.expectedDeliveries += cbr->packetsSent() * fanout;
    }
    allMembers.insert(allMembers.end(), members.begin(), members.end());
  }
  std::uint64_t payloadBits = 0;
  for (const net::NodeId member : distinctIds(std::move(allMembers))) {
    const auto& sink = nodes_.at(member)->sink();
    results.packetsDelivered += sink.packetsReceived();
    payloadBits += sink.payloadBytesReceived() * 8;
  }

  // Byte/frame totals read the same fields as the exported counters, so
  // these aggregates and a `meshtrace` replay read identical numbers.
  results.probeBytesReceived =
      counters_.sum(&NodeByteCounters::probeBytesReceived);
  results.dataBytesReceived =
      counters_.sum(&NodeByteCounters::dataBytesReceived);
  results.controlBytesReceived =
      counters_.sum(&NodeByteCounters::controlBytesReceived);
  results.macBroadcastsSent = counters_.sum(&mac::MacStats::broadcastSent);
  results.radioFramesCorrupted =
      counters_.sum(&phy::RadioStats::framesCorrupted);

  OnlineStats delay;
  for (const auto& node : nodes_) delay.merge(node->sink().delayStats());

  results.pdr = results.expectedDeliveries > 0
                    ? static_cast<double>(results.packetsDelivered) /
                          static_cast<double>(results.expectedDeliveries)
                    : 0.0;
  const double activeS =
      (config_.traffic.stop - config_.traffic.start).toSeconds();
  results.throughputBps =
      activeS > 0.0 ? static_cast<double>(payloadBits) / activeS : 0.0;
  results.meanDelayS = delay.mean();
  results.probeOverheadPct =
      results.dataBytesReceived > 0
          ? 100.0 * static_cast<double>(results.probeBytesReceived) /
                static_cast<double>(results.dataBytesReceived)
          : 0.0;
}

std::unordered_map<net::LinkKey, std::uint64_t, net::LinkKeyHash>
Simulation::dataEdgeCounts() const {
  std::unordered_map<net::LinkKey, std::uint64_t, net::LinkKeyHash> edges;
  for (const auto& node : nodes_) {
    for (const auto& [edge, count] : node->odmrp().dataEdgeCounts()) {
      edges[edge] += count;
    }
  }
  return edges;
}

}  // namespace mesh::harness
