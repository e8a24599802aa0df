#include "mesh/phy/channel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "mesh/phy/fading.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::phy {
namespace {
constexpr double kSpeedOfLight = 299'792'458.0;  // m/s

// Grid cells at half the reach radius: a disk query then touches ~pi*(R/c+1)²
// ≈ 28 cells whose union hugs the disk, instead of a 3×3 box with ~2.9× the
// disk's area. Finer cells prune better but cost more bucket iteration.
constexpr double kCellsPerReachRadius = 2.0;
}  // namespace

Channel::Channel(sim::Simulator& simulator, std::unique_ptr<LinkModel> linkModel,
                 Rng rng, double fadingHeadroom)
    : simulator_{simulator},
      linkModel_{std::move(linkModel)},
      rng_{rng},
      fadingHeadroom_{fadingHeadroom},
      cacheMeans_{linkModel_ != nullptr && linkModel_->meansCacheable()} {
  MESH_REQUIRE(linkModel_ != nullptr);
  MESH_REQUIRE(fadingHeadroom_ >= 1.0);
  inlineRayleigh_ = dynamic_cast<const RayleighFading*>(
                        linkModel_->meanScaledFading()) != nullptr;
}

void Channel::attach(Radio& radio) {
  MESH_REQUIRE(!attachClosed_);
  const auto [it, inserted] = nodeIndex_.emplace(
      radio.nodeId(), static_cast<std::uint32_t>(radios_.size()));
  MESH_REQUIRE(inserted);  // one radio per node id
  (void)it;
  radios_.push_back(&radio);
  radio.attachChannel(this, radios_.size() - 1);
}

void Channel::overrideLinkLoss(net::NodeId a, net::NodeId b, double loss) {
  MESH_REQUIRE(a != b);
  MESH_REQUIRE(loss >= 0.0 && loss <= 1.0);
  linkLoss_[net::LinkKey{a, b}] = loss;
  linkLoss_[net::LinkKey{b, a}] = loss;
}

void Channel::clearLinkLoss(net::NodeId a, net::NodeId b) {
  linkLoss_.erase(net::LinkKey{a, b});
  linkLoss_.erase(net::LinkKey{b, a});
}

Radio* Channel::findRadio(net::NodeId node) const {
  const auto it = nodeIndex_.find(node);
  return it == nodeIndex_.end() ? nullptr : radios_[it->second];
}

void Channel::invalidateReachability() {
  if (!reachabilityBuilt_) {
    // A full rebuild is already pending; this invalidation rides along.
    ++stats_.coalescedInvalidations;
    return;
  }
  reachabilityBuilt_ = false;
  // A full rebuild re-derives every row, so pending per-radio work is
  // absorbed rather than coalesced (it still happens — just all at once).
  dirtyRadios_.clear();
  std::fill(dirtyMask_.begin(), dirtyMask_.end(), std::uint64_t{0});
}

void Channel::invalidateRadio(net::NodeId node) {
  if (!reachabilityBuilt_) {
    ++stats_.coalescedInvalidations;
    return;
  }
  // Incremental row rebuilds are exact only when build-time positions are
  // still authoritative: static geometry (cacheMeans_) indexed by the grid.
  // Mobility and non-geometric models fall back to a full rebuild (their
  // periodic refresh / full scan already bounds the cost).
  const auto it = nodeIndex_.find(node);
  if (!spatialActive_ || !cacheMeans_ || it == nodeIndex_.end()) {
    invalidateReachability();
    return;
  }
  // O(1) membership test via the dirty bitmap (sized at build time, and
  // attach is closed after the first build) — a linear scan of
  // dirtyRadios_ would go quadratic under heavy churn at n >= 2000.
  const std::uint32_t index = it->second;
  const std::size_t word = index >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (index & 63);
  MESH_ASSERT(word < dirtyMask_.size());
  if ((dirtyMask_[word] & bit) != 0) {
    ++stats_.coalescedInvalidations;  // already dirty: same rows, one pass
    return;
  }
  dirtyMask_[word] |= bit;
  dirtyRadios_.push_back(index);
}

void Channel::prepareSpatialIndex() {
  spatialActive_ = false;
  // A full (re)build derives its own grid over live model positions; any
  // adopted snapshot's frozen pair stops being authoritative here.
  activeGrid_ = &grid_;
  activePositions_ = &gridPositions_;
  if (!linkModel_->spatiallyIndexable()) return;

  // The pruning power floor must be valid for every transmitter: use the
  // smallest carrier-sense threshold across radios (they are uniform in
  // practice) divided by the fading headroom — exactly the weakest mean
  // power buildRow's predicate can accept.
  double minCs = std::numeric_limits<double>::infinity();
  for (const Radio* radio : radios_) {
    minCs = std::min(minCs, radio->params().csThresholdW);
  }
  const double floorW = minCs / fadingHeadroom_;
  if (!(floorW > 0.0) || !std::isfinite(floorW)) return;
  const double reach = linkModel_->maxReachRadiusM(floorW);
  if (!std::isfinite(reach) || reach <= 0.0) return;

  reachRadiusM_ = reach;
  gridPositions_.resize(radios_.size());
  for (std::size_t i = 0; i < radios_.size(); ++i) {
    gridPositions_[i] = linkModel_->nodePosition(radios_[i]->nodeId());
  }
  grid_.build(gridPositions_, reach / kCellsPerReachRadius);
  spatialActive_ = true;
}

void Channel::buildRow(std::size_t tx) {
  // Copy-on-write: the rebuilt row always lands in channel-local storage
  // and the view is repointed — a shared snapshot row is never written.
  auto& row = reachable_[tx];
  rowView_[tx] = &row;
  row.clear();
  // A failed radio keeps an empty receiver set (it cannot radiate) and
  // never appears in anyone else's set (it cannot hear). Radio::setFailed
  // invalidates the affected rows so this stays current.
  if (radios_[tx]->failed()) return;
  const double csThreshold = radios_[tx]->params().csThresholdW;
  const net::NodeId txNode = radios_[tx]->nodeId();

  const auto consider = [&](std::size_t rx) {
    if (rx == tx || radios_[rx]->failed()) return;
    const double mean = linkModel_->meanRxPowerW(txNode, radios_[rx]->nodeId());
    if (mean * fadingHeadroom_ < csThreshold) return;
    if (cacheMeans_) {
      const double distance =
          linkModel_->distanceM(txNode, radios_[rx]->nodeId());
      row.push_back(CachedLink{static_cast<std::uint32_t>(rx), mean,
                               SimTime::seconds(distance / kSpeedOfLight)});
    } else {
      // Mobility: the per-transmission loop re-queries power and distance
      // live, so deriving them here would be dead work — record only the
      // receiver index.
      row.push_back(
          CachedLink{static_cast<std::uint32_t>(rx), 0.0, SimTime::zero()});
    }
  };

  if (spatialActive_) {
    // Grid candidates are a conservative superset of everything the exact
    // predicate can accept. Scattering them into a bitmap and walking its
    // set bits restores global ascending index order in O(k + n/64) —
    // measurably cheaper than a per-row sort — so the row, and every
    // downstream RNG draw, is bit-identical to the full scan below.
    const SpatialGrid& grid = *activeGrid_;
    const std::vector<Vec2>& positions = *activePositions_;
    rowScratch_.clear();
    grid.candidatesWithin(positions[tx], reachRadiusM_, rowScratch_);
    rowMask_.assign((radios_.size() + 63) / 64, 0);
    for (const std::uint32_t rx : rowScratch_) {
      rowMask_[rx >> 6] |= std::uint64_t{1} << (rx & 63);
    }
    // Cell-level pruning leaves corner slop; the conservative-radius
    // contract (mean >= floor implies distance <= reach) makes a squared-
    // distance precheck exact, so those candidates cost one multiply
    // instead of a virtual propagation evaluation.
    const Vec2 txPos = positions[tx];
    const double reach2 = reachRadiusM_ * reachRadiusM_;
    for (std::size_t w = 0; w < rowMask_.size(); ++w) {
      for (std::uint64_t bits = rowMask_[w]; bits != 0; bits &= bits - 1) {
        const auto rx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        if (txPos.distanceSquaredTo(positions[rx]) > reach2) continue;
        consider(rx);
      }
    }
  } else {
    for (std::size_t rx = 0; rx < radios_.size(); ++rx) consider(rx);
  }
}

void Channel::buildReachability() {
  prepareSpatialIndex();
  reachable_.resize(radios_.size());
  rowView_.resize(radios_.size());
  for (std::size_t tx = 0; tx < radios_.size(); ++tx) buildRow(tx);
  // Every row now lives in channel-local storage; a previously adopted
  // snapshot has nothing left to contribute.
  shared_.reset();
  dirtyRadios_.clear();  // a full build supersedes any pending row work
  dirtyMask_.assign((radios_.size() + 63) / 64, 0);
  reachabilityBuilt_ = true;
  attachClosed_ = true;
  reachabilityBuiltAt_ = simulator_.now();
  ++stats_.reachabilityRebuilds;
  if (cacheMeans_) {
    ++stats_.cachedRebuilds;
  } else {
    ++stats_.liveRebuilds;
  }
}

void Channel::applyDirtyRadios() {
  MESH_ASSERT(spatialActive_ && cacheMeans_);
  // The affected rows are exactly: each dirty radio's own row, plus every
  // row whose transmitter lies within the reach radius of a dirty radio —
  // no other row can gain or lose the dirty radio (pairs beyond the reach
  // radius always fail the mean-power predicate). Positions are the
  // build-time snapshot, which static geometry keeps authoritative.
  std::vector<std::uint32_t>& affected = dirtyScratch_;
  affected.clear();
  for (const std::uint32_t dirty : dirtyRadios_) {
    affected.push_back(dirty);
    activeGrid_->candidatesWithin((*activePositions_)[dirty], reachRadiusM_,
                                  affected);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  for (const std::uint32_t row : affected) buildRow(row);
  for (const std::uint32_t dirty : dirtyRadios_) {
    dirtyMask_[dirty >> 6] &= ~(std::uint64_t{1} << (dirty & 63));
  }
  dirtyRadios_.clear();
  ++stats_.incrementalRebuilds;
  stats_.rowsRebuilt += affected.size();
}

std::shared_ptr<const Channel::ReachSnapshot> Channel::freezeAndShare() {
  MESH_REQUIRE(cacheMeans_);
  MESH_REQUIRE(refreshInterval_.isZero());
  MESH_REQUIRE(shared_ == nullptr);
  // Freeze the settled state: force the first build or flush pending
  // per-row work, exactly what the next transmission would have done.
  if (!reachabilityBuilt_) {
    buildReachability();
  } else if (!dirtyRadios_.empty()) {
    applyDirtyRadios();
  }
  auto snapshot = std::make_shared<ReachSnapshot>();
  snapshot->rows = std::move(reachable_);
  snapshot->grid = std::move(grid_);
  snapshot->positions = std::move(gridPositions_);
  snapshot->reachRadiusM = reachRadiusM_;
  snapshot->spatialActive = spatialActive_;
  // Adopt the frozen state ourselves: the builder run reads the same rows
  // through the same shared path every adopter uses, at zero copy cost.
  reachable_.assign(snapshot->rows.size(), {});
  gridPositions_.clear();
  grid_ = SpatialGrid{};
  shared_ = snapshot;
  rowView_.resize(snapshot->rows.size());
  for (std::size_t i = 0; i < snapshot->rows.size(); ++i) {
    rowView_[i] = &snapshot->rows[i];
  }
  activeGrid_ = &snapshot->grid;
  activePositions_ = &snapshot->positions;
  return snapshot;
}

void Channel::adoptReachability(
    std::shared_ptr<const ReachSnapshot> snapshot) {
  MESH_REQUIRE(snapshot != nullptr);
  MESH_REQUIRE(!reachabilityBuilt_ && shared_ == nullptr);
  MESH_REQUIRE(cacheMeans_);
  MESH_REQUIRE(refreshInterval_.isZero());
  MESH_REQUIRE(snapshot->rows.size() == radios_.size());
  shared_ = std::move(snapshot);
  const std::size_t n = radios_.size();
  reachable_.assign(n, {});
  rowView_.resize(n);
  for (std::size_t i = 0; i < n; ++i) rowView_[i] = &shared_->rows[i];
  activeGrid_ = &shared_->grid;
  activePositions_ = &shared_->positions;
  reachRadiusM_ = shared_->reachRadiusM;
  spatialActive_ = shared_->spatialActive;
  dirtyRadios_.clear();
  dirtyMask_.assign((n + 63) / 64, 0);
  reachabilityBuilt_ = true;
  attachClosed_ = true;
  reachabilityBuiltAt_ = simulator_.now();
  ++stats_.snapshotAdopts;
}

bool Channel::lossSuppressed(net::NodeId tx, net::NodeId rx,
                             const PhyFramePtr& frame) {
  const auto it = linkLoss_.find(net::LinkKey{tx, rx});
  if (it == linkLoss_.end()) return false;
  // A full blackout consumes no RNG draw: the pre- and post-fault segments
  // of the run keep their draw sequence aligned with a fault-free run.
  const bool suppressed = it->second >= 1.0 || rng_.bernoulli(it->second);
  if (!suppressed) return false;
  ++stats_.faultSuppressedDeliveries;
  if (trace_ != nullptr) {
    trace_->drop(simulator_.now(), rx, frame->payload.get(),
                 frame->payload != nullptr ? frame->payload->kind()
                                           : net::PacketKind::MacControl,
                 static_cast<std::uint32_t>(frame->sizeBytes()),
                 trace::DropReason::FaultLinkDown);
  }
  return true;
}

void Channel::transmit(Radio& sender, const PhyFramePtr& frame,
                       SimTime airtime) {
  // Staleness first, before anything can consult the cache — and inclusive
  // (>=), so a refresh interval of exactly the elapsed delta rebuilds
  // instead of sliding one transmission past its deadline.
  if (reachabilityBuilt_ && !refreshInterval_.isZero() &&
      simulator_.now() - reachabilityBuiltAt_ >= refreshInterval_) {
    reachabilityBuilt_ = false;  // stale under mobility: rebuild below
  }
  if (!reachabilityBuilt_) {
    buildReachability();
  } else if (!dirtyRadios_.empty()) {
    applyDirtyRadios();
  }
  ++stats_.transmissions;

  const std::size_t txIndex = sender.channelIndex();
  MESH_ASSERT(txIndex < radios_.size() && radios_[txIndex] == &sender);
  const net::NodeId txNode = sender.nodeId();
  // Per-transmission invariants, hoisted out of the per-delivery loops:
  // fault-free runs have no loss table, and legacy (code-0) frames never
  // take a PER draw — the checks inside perCorrupted stay as a backstop
  // but the fan-out no longer pays them per receiver.
  const bool checkLoss = !linkLoss_.empty();
  const bool ratePath = rateTable_ != nullptr && frame->tx.rateAware();
  const std::vector<CachedLink>& row = *rowView_[txIndex];
  const SimTime now = simulator_.now();

  FanoutRun& run = acquireRun();
  std::vector<FanoutRun::Delivery>& kept = run.deliveries;
  std::vector<sim::EventRun::Item>& items = run.items();
  const bool inlineRayleigh = inlineRayleigh_;
  for (const CachedLink& link : row) {
    Radio& receiver = *radios_[link.rxIndex];
    if (checkLoss && lossSuppressed(txNode, receiver.nodeId(), frame)) {
      continue;
    }
    double powerW;
    SimTime propagation = link.propagation;
    if (!cacheMeans_) {
      // Mobility: positions change between rebuilds, so power and delay
      // are queried live (the cache still bounds the fan-out via its
      // headroom).
      powerW = linkModel_->sampleRxPowerW(txNode, receiver.nodeId(), rng_);
    } else if (inlineRayleigh) {
      // Hot path: flat slab of precomputed (receiver, mean, delay); with
      // mean-scaled Rayleigh fading even the per-frame sampling draw is
      // inlined (same draws, same bits).
      powerW = link.meanPowerW * rng_.rayleighPowerGain();
    } else {
      powerW = linkModel_->samplePowerGivenMeanW(txNode, receiver.nodeId(),
                                                 link.meanPowerW, rng_);
    }
    // Signals with no carrier-sense significance are not worth an arrival.
    if (powerW < receiver.params().csThresholdW * 1e-3) continue;
    if (!cacheMeans_) {
      propagation = SimTime::seconds(
          linkModel_->distanceM(txNode, receiver.nodeId()) / kSpeedOfLight);
    }
    const bool corrupted = ratePath && perCorrupted(receiver, frame, powerW);
    const auto index = static_cast<std::uint32_t>(kept.size());
    kept.push_back(FanoutRun::Delivery{&receiver, powerW, corrupted});
    items.push_back(sim::EventRun::Item{now + propagation, 0, index});
  }
  if (kept.empty()) {
    freeRuns_.push_back(&run);
    return;
  }
  stats_.deliveriesScheduled += kept.size();

  // Seqs in row order: the ones a per-receiver schedule would have taken.
  const std::uint64_t firstSeq = simulator_.reserveSeqs(kept.size());
  for (sim::EventRun::Item& item : items) item.seq = firstSeq + item.index;
  std::sort(items.begin(), items.end(),
            [](const sim::EventRun::Item& a, const sim::EventRun::Item& b) {
              return a.at < b.at || (a.at == b.at && a.seq < b.seq);
            });
  run.frame = frame;
  run.txNode = txNode;
  run.airtime = airtime;
  simulator_.addRun(run);
}

Channel::FanoutRun& Channel::acquireRun() {
  if (freeRuns_.empty()) {
    runs_.push_back(std::make_unique<FanoutRun>(*this));
    freeRuns_.push_back(runs_.back().get());
  }
  FanoutRun& run = *freeRuns_.back();
  freeRuns_.pop_back();
  run.deliveries.clear();
  run.items().clear();
  return run;
}

void Channel::FanoutRun::finished() {
  frame = nullptr;  // release the frame now, not at the run's next use
  channel_.freeRuns_.push_back(this);
}

bool Channel::perCorrupted(const Radio& receiver, const PhyFramePtr& frame,
                           double powerW) {
  // Legacy frames (code 0) and runs without a rate table take no draw at
  // all — the RNG stream stays bit-identical to the pre-rate simulator.
  if (rateTable_ == nullptr || !frame->tx.rateAware()) return false;
  // Below the lock threshold the frame is undecodable regardless; spare
  // the draw.
  if (powerW < receiver.params().rxThresholdW) return false;
  const double snrDb = linearToDb(powerW / receiver.params().noiseFloorW);
  const double per =
      rateTable_->per(frame->tx.code, snrDb, frame->sizeBytes());
  return rng_.bernoulli(per);
}

}  // namespace mesh::phy
