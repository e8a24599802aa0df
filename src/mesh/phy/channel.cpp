#include "mesh/phy/channel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "mesh/phy/fading.hpp"
#include "mesh/trace/trace_collector.hpp"

namespace mesh::phy {
namespace {
constexpr double kSpeedOfLight = 299'792'458.0;  // m/s

// Grid cells at half the reach radius: a disk query then touches ~pi*(R/c+1)²
// ≈ 28 cells whose union hugs the disk, instead of a 3×3 box with ~2.9× the
// disk's area. Finer cells prune better but cost more bucket iteration.
constexpr double kCellsPerReachRadius = 2.0;

// The propagation delay over `distanceM`, rounded as SimTime::seconds
// rounds it, in the 32 bits of ns a CachedLink holds (up to about 4.29 s,
// 1.29e9 m). A longer delay is refused, never wrapped.
std::uint32_t propagationNs(double distanceM) {
  const double seconds = distanceM / kSpeedOfLight;
  if (!(seconds >= 0.0 && seconds * 1e9 + 0.5 < 4294967296.0)) {
    throw std::out_of_range("propagation delay over " +
                            std::to_string(distanceM) +
                            " m does not fit 2^32-1 ns");
  }
  return static_cast<std::uint32_t>(SimTime::seconds(seconds).ns());
}
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
  if (radio.failed()) ++failedRadios_;
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

void Channel::prepareSpatialIndex() {
  spatialActive_ = false;
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
  // Failure plays no part here: a failed radio sends nothing, and
  // transmit() skips it as a receiver, so the rows stay valid across every
  // fail and recover.
  Row& row = localRows_[tx];
  row.clear();
  const double csThreshold = radios_[tx]->params().csThresholdW;
  const net::NodeId txNode = radios_[tx]->nodeId();

  const auto consider = [&](std::size_t rx) {
    if (rx == tx) return;
    const double mean = linkModel_->meanRxPowerW(txNode, radios_[rx]->nodeId());
    if (mean * fadingHeadroom_ < csThreshold) return;
    if (cacheMeans_) {
      const double distance =
          linkModel_->distanceM(txNode, radios_[rx]->nodeId());
      row.push_back(CachedLink{mean, propagationNs(distance),
                               static_cast<std::uint32_t>(rx)});
    } else {
      // Mobility: the per-transmission loop re-queries power and distance
      // live, so deriving them here would be dead work — record only the
      // receiver index.
      row.push_back(CachedLink{0.0, 0, static_cast<std::uint32_t>(rx)});
    }
  };

  if (spatialActive_) {
    // Grid candidates are a conservative superset of everything the exact
    // predicate can accept. Scattering them into a bitmap and walking its
    // set bits restores global ascending index order in O(k + n/64) —
    // measurably cheaper than a per-row sort — so the row, and every
    // downstream RNG draw, is bit-identical to the full scan below.
    rowScratch_.clear();
    grid_.candidatesWithin(gridPositions_[tx], reachRadiusM_, rowScratch_);
    rowMask_.assign((radios_.size() + 63) / 64, 0);
    for (const std::uint32_t rx : rowScratch_) {
      rowMask_[rx >> 6] |= std::uint64_t{1} << (rx & 63);
    }
    // Cell-level pruning leaves corner slop; the conservative-radius
    // contract (mean >= floor implies distance <= reach) makes a squared-
    // distance precheck exact, so those candidates cost one multiply
    // instead of a virtual propagation evaluation.
    const Vec2 txPos = gridPositions_[tx];
    const double reach2 = reachRadiusM_ * reachRadiusM_;
    for (std::size_t w = 0; w < rowMask_.size(); ++w) {
      for (std::uint64_t bits = rowMask_[w]; bits != 0; bits &= bits - 1) {
        const auto rx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        if (txPos.distanceSquaredTo(gridPositions_[rx]) > reach2) continue;
        consider(rx);
      }
    }
  } else {
    for (std::size_t rx = 0; rx < radios_.size(); ++rx) consider(rx);
  }
}

void Channel::buildReachability() {
  prepareSpatialIndex();
  // Every row is re-derived into channel-local storage; a previously
  // adopted snapshot has nothing left to contribute and is never written.
  shared_.reset();
  rows_ = &localRows_;
  localRows_.resize(radios_.size());
  for (std::size_t tx = 0; tx < radios_.size(); ++tx) buildRow(tx);
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

std::shared_ptr<const Channel::ReachSnapshot> Channel::freezeAndShare() {
  MESH_REQUIRE(cacheMeans_);
  MESH_REQUIRE(refreshInterval_.isZero());
  MESH_REQUIRE(shared_ == nullptr);
  if (!reachabilityBuilt_) buildReachability();
  auto snapshot = std::make_shared<ReachSnapshot>();
  snapshot->rows = std::move(localRows_);
  snapshot->spatialActive = spatialActive_;
  localRows_.clear();
  // Adopt the frozen rows ourselves: the builder run reads the same rows
  // every adopter reads, at zero copy cost.
  shared_ = snapshot;
  rows_ = &snapshot->rows;
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
  rows_ = &shared_->rows;
  spatialActive_ = shared_->spatialActive;
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
  if (!reachabilityBuilt_) buildReachability();
  ++stats_.transmissions;

  const std::size_t txIndex = sender.channelIndex();
  MESH_ASSERT(txIndex < radios_.size() && radios_[txIndex] == &sender);
  const net::NodeId txNode = sender.nodeId();
  // Per-transmission invariants, hoisted out of the per-delivery loops:
  // fault-free runs have no failed radio and no loss table, and legacy
  // (code-0) frames never take a PER draw — the checks inside perCorrupted
  // stay as a backstop but the fan-out no longer pays them per receiver.
  const bool checkFailed = failedRadios_ != 0;
  const bool checkLoss = !linkLoss_.empty();
  const bool ratePath = rateTable_ != nullptr && frame->tx.rateAware();
  const Row& row = (*rows_)[txIndex];
  const SimTime now = simulator_.now();

  FanoutRun& run = acquireRun();
  std::vector<FanoutRun::Delivery>& kept = run.deliveries;
  if (radixScratch_.size() < 2 * row.size()) {
    radixScratch_.resize(2 * row.size());
  }
  std::uint64_t* const keys = radixScratch_.data();
  std::uint32_t delayOr = 0;
  std::uint32_t delayAnd = std::numeric_limits<std::uint32_t>::max();
  const bool inlineRayleigh = inlineRayleigh_;
  for (const CachedLink& link : row) {
    Radio& receiver = *radios_[link.rxIndex];
    // A failed receiver is an absent one: skipped before any draw for it.
    if (checkFailed && receiver.failed()) continue;
    if (checkLoss && lossSuppressed(txNode, receiver.nodeId(), frame)) {
      continue;
    }
    double powerW;
    std::uint32_t delayNs = link.propagationNs;
    if (!cacheMeans_) {
      // Mobility: positions change between rebuilds, so power and delay
      // are queried live (the cache still bounds the fan-out via its
      // headroom).
      powerW = linkModel_->samplePowerGivenMeanW(
          txNode, receiver.nodeId(),
          linkModel_->meanRxPowerW(txNode, receiver.nodeId()), rng_);
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
      delayNs = propagationNs(linkModel_->distanceM(txNode, receiver.nodeId()));
    }
    const bool corrupted = ratePath && perCorrupted(receiver, frame, powerW);
    const auto index = static_cast<std::uint32_t>(kept.size());
    kept.push_back(FanoutRun::Delivery{&receiver, powerW, corrupted});
    keys[index] = std::uint64_t{delayNs} << 32 | index;
    delayOr |= delayNs;
    delayAnd &= delayNs;
  }
  if (kept.empty()) {
    freeRuns_.push_back(&run);
    return;
  }
  stats_.deliveriesScheduled += kept.size();

  // Seqs in row order: the ones a per-receiver schedule would have taken.
  const std::uint64_t firstSeq = simulator_.reserveSeqs(kept.size());
  orderRun(kept.size(), delayOr ^ delayAnd, now, firstSeq, run.items());
  run.frame = frame;
  run.txNode = txNode;
  run.airtime = airtime;
  simulator_.addRun(run);
}

void Channel::orderRun(std::size_t n, std::uint32_t varyingBits, SimTime now,
                       std::uint64_t firstSeq,
                       std::vector<sim::EventRun::Item>& items) {
  // The keys entered in kept order, so equal delays already sit in seq
  // order, and a stable LSD radix sort on the delay bytes yields (time,
  // seq) order. A byte every delay shares would move nothing and gets no
  // pass: none when all delays are equal, at most two up to 65 535 ns.
  std::uint64_t* src = radixScratch_.data();
  std::uint64_t* dst = src + n;
  for (int shift = 32; shift < 64; shift += 8) {
    if (((varyingBits >> (shift - 32)) & 0xFF) == 0) continue;
    std::array<std::uint32_t, 256> offset{};
    for (std::size_t i = 0; i < n; ++i) ++offset[(src[i] >> shift) & 0xFF];
    std::uint32_t start = 0;
    for (std::uint32_t& o : offset) start += std::exchange(o, start);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(src[i] >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<std::uint32_t>(src[i]);
    const auto delay = static_cast<std::int64_t>(src[i] >> 32);
    items.push_back(sim::EventRun::Item{now + SimTime::nanoseconds(delay),
                                        firstSeq + index, index});
  }
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
