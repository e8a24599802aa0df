#pragma once
// Channel: the shared wireless medium.
//
// One Channel connects all radios of one collision domain. In the default
// single-channel scenario that is every radio; under a multi-channel plan
// (harness `channels` key, DESIGN §11) each orthogonal channel gets its
// own Channel — carrier sense, NAV, busy-power sums, reachability rows
// and the spatial grid are all per-instance state, so domains cannot
// interact. On each transmission it
// samples per-receiver received power from the LinkModel (mean propagation
// × per-packet fading) and delivers the energy to every radio whose mean
// power is non-negligible, after the speed-of-light propagation delay.
//
// The arrivals of one transmission are not heap events: transmit() draws
// every receiver's power in row order (RNG order unchanged), reserves one
// seq per kept receiver in that order — the seqs per-receiver schedules
// would take — and hands them to the simulator as one pooled EventRun in
// (propagation, row index) order, i.e. (time, seq) order. That order needs
// no comparison sort: a stable LSD radix pass per byte of the delay in ns
// that varies across the run keeps row order among equal delays.
//
// A static "reachability" cache keeps the fan-out per transmission bounded:
// a receiver is skipped when even a generous fading up-swing (configurable
// headroom, default 32×, P(Exp(1) ≥ 32) ≈ 1e-14) could not lift its mean
// power to the carrier-sense threshold. This is an optimization only — it
// cannot change which frames are decodable.
//
// For link models whose geometry is pure per pair (everything except
// mobility), the cache also freezes each reachable link's mean rx power
// and propagation delay at build time, so the per-transmission loop makes
// zero virtual LinkModel calls except the per-frame sampling hook
// (LinkModel::samplePowerGivenMeanW) — which keeps RNG draw order, and
// therefore every result, bit-identical to the uncached path.
//
// Reachability builds use a uniform spatial grid (phy/spatial_grid) when
// the link model exposes geometry: instead of testing all n² ordered
// pairs, each transmitter's row enumerates only grid candidates within
// the model's conservative maximum reach radius, then applies the exact
// mean-power predicate in ascending radio-index order — so the rows (and
// every downstream RNG draw) stay bit-identical to the full scan while
// build cost drops to O(n·k). Models without geometry (the testbed's
// floor graph) take the full O(n²) pair scan instead.
//
// Rows are immutable once built: only a full build writes them (the first
// one, and every refresh under mobility, which reuses their buffers). A
// failed radio (Radio::setFailed) stays in every row; transmit() skips it
// before any draw for it, which gives exactly the draws and arrivals of a
// row that left it out. Radios report each fail/recover flip, so the skip
// test is hoisted: fault-free runs pay one compare per transmission.
//
// Because a build draws no RNG and (for static geometry) is a pure
// function of positions and radio parameters, the built rows can be
// frozen into an immutable ReachSnapshot and shared across simulations of
// the same topology (DESIGN §14): freezeAndShare() moves the rows behind a
// shared_ptr and adoptReachability() points an identically built channel
// at them. Nothing writes them afterwards, so sibling runs need no
// synchronization and never observe each other's faults.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mesh/common/assert.hpp"
#include "mesh/common/rng.hpp"
#include "mesh/common/simtime.hpp"
#include "mesh/net/packet.hpp"
#include "mesh/phy/frame.hpp"
#include "mesh/phy/link_model.hpp"
#include "mesh/phy/radio.hpp"
#include "mesh/phy/spatial_grid.hpp"
#include "mesh/rate/rate_table.hpp"
#include "mesh/sim/simulator.hpp"

namespace mesh::phy {

struct ChannelStats {
  std::uint64_t transmissions{0};
  std::uint64_t deliveriesScheduled{0};
  // Reachability/link-cache rebuilds (1 for static runs; mobility benches
  // report this as cache churn). Always cachedRebuilds + liveRebuilds.
  std::uint64_t reachabilityRebuilds{0};
  // Rebuilds that froze per-pair means/delays into the link cache
  // (meansCacheable() true) vs. reachability-only rebuilds that left the
  // per-pair fields to live queries (mobility).
  std::uint64_t cachedRebuilds{0};
  std::uint64_t liveRebuilds{0};
  // Deliveries suppressed by a fault-injected link blackout or loss ramp.
  std::uint64_t faultSuppressedDeliveries{0};
  // Always 0: rows are never rebuilt in part or invalidated, so there is
  // nothing to count. Kept only while the end-to-end benchmark
  // (perfbench/e2e.cpp) still prints them.
  std::uint64_t incrementalRebuilds{0};
  std::uint64_t rowsRebuilt{0};
  std::uint64_t coalescedInvalidations{0};
  // Reachability state adopted from a shared snapshot instead of built
  // (adoptReachability). Deliberately not folded into reachabilityRebuilds:
  // an adopt derives nothing.
  std::uint64_t snapshotAdopts{0};
};

class Channel {
 public:
  // One reachable receiver of a transmitter: the slab the per-transmission
  // loop iterates. meanPowerW/propagationNs are only read when the link
  // model's means are cacheable; under mobility they are sampled live.
  // The delay is SimTime::seconds(distance / c) in ns, narrowed to 32 bits
  // (a longer delay throws std::out_of_range), so a row packs into 16
  // bytes.
  struct CachedLink {
    double meanPowerW;
    std::uint32_t propagationNs;
    std::uint32_t rxIndex;
  };
  static_assert(sizeof(CachedLink) == 16);

  // One transmitter's receivers, in ascending radio-index order.
  using Row = std::vector<CachedLink>;

  // An immutable freeze of one channel's built rows, one per transmitter.
  // Produced by freezeAndShare() on a channel with cacheable
  // (static-geometry) means; adopted by adoptReachability() on channels
  // built identically — same radios in the same attach order over the
  // same geometry. Strictly read-only after construction: concurrent
  // simulations share one instance without synchronization.
  struct ReachSnapshot {
    std::vector<Row> rows;
    bool spatialActive{false};  // the build used the grid
  };

  // `fadingHeadroom`: see file comment. The link model must outlive the
  // channel if passed by reference; here we take ownership.
  Channel(sim::Simulator& simulator, std::unique_ptr<LinkModel> linkModel,
          Rng rng, double fadingHeadroom = 32.0);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Register a radio. All radios must be attached before the first
  // transmission (the reachability cache is built lazily on first use).
  void attach(Radio& radio);

  // For time-varying link models (mobility): rebuild the reachability
  // cache whenever it is older than `interval`. The per-link fading
  // headroom already provides distance slack; keep the interval small
  // enough that maxSpeed x interval stays well inside it.
  void enableReachabilityRefresh(SimTime interval) {
    refreshInterval_ = interval;
  }

  // Called by Radio::transmit.
  void transmit(Radio& sender, const PhyFramePtr& frame, SimTime airtime);

  // --- fault injection (mesh/fault) ---------------------------------------

  // Force every delivery on the (undirected) pair to be lost with
  // probability `loss` (1.0 = blackout, suppressed without an RNG draw).
  // Layered on top of the link model: fading and the reachability cache are
  // untouched, so clearing the override restores the exact pre-fault link.
  void overrideLinkLoss(net::NodeId a, net::NodeId b, double loss);
  void clearLinkLoss(net::NodeId a, net::NodeId b);

  // Radio::setFailed reports every flip of an attached radio here. While
  // the count is zero, transmit() tests no receiver for failure.
  void radioFailureChanged(bool failed) {
    if (failed) {
      ++failedRadios_;
    } else {
      MESH_ASSERT(failedRadios_ > 0);
      --failedRadios_;
    }
  }

  // Force a full rebuild immediately (benches time it in isolation; tests
  // use it to pin rebuild points). Writes channel-local rows: a shared
  // snapshot is let go, never written.
  void rebuildReachabilityNow() { buildReachability(); }

  // --- shared topology snapshots (DESIGN §14) -----------------------------

  // Builds (if pending) and moves the rows into an immutable snapshot,
  // which this channel then adopts itself — the builder run reads the very
  // rows it froze, at zero copy cost. Requires cacheable means (static
  // geometry), no mobility refresh, and that no snapshot is already
  // adopted; call at most once.
  std::shared_ptr<const ReachSnapshot> freezeAndShare();

  // Adopts a previously frozen snapshot in place of the first build: marks
  // reachability built and closes attach. The snapshot must come from an
  // identically constructed channel (the row count is checked; geometric
  // identity is the caller's contract — the sweep runner shares a snapshot
  // only among the runs of one topology). Faults never write rows (a
  // failed radio is skipped at transmit time, a loss override is layered
  // over them), so a sibling run sharing the snapshot can never observe
  // this run's faults.
  void adoptReachability(std::shared_ptr<const ReachSnapshot> snapshot);

  // True when the last reachability build actually used the grid (model
  // indexable, finite reach radius). Meaningful after the first build
  // only.
  bool spatialIndexActive() const { return spatialActive_; }

  // O(1) hash lookup by node id — fault-application time only, never per
  // frame.
  Radio* findRadio(net::NodeId node) const;

  // Optional drop records for fault-suppressed deliveries.
  void setTrace(trace::TraceCollector* collector) { trace_ = collector; }

  // Arms the per-rate SNR→PER error model: frames carrying a rate-aware
  // TxVector (code != 0) are killed per receiver with the table's PER at
  // the sampled SNR. Null (the default) — and every code-0 frame — keeps
  // the legacy behavior with zero extra RNG draws, which is what makes
  // rate_control=fixed bit-identical to the pre-rate simulator.
  void setRateTable(const rate::RateTable* table) { rateTable_ = table; }

  const LinkModel& linkModel() const { return *linkModel_; }
  const ChannelStats& stats() const { return stats_; }
  std::size_t radioCount() const { return radios_.size(); }
  // Attach-ordered radio list. Build/inspection time only (the Genie rate
  // controller's oracle enumerates neighbors through it), never per frame.
  const std::vector<Radio*>& radios() const { return radios_; }

 private:
  void buildReachability();
  // Decide whether the grid path applies and (re)build the grid over a
  // position snapshot. Sets spatialActive_.
  void prepareSpatialIndex();
  // Derive one transmitter's receiver row — via grid candidates when
  // spatialActive_, else the full O(n) scan. Bit-identical results either
  // way (superset contract + exact predicate + ascending-index order).
  void buildRow(std::size_t tx);
  // Returns true when a loss override says this delivery must be
  // suppressed (drawing from rng_ for partial loss rates).
  bool lossSuppressed(net::NodeId tx, net::NodeId rx, const PhyFramePtr& frame);
  // Per-rate error model: true when the frame fails its PER draw at this
  // receiver. Never draws for legacy (code 0) frames.
  bool perCorrupted(const Radio& receiver, const PhyFramePtr& frame,
                    double powerW);

  // One transmission's arrivals: item i fires deliveries[i]'s
  // beginArrival. Pooled: finished() returns it to freeRuns_ with its
  // buffers' capacity intact.
  class FanoutRun final : public sim::EventRun {
   public:
    struct Delivery {
      Radio* receiver;
      double powerW;
      bool corrupted;
    };
    explicit FanoutRun(Channel& channel) : channel_{channel} {}

    PhyFramePtr frame;
    SimTime airtime{SimTime::zero()};
    std::vector<Delivery> deliveries;

   private:
    void fire(std::uint32_t index) override {
      const Delivery& d = deliveries[index];
      d.receiver->beginArrival(frame, d.powerW, airtime, d.corrupted);
    }
    void finished() override;

    Channel& channel_;
  };

  FanoutRun& acquireRun();
  // Fills `items` with one item per key of radixScratch_[0, n) in (delay,
  // index) order; see the file comment.
  void orderRun(std::size_t n, std::uint32_t varyingBits, SimTime now,
                std::uint64_t firstSeq, std::vector<sim::EventRun::Item>& items);

  sim::Simulator& simulator_;
  std::unique_ptr<LinkModel> linkModel_;
  Rng rng_;
  double fadingHeadroom_;
  bool cacheMeans_{true};  // linkModel_->meansCacheable(), hoisted

  // True when linkModel_->meanScaledFading() is Rayleigh: the cached-means
  // fan-out then draws the gain inline (identical draws, no virtual
  // dispatch per receiver); every other model goes through
  // samplePowerGivenMeanW.
  bool inlineRayleigh_{false};

  std::vector<Radio*> radios_;                 // indexed by attach order
  std::unordered_map<net::NodeId, std::uint32_t> nodeIndex_;  // id -> index
  std::uint32_t failedRadios_{0};  // attached radios with failed() true
  // The row table transmit() reads: localRows_ after a local build, the
  // adopted or frozen snapshot's rows otherwise. Rebuilt only in full,
  // into localRows_ (whose buffers mobility refreshes reuse).
  const std::vector<Row>* rows_{&localRows_};
  std::vector<Row> localRows_;
  // Non-null while rows_ points into an adopted/frozen snapshot; keeps it
  // alive.
  std::shared_ptr<const ReachSnapshot> shared_;
  std::vector<std::unique_ptr<FanoutRun>> runs_;
  std::vector<FanoutRun*> freeRuns_;
  // transmit()'s sort keys, (delay ns << 32 | kept index), and the radix
  // passes' ping-pong half: 2 × the longest row seen, never shrunk.
  std::vector<std::uint64_t> radixScratch_;

  // --- spatial index state (see DESIGN §8.5) ------------------------------
  // Build-time only: the grid and positions of the last full build.
  bool spatialActive_{false};               // last build used the grid
  double reachRadiusM_{0.0};                // conservative pruning radius
  SpatialGrid grid_;
  std::vector<Vec2> gridPositions_;         // build-time position snapshot
  std::vector<std::uint32_t> rowScratch_;   // candidate buffer for buildRow
  std::vector<std::uint64_t> rowMask_;      // candidate bitmap: ascending
                                            // iteration without a sort
  // Directed-pair loss overrides; overrideLinkLoss installs both
  // directions. Empty in fault-free runs (one .empty() test per tx).
  std::unordered_map<net::LinkKey, double, net::LinkKeyHash> linkLoss_;
  trace::TraceCollector* trace_{nullptr};
  const rate::RateTable* rateTable_{nullptr};
  bool reachabilityBuilt_{false};
  bool attachClosed_{false};  // set at first build; attach() forbidden after
  SimTime refreshInterval_{SimTime::zero()};  // zero: never refresh
  SimTime reachabilityBuiltAt_{SimTime::zero()};
  ChannelStats stats_;
};

}  // namespace mesh::phy
