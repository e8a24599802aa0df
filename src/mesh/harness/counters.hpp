#pragma once
// Counters: the run's one taxonomy of named monotonic counters.
//
// The simulator's stats live where they are cheap to update — plain
// uint64 fields inside RadioStats / MacStats / ProtocolStats — so the hot
// paths keep their single unconditional increment. Counters is the read
// side: one static, name-sorted table (counters.cpp) maps every exported
// name to the stats field it reads, and a read sums that field over the
// nodes and gateway ports added to the run.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "mesh/app/multicast_sink.hpp"
#include "mesh/mac/mac80211.hpp"
#include "mesh/metrics/probe_service.hpp"
#include "mesh/net/multicast_protocol.hpp"
#include "mesh/phy/radio.hpp"

namespace mesh::harness {

// Per-kind bytes a node received at MAC delivery (Table 1's raw numbers).
struct NodeByteCounters {
  std::uint64_t probeBytesReceived{0};
  std::uint64_t controlBytesReceived{0};
  std::uint64_t dataBytesReceived{0};
  std::uint64_t probesBlackholed{0};  // eaten by a ProbeBlackhole fault
};

// The stats of one node, or of one gateway port: a port has a radio and a
// MAC only, and its null layers read as 0.
using CounterSource =
    std::tuple<const phy::RadioStats*, const mac::MacStats*,
               const net::ProtocolStats*, const metrics::ProbeServiceStats*,
               const NodeByteCounters*, const app::MulticastSink*>;

class Counters {
 public:
  static constexpr std::size_t kAllDomains =
      std::numeric_limits<std::size_t>::max();

  Counters() = default;
  // Fixed-rate runs leave out the per-rate decode-loss row so their
  // exports keep the pre-rate shape.
  Counters(std::size_t domains, bool rateAware)
      : domains_(domains), rateAware_{rateAware} {}

  // The pointees must outlive this object.
  void add(const CounterSource& source, std::size_t domain) {
    domains_.at(domain).push_back(source);
  }

  // Sum of the named counter over every source, or over `domain`'s only;
  // 0 for a name the run does not export.
  std::uint64_t value(std::string_view name,
                      std::size_t domain = kAllDomains) const;

  // Sum of one stats field, e.g. sum(&net::ProtocolStats::dataOriginated).
  // A domain's worker may read its own domain while the others run.
  template <class Stats, class Value>
  std::uint64_t sum(Value Stats::*field,
                    std::size_t domain = kAllDomains) const {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < domains_.size(); ++d) {
      if (domain != kAllDomains && d != domain) continue;
      for (const CounterSource& source : domains_[d]) {
        const Stats* stats = std::get<const Stats*>(source);
        if (stats != nullptr) total += std::invoke(field, *stats);
      }
    }
    return total;
  }

  // Name-sorted totals of every exported counter.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

 private:
  std::vector<std::vector<CounterSource>> domains_;  // by collision domain
  bool rateAware_{false};
};

}  // namespace mesh::harness
