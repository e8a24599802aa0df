#include "mesh/harness/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace mesh::harness {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lower(std::string_view s) {
  std::string out{s};
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  ConfigParseResult run() {
    ScenarioConfig config;
    // meshsim scenarios default to the paper's radio/MAC/ODMRP parameters.
    config.groups.clear();

    std::string section;
    GroupSpec* group = nullptr;

    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      std::string_view line = text_.substr(
          pos, eol == std::string_view::npos ? text_.size() - pos : eol - pos);
      pos = eol == std::string_view::npos ? text_.size() + 1 : eol + 1;
      ++line_;

      const std::size_t hash = line.find('#');
      if (hash != std::string_view::npos) line = line.substr(0, hash);
      line = trim(line);
      if (line.empty()) continue;

      if (line.front() == '[') {
        if (line.back() != ']') return fail(line_, "unterminated section header");
        section = lower(trim(line.substr(1, line.size() - 2)));
        group = nullptr;
        if (section.rfind("group", 0) == 0) {
          const std::string_view idText = trim(std::string_view{section}.substr(5));
          int id = 0;
          if (idText.empty() ||
              std::from_chars(idText.data(), idText.data() + idText.size(), id).ec !=
                  std::errc{}) {
            return fail(line_, "group section needs a numeric id, e.g. [group 1]");
          }
          config.groups.push_back(GroupSpec{static_cast<net::GroupId>(id), {}, {}});
          groupLines_.emplace_back();
          group = &config.groups.back();
        } else if (section != "scenario" && section != "protocol" &&
                   section != "traffic" && section != "faults") {
          return fail(line_, "unknown section [" + section + "]");
        }
        continue;
      }

      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) return fail(line_, "expected key = value");
      const std::string key = lower(trim(line.substr(0, eq)));
      const std::string_view value = trim(line.substr(eq + 1));
      if (key.empty() || value.empty()) return fail(line_, "empty key or value");

      std::string error;
      if (section == "scenario") {
        error = scenarioKey(config, key, value);
      } else if (section == "protocol") {
        error = protocolKey(config, key, value);
      } else if (section == "traffic") {
        error = trafficKey(config, key, value);
      } else if (section == "faults") {
        error = faultsKey(config, key, value);
      } else if (group != nullptr) {
        error = groupKey(*group, key, value);
      } else {
        error = "key outside of any section";
      }
      if (!error.empty()) return fail(line_, error);
    }

    if (config.groups.empty()) {
      return {std::nullopt, "config error: no [group N] sections"};
    }
    // Whole-file checks report the line of the key that set the offending
    // value; the pair check names the later of its two keys.
    if (config.duration <= config.traffic.start) {
      std::ostringstream out;
      out << "duration_s (" << config.duration.toSeconds()
          << ") must be greater than start_s ("
          << config.traffic.start.toSeconds() << ")";
      return fail(std::max(durationLine_, startLine_), out.str());
    }
    const auto outOfRange = [&](const std::vector<net::NodeId>& ids) {
      return std::any_of(ids.begin(), ids.end(), [&](net::NodeId id) {
        return id >= config.nodeCount;
      });
    };
    for (std::size_t g = 0; g < config.groups.size(); ++g) {
      if (outOfRange(config.groups[g].sources)) {
        return fail(groupLines_[g].sources, "source id out of range");
      }
      if (outOfRange(config.groups[g].members)) {
        return fail(groupLines_[g].members, "member id out of range");
      }
    }
    for (const FaultIds& ids : faultIds_) {
      if (ids.node >= config.nodeCount ||
          (ids.peer != net::kInvalidNode && ids.peer >= config.nodeCount)) {
        return fail(ids.line, "fault node id out of range");
      }
    }
    if (outOfRange(config.gatewayNodes)) {
      return fail(gatewayNodesLine_, "gateway node id out of range");
    }
    if (outOfRange(config.churnVictims)) {
      return fail(churnVictimsLine_, "churn victim id out of range");
    }
    return {std::move(config), {}};
  }

 private:
  static ConfigParseResult fail(std::size_t line, const std::string& what) {
    std::ostringstream out;
    out << "config error at line " << line << ": " << what;
    return {std::nullopt, out.str()};
  }

  // A finite number; nan and inf are never a valid setting.
  static std::optional<double> number(std::string_view v) {
    // from_chars(double) needs contiguous chars; value is already trimmed.
    double out{};
    const auto result = std::from_chars(v.data(), v.data() + v.size(), out);
    if (result.ec != std::errc{} || result.ptr != v.data() + v.size() ||
        !std::isfinite(out)) {
      return std::nullopt;
    }
    return out;
  }

  // A whole number in [lo, hi], checked before any cast. Digit strings
  // parse exactly (64-bit seeds keep every bit); other spellings such as
  // "1e3" must be integral doubles.
  static std::optional<std::uint64_t> whole(std::string_view v,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
    std::uint64_t n{};
    const auto exact = std::from_chars(v.data(), v.data() + v.size(), n);
    if (exact.ec != std::errc{} || exact.ptr != v.data() + v.size()) {
      const auto d = number(v);
      // 2^64: the first double past every uint64.
      if (!d || *d != std::floor(*d) || *d < 0.0 || *d >= 0x1p64) {
        return std::nullopt;
      }
      n = static_cast<std::uint64_t>(*d);
    }
    if (n < lo || n > hi) return std::nullopt;
    return n;
  }

  // A time in seconds that SimTime holds without overflow (its range is
  // about ±9.2e9 s): finite and in [0, kMaxSeconds].
  static constexpr double kMaxSeconds = 1e9;
  static std::optional<double> seconds(std::string_view v) {
    const auto s = number(v);
    if (!s || *s < 0.0 || *s > kMaxSeconds) return std::nullopt;
    return s;
  }

  // An interference burst power in dBm: finite, positive and finite in
  // watts, and inside the trace's fixed-point field (offset +300 dBm).
  static std::optional<double> burstDbm(std::string_view v) {
    const auto dbm = number(v);
    if (!dbm || *dbm < -300.0 || *dbm > 300.0) return std::nullopt;
    return dbm;
  }

  static std::optional<bool> boolean(std::string_view v) {
    const std::string s = lower(v);
    if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
    if (s == "false" || s == "0" || s == "no" || s == "off") return false;
    return std::nullopt;
  }

  static std::optional<std::vector<net::NodeId>> idList(std::string_view v) {
    std::vector<net::NodeId> out;
    for (const std::string_view token : splitTokens(v)) {
      const auto id = nodeId(token);
      if (!id) return std::nullopt;
      out.push_back(*id);
    }
    return out;
  }

  std::string scenarioKey(ScenarioConfig& config, const std::string& key,
                          std::string_view value) {
    if (key == "nodes") {
      const auto n = whole(value, 1, net::kMaxNodes);
      if (!n) return "nodes must be a positive integer (at most 65534)";
      config.nodeCount = *n;
      return {};
    }
    if (key == "area") {
      const std::size_t x = value.find('x');
      if (x == std::string_view::npos) return "area must look like 1000x1000";
      const auto w = number(trim(value.substr(0, x)));
      const auto h = number(trim(value.substr(x + 1)));
      if (!w || !h || *w <= 0 || *h <= 0) return "bad area dimensions";
      config.areaWidthM = *w;
      config.areaHeightM = *h;
      return {};
    }
    if (key == "duration_s") {
      const auto d = seconds(value);
      if (!d || *d <= 0) return "duration_s must be positive and at most 1e9";
      config.duration = SimTime::seconds(*d);
      durationLine_ = line_;
      return {};
    }
    if (key == "fading") {
      const std::string f = lower(value);
      if (f == "rayleigh") config.rayleighFading = true;
      else if (f == "none") config.rayleighFading = false;
      else return "fading must be rayleigh or none";
      return {};
    }
    if (key == "seed") {
      const auto s =
          whole(value, 0, std::numeric_limits<std::uint64_t>::max());
      if (!s) return "seed must be a non-negative 64-bit integer";
      config.seed = *s;
      return {};
    }
    if (key == "connected") {
      const auto b = boolean(value);
      if (!b) return "connected must be a boolean";
      config.ensureConnected = *b;
      return {};
    }
    if (key == "rate_control") {
      const std::string r = lower(value);
      if (!rate::controlKindFromString(r.c_str(), config.rateControl)) {
        return "rate_control must be fixed, minstrel, or genie";
      }
      return {};
    }
    if (key == "rate_set") {
      const std::string r = lower(value);
      if (!rate::rateSetFromString(r.c_str(), config.rateSet)) {
        return "rate_set must be basic, 11b, or 11bg";
      }
      return {};
    }
    if (key == "channels") {
      const auto n = whole(value, 1, 255);
      if (!n) return "channels must be an integer in 1..255";
      config.channels = *n;
      return {};
    }
    if (key == "channel_assign") {
      const std::string a = lower(value);
      if (!channelplan::assignStrategyFromString(a.c_str(),
                                                 config.channelAssign)) {
        return "channel_assign must be static or least-congested";
      }
      return {};
    }
    if (key == "domain_workers") {
      // Workers clamp to the channel count, which is at most 255.
      const auto n = whole(value, 1, 255);
      if (!n) return "domain_workers must be an integer in 1..255";
      config.domainWorkers = *n;
      return {};
    }
    if (key == "gateways") {
      const auto n = whole(value, 0, net::kMaxNodes);
      if (!n) return "gateways must be a non-negative count (at most 65534)";
      config.gateways = *n;
      return {};
    }
    if (key == "gateway_select") {
      const std::string s = lower(value);
      if (!gateway::gatewaySelectFromString(s, config.gatewaySelect)) {
        return "gateway_select must be every-k, boundary, or explicit";
      }
      return {};
    }
    if (key == "gateway_nodes") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) return "gateway_nodes must be a list of node ids";
      config.gatewayNodes = *ids;
      gatewayNodesLine_ = line_;
      return {};
    }
    if (key == "switch_slot_ms") {
      const auto n = whole(value, 1, 1'000 * 1'000'000'000ull);
      if (!n) return "switch_slot_ms must be a whole number of ms in 1..1e12";
      config.switchSlot = SimTime::milliseconds(static_cast<std::int64_t>(*n));
      return {};
    }
    if (key == "placement") {
      const std::string p = lower(value);
      if (p == "uniform") config.placement = Placement::UniformRejection;
      else if (p == "grid") config.placement = Placement::Grid;
      else return "placement must be uniform or grid";
      return {};
    }
    return "unknown [scenario] key '" + key + "'";
  }

  std::string protocolKey(ScenarioConfig& config, const std::string& key,
                          std::string_view value) {
    if (key == "routing") {
      const std::string r = lower(value);
      if (r == "odmrp") config.protocol.routing = Routing::Odmrp;
      else if (r == "tree") config.protocol.routing = Routing::Tree;
      else return "routing must be odmrp or tree";
      return {};
    }
    if (key == "metric") {
      const std::string m = lower(value);
      if (m == "none") {
        config.protocol.metric.reset();
        return {};
      }
      for (const auto kind :
           {metrics::MetricKind::Hop, metrics::MetricKind::Etx,
            metrics::MetricKind::Ett, metrics::MetricKind::Pp,
            metrics::MetricKind::Metx, metrics::MetricKind::Spp,
            metrics::MetricKind::BiEtx}) {
        if (m == lower(metrics::toString(kind))) {
          config.protocol.metric = kind;
          return {};
        }
      }
      return "unknown metric '" + std::string{value} + "'";
    }
    if (key == "probe_rate") {
      const auto r = number(value);
      // A huge rate would scale the probe period to 0 ns.
      if (!r || *r <= 0 || *r > 1e6) return "probe_rate must be in (0, 1e6]";
      config.protocol.probeRateScale = *r;
      return {};
    }
    if (key == "adaptive") {
      const auto b = boolean(value);
      if (!b) return "adaptive must be a boolean";
      config.protocol.adaptiveProbing = *b;
      return {};
    }
    return "unknown [protocol] key '" + key + "'";
  }

  std::string trafficKey(ScenarioConfig& config, const std::string& key,
                         std::string_view value) {
    if (key == "payload") {
      const auto n = whole(value, 1, 65535);
      if (!n) return "payload must be a positive byte count (at most 65535)";
      config.traffic.payloadBytes = *n;
      return {};
    }
    if (key == "rate_pps") {
      const auto n = number(value);
      // A huge rate would round the CBR period to 0 ns.
      if (!n || *n <= 0 || *n > 1e6) return "rate_pps must be positive, at most 1e6";
      config.traffic.packetsPerSecond = *n;
      return {};
    }
    if (key == "start_s") {
      const auto n = seconds(value);
      if (!n) return "start_s must be non-negative and at most 1e9";
      config.traffic.start = SimTime::seconds(*n);
      startLine_ = line_;
      return {};
    }
    if (key == "stop_s") {
      const auto n = seconds(value);
      if (!n || *n <= 0) return "stop_s must be positive and at most 1e9";
      config.traffic.stop = SimTime::seconds(*n);
      return {};
    }
    return "unknown [traffic] key '" + key + "'";
  }

  // --- [faults] -----------------------------------------------------------
  //
  //   event = crash <node> @ <start_s> [+<dur_s>]
  //   event = blackout <a>-<b> @ <start_s> [+<dur_s>]
  //   event = loss <a>-<b> <rate> @ <start_s> [+<dur_s>]
  //   event = burst <node> <dbm> @ <start_s> +<dur_s>
  //   event = blackhole <node> @ <start_s> [+<dur_s>]
  //   event = queue_drop <node> @ <start_s> [+<dur_s>]
  //
  // plus seed-defined churn (merged with the explicit events at build):
  //
  //   crashes_per_minute / blackouts_per_minute / bursts_per_minute
  //   mean_outage_s, mean_burst_s, burst_power_dbm, warmup_s
  //   churn_victims = <id list>   (explicit victim roster override)

  static std::vector<std::string_view> splitTokens(std::string_view v) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < v.size()) {
      while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
      if (i >= v.size()) break;
      std::size_t j = i;
      while (j < v.size() && !std::isspace(static_cast<unsigned char>(v[j]))) ++j;
      out.push_back(v.substr(i, j - i));
      i = j;
    }
    return out;
  }

  // The whole token must be the id: "1.5" or "3x" is no id.
  static std::optional<net::NodeId> nodeId(std::string_view v) {
    const auto id = whole(v, 0, 0xFFFF);
    if (!id) return std::nullopt;
    return static_cast<net::NodeId>(*id);
  }

  std::string faultEventSpec(ScenarioConfig& config, std::string_view value) {
    const std::vector<std::string_view> toks = splitTokens(value);
    if (toks.empty()) return "empty fault event";
    fault::FaultEvent event;
    const std::string kindWord = lower(toks[0]);
    if (!trace::faultKindFromString(kindWord.c_str(), event.kind)) {
      return "unknown fault kind '" + kindWord +
             "' (crash/blackout/loss/burst/blackhole/queue_drop)";
    }

    std::size_t i = 1;
    const auto takePair = [&]() -> std::string {
      if (i >= toks.size()) return "expected <a>-<b> node pair";
      const std::size_t dash = toks[i].find('-');
      if (dash == std::string_view::npos) return "expected <a>-<b> node pair";
      const auto a = nodeId(toks[i].substr(0, dash));
      const auto b = nodeId(toks[i].substr(dash + 1));
      if (!a || !b || *a == *b) return "bad node pair '" + std::string{toks[i]} + "'";
      event.node = *a;
      event.peer = *b;
      ++i;
      return {};
    };
    const auto takeNode = [&]() -> std::string {
      if (i >= toks.size()) return "expected a node id";
      const auto id = nodeId(toks[i]);
      if (!id) return "bad node id '" + std::string{toks[i]} + "'";
      event.node = *id;
      ++i;
      return {};
    };

    std::string error;
    switch (event.kind) {
      case trace::FaultKind::NodeCrash:
      case trace::FaultKind::ProbeBlackhole:
      case trace::FaultKind::MacQueueDrop:
        error = takeNode();
        break;
      case trace::FaultKind::LinkBlackout:
        error = takePair();
        break;
      case trace::FaultKind::LossRamp: {
        error = takePair();
        if (error.empty()) {
          if (i >= toks.size()) return "loss needs a rate in [0, 1]";
          const auto rate = number(toks[i]);
          if (!rate || *rate < 0.0 || *rate > 1.0) {
            return "loss rate must be in [0, 1]";
          }
          event.lossRate = *rate;
          ++i;
        }
        break;
      }
      case trace::FaultKind::InterferenceBurst: {
        error = takeNode();
        if (error.empty()) {
          if (i >= toks.size()) return "burst needs a power in dBm";
          const auto dbm = burstDbm(toks[i]);
          if (!dbm) {
            return "bad burst power '" + std::string{toks[i]} +
                   "' (dBm in [-300, 300])";
          }
          event.powerDbm = *dbm;
          ++i;
        }
        break;
      }
    }
    if (!error.empty()) return error;

    if (i >= toks.size() || toks[i] != "@") return "expected '@ <start_s>'";
    ++i;
    if (i >= toks.size()) return "expected a start time after '@'";
    const auto start = seconds(toks[i]);
    if (!start) return "start time must be non-negative and at most 1e9";
    event.start = SimTime::seconds(*start);
    ++i;

    if (i < toks.size()) {
      if (toks[i].front() != '+') return "expected '+<dur_s>' after the start";
      const auto dur = seconds(toks[i].substr(1));
      if (!dur || *dur <= 0.0) return "duration must be positive and at most 1e9";
      event.duration = SimTime::seconds(*dur);
      ++i;
    }
    if (i != toks.size()) return "trailing tokens in fault event";
    if (event.kind == trace::FaultKind::InterferenceBurst &&
        event.duration.isZero()) {
      return "burst requires a '+<dur_s>' window";
    }
    config.faults.add(event);
    faultIds_.push_back(FaultIds{event.node, event.peer, line_});
    return {};
  }

  static fault::ChurnSpec& churnOf(ScenarioConfig& config) {
    if (!config.churn) config.churn.emplace();
    return *config.churn;
  }

  std::string faultsKey(ScenarioConfig& config, const std::string& key,
                        std::string_view value) {
    if (key == "event") return faultEventSpec(config, value);
    if (key == "crashes_per_minute" || key == "blackouts_per_minute" ||
        key == "bursts_per_minute") {
      const auto n = number(value);
      if (!n || *n < 0 || *n > 1e6) {
        return key + " must be non-negative, at most 1e6";
      }
      if (key == "crashes_per_minute") churnOf(config).crashesPerMinute = *n;
      else if (key == "blackouts_per_minute") churnOf(config).blackoutsPerMinute = *n;
      else churnOf(config).burstsPerMinute = *n;
      return {};
    }
    if (key == "mean_outage_s") {
      const auto n = seconds(value);
      if (!n || *n <= 0) return "mean_outage_s must be positive and at most 1e9";
      churnOf(config).meanOutage = SimTime::seconds(*n);
      return {};
    }
    if (key == "mean_burst_s") {
      const auto n = seconds(value);
      if (!n || *n <= 0) return "mean_burst_s must be positive and at most 1e9";
      churnOf(config).meanBurst = SimTime::seconds(*n);
      return {};
    }
    if (key == "burst_power_dbm") {
      const auto n = burstDbm(value);
      if (!n) return "burst_power_dbm must be a number in [-300, 300]";
      churnOf(config).burstPowerDbm = *n;
      return {};
    }
    if (key == "warmup_s") {
      const auto n = seconds(value);
      if (!n) return "warmup_s must be non-negative and at most 1e9";
      churnOf(config).warmup = SimTime::seconds(*n);
      return {};
    }
    if (key == "churn_victims") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) {
        return "churn_victims must be a list of node ids";
      }
      config.churnVictims = *ids;
      churnVictimsLine_ = line_;
      return {};
    }
    return "unknown [faults] key '" + key + "'";
  }

  std::string groupKey(GroupSpec& group, const std::string& key,
                       std::string_view value) {
    if (key == "sources") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) return "sources must be a list of node ids";
      group.sources = *ids;
      groupLines_.back().sources = line_;
      return {};
    }
    if (key == "members") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) return "members must be a list of node ids";
      group.members = *ids;
      groupLines_.back().members = line_;
      return {};
    }
    return "unknown group key '" + key + "'";
  }

  std::string_view text_;
  std::size_t line_{0};  // the line being parsed
  // Lines of the keys whose values the whole-file checks in run() test
  // (0: the key was never set).
  std::size_t durationLine_{0};
  std::size_t startLine_{0};
  struct GroupLines {
    std::size_t sources{0};
    std::size_t members{0};
  };
  std::vector<GroupLines> groupLines_;  // parallel to config.groups
  struct FaultIds {
    net::NodeId node;
    net::NodeId peer;
    std::size_t line;
  };
  std::vector<FaultIds> faultIds_;  // in file order; the schedule sorts
  std::size_t gatewayNodesLine_{0};
  std::size_t churnVictimsLine_{0};
};

}  // namespace

ConfigParseResult parseScenarioConfig(std::string_view text) {
  return Parser{text}.run();
}

ConfigParseResult loadScenarioConfig(const std::string& path) {
  std::ifstream in{path};
  if (!in) return {std::nullopt, "cannot open '" + path + "'"};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseScenarioConfig(buffer.str());
}

}  // namespace mesh::harness
