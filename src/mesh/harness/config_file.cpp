#include "mesh/harness/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
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

    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text_.size()) {
      const std::size_t eol = text_.find('\n', pos);
      std::string_view line = text_.substr(
          pos, eol == std::string_view::npos ? text_.size() - pos : eol - pos);
      pos = eol == std::string_view::npos ? text_.size() + 1 : eol + 1;
      ++lineNo;

      const std::size_t hash = line.find('#');
      if (hash != std::string_view::npos) line = line.substr(0, hash);
      line = trim(line);
      if (line.empty()) continue;

      if (line.front() == '[') {
        if (line.back() != ']') return fail(lineNo, "unterminated section header");
        section = lower(trim(line.substr(1, line.size() - 2)));
        group = nullptr;
        if (section.rfind("group", 0) == 0) {
          const std::string_view idText = trim(std::string_view{section}.substr(5));
          int id = 0;
          if (idText.empty() ||
              std::from_chars(idText.data(), idText.data() + idText.size(), id).ec !=
                  std::errc{}) {
            return fail(lineNo, "group section needs a numeric id, e.g. [group 1]");
          }
          config.groups.push_back(GroupSpec{static_cast<net::GroupId>(id), {}, {}});
          group = &config.groups.back();
        } else if (section != "scenario" && section != "protocol" &&
                   section != "traffic" && section != "faults") {
          return fail(lineNo, "unknown section [" + section + "]");
        }
        continue;
      }

      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) return fail(lineNo, "expected key = value");
      const std::string key = lower(trim(line.substr(0, eq)));
      const std::string_view value = trim(line.substr(eq + 1));
      if (key.empty() || value.empty()) return fail(lineNo, "empty key or value");

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
      if (!error.empty()) return fail(lineNo, error);
    }

    if (config.groups.empty()) {
      return {std::nullopt, "config error: no [group N] sections"};
    }
    for (const GroupSpec& g : config.groups) {
      for (const net::NodeId id : g.sources) {
        if (id >= config.nodeCount) {
          return {std::nullopt, "config error: source id out of range"};
        }
      }
      for (const net::NodeId id : g.members) {
        if (id >= config.nodeCount) {
          return {std::nullopt, "config error: member id out of range"};
        }
      }
    }
    for (const fault::FaultEvent& event : config.faults.events()) {
      if (event.node >= config.nodeCount ||
          (event.peer != net::kInvalidNode && event.peer >= config.nodeCount)) {
        return {std::nullopt, "config error: fault node id out of range"};
      }
    }
    for (const net::NodeId id : config.gatewayNodes) {
      if (id >= config.nodeCount) {
        return {std::nullopt, "config error: gateway node id out of range"};
      }
    }
    for (const net::NodeId id : config.churnVictims) {
      if (id >= config.nodeCount) {
        return {std::nullopt, "config error: churn victim id out of range"};
      }
    }
    return {std::move(config), {}};
  }

 private:
  static ConfigParseResult fail(std::size_t line, const std::string& what) {
    std::ostringstream out;
    out << "config error at line " << line << ": " << what;
    return {std::nullopt, out.str()};
  }

  static std::optional<double> number(std::string_view v) {
    // from_chars(double) needs contiguous chars; value is already trimmed.
    double out{};
    const auto result = std::from_chars(v.data(), v.data() + v.size(), out);
    if (result.ec != std::errc{} || result.ptr != v.data() + v.size()) {
      return std::nullopt;
    }
    return out;
  }

  static std::optional<bool> boolean(std::string_view v) {
    const std::string s = lower(v);
    if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
    if (s == "false" || s == "0" || s == "no" || s == "off") return false;
    return std::nullopt;
  }

  static std::optional<std::vector<net::NodeId>> idList(std::string_view v) {
    std::vector<net::NodeId> out;
    std::size_t i = 0;
    while (i < v.size()) {
      while (i < v.size() && std::isspace(static_cast<unsigned char>(v[i]))) ++i;
      if (i >= v.size()) break;
      std::size_t j = i;
      while (j < v.size() && !std::isspace(static_cast<unsigned char>(v[j]))) ++j;
      int id{};
      if (std::from_chars(v.data() + i, v.data() + j, id).ec != std::errc{} ||
          id < 0 || id > 0xFFFF) {
        return std::nullopt;
      }
      out.push_back(static_cast<net::NodeId>(id));
      i = j;
    }
    return out;
  }

  std::string scenarioKey(ScenarioConfig& config, const std::string& key,
                          std::string_view value) {
    if (key == "nodes") {
      const auto n = number(value);
      if (!n || *n < 1) return "nodes must be a positive integer";
      config.nodeCount = static_cast<std::size_t>(*n);
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
      const auto d = number(value);
      if (!d || *d <= 0) return "duration_s must be positive";
      config.duration = SimTime::seconds(*d);
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
      const auto s = number(value);
      if (!s || *s < 0) return "seed must be a non-negative integer";
      config.seed = static_cast<std::uint64_t>(*s);
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
      const auto n = number(value);
      if (!n || *n < 1 || *n > 255) return "channels must be 1..255";
      config.channels = static_cast<std::size_t>(*n);
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
      const auto n = number(value);
      if (!n || *n < 1) return "domain_workers must be a positive integer";
      config.domainWorkers = static_cast<std::size_t>(*n);
      return {};
    }
    if (key == "gateways") {
      const auto n = number(value);
      if (!n || *n < 0) return "gateways must be a non-negative count";
      config.gateways = static_cast<std::size_t>(*n);
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
      return {};
    }
    if (key == "switch_slot_ms") {
      const auto n = number(value);
      if (!n || *n <= 0) return "switch_slot_ms must be positive";
      config.switchSlot = SimTime::milliseconds(static_cast<std::int64_t>(*n));
      if (config.switchSlot.isZero()) return "switch_slot_ms must be >= 1";
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
      if (!r || *r <= 0) return "probe_rate must be positive";
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
      const auto n = number(value);
      if (!n || *n < 1) return "payload must be a positive byte count";
      config.traffic.payloadBytes = static_cast<std::size_t>(*n);
      return {};
    }
    if (key == "rate_pps") {
      const auto n = number(value);
      if (!n || *n <= 0) return "rate_pps must be positive";
      config.traffic.packetsPerSecond = *n;
      return {};
    }
    if (key == "start_s") {
      const auto n = number(value);
      if (!n || *n < 0) return "start_s must be non-negative";
      config.traffic.start = SimTime::seconds(*n);
      return {};
    }
    if (key == "stop_s") {
      const auto n = number(value);
      if (!n || *n <= 0) return "stop_s must be positive";
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

  static std::optional<net::NodeId> nodeId(std::string_view v) {
    int id{};
    if (std::from_chars(v.data(), v.data() + v.size(), id).ec != std::errc{} ||
        id < 0 || id > 0xFFFF) {
      return std::nullopt;
    }
    return static_cast<net::NodeId>(id);
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
          const auto dbm = number(toks[i]);
          if (!dbm) return "bad burst power '" + std::string{toks[i]} + "'";
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
    const auto start = number(toks[i]);
    if (!start || *start < 0.0) return "start time must be non-negative";
    event.start = SimTime::seconds(*start);
    ++i;

    if (i < toks.size()) {
      if (toks[i].front() != '+') return "expected '+<dur_s>' after the start";
      const auto dur = number(toks[i].substr(1));
      if (!dur || *dur <= 0.0) return "duration must be positive";
      event.duration = SimTime::seconds(*dur);
      ++i;
    }
    if (i != toks.size()) return "trailing tokens in fault event";
    if (event.kind == trace::FaultKind::InterferenceBurst &&
        event.duration.isZero()) {
      return "burst requires a '+<dur_s>' window";
    }
    config.faults.add(event);
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
      if (!n || *n < 0) return key + " must be non-negative";
      if (key == "crashes_per_minute") churnOf(config).crashesPerMinute = *n;
      else if (key == "blackouts_per_minute") churnOf(config).blackoutsPerMinute = *n;
      else churnOf(config).burstsPerMinute = *n;
      return {};
    }
    if (key == "mean_outage_s") {
      const auto n = number(value);
      if (!n || *n <= 0) return "mean_outage_s must be positive";
      churnOf(config).meanOutage = SimTime::seconds(*n);
      return {};
    }
    if (key == "mean_burst_s") {
      const auto n = number(value);
      if (!n || *n <= 0) return "mean_burst_s must be positive";
      churnOf(config).meanBurst = SimTime::seconds(*n);
      return {};
    }
    if (key == "burst_power_dbm") {
      const auto n = number(value);
      if (!n) return "burst_power_dbm must be a number";
      churnOf(config).burstPowerDbm = *n;
      return {};
    }
    if (key == "warmup_s") {
      const auto n = number(value);
      if (!n || *n < 0) return "warmup_s must be non-negative";
      churnOf(config).warmup = SimTime::seconds(*n);
      return {};
    }
    if (key == "churn_victims") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) {
        return "churn_victims must be a list of node ids";
      }
      config.churnVictims = *ids;
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
      return {};
    }
    if (key == "members") {
      const auto ids = idList(value);
      if (!ids || ids->empty()) return "members must be a list of node ids";
      group.members = *ids;
      return {};
    }
    return "unknown group key '" + key + "'";
  }

  std::string_view text_;
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
