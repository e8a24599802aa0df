#include "mesh/harness/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace mesh::harness {
namespace {

using V = std::string_view;

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

std::vector<std::string_view> splitTokens(std::string_view v) {
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

// A finite number; nan and inf are never a valid setting.
std::optional<double> number(std::string_view v) {
  // from_chars(double) needs contiguous chars; value is already trimmed.
  double out{};
  const auto result = std::from_chars(v.data(), v.data() + v.size(), out);
  if (result.ec != std::errc{} || result.ptr != v.data() + v.size() ||
      !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

// --- Typed parsers ---------------------------------------------------------
//
// Each stores a valid value into `out` and returns true, or returns false
// and leaves `out` alone (a refused override changes nothing).

// A whole number in [lo, hi], checked before any cast. Digit strings
// parse exactly (64-bit seeds keep every bit); other spellings such as
// "1e3" must be integral doubles.
template <typename T>
bool whole(std::string_view v, std::uint64_t lo, std::uint64_t hi, T& out) {
  std::uint64_t n{};
  const auto exact = std::from_chars(v.data(), v.data() + v.size(), n);
  if (exact.ec != std::errc{} || exact.ptr != v.data() + v.size()) {
    const auto d = number(v);
    // 2^64: the first double past every uint64.
    if (!d || *d != std::floor(*d) || *d < 0.0 || *d >= 0x1p64) return false;
    n = static_cast<std::uint64_t>(*d);
  }
  if (n < lo || n > hi) return false;
  out = static_cast<T>(n);
  return true;
}

// A finite number in [lo, hi].
bool finite(std::string_view v, double lo, double hi, double& out) {
  const auto d = number(v);
  if (!d || *d < lo || *d > hi) return false;
  out = *d;
  return true;
}

// A time in seconds that SimTime holds without overflow (its range is
// about ±9.2e9 s): finite and in [0, 1e9]. When `positive`, it must also
// round to at least 1 ns: 1e-300 s is no positive SimTime.
bool seconds(std::string_view v, bool positive, SimTime& out) {
  double s = 0.0;
  if (!finite(v, 0.0, 1e9, s)) return false;
  const SimTime t = SimTime::seconds(s);
  if (positive && t.isZero()) return false;
  out = t;
  return true;
}

// An interference burst power in dBm: finite, positive and finite in
// watts, and inside the trace's fixed-point field (offset +300 dBm).
bool dbm(std::string_view v, double& out) {
  return finite(v, -300.0, 300.0, out);
}

// One of a fixed set of words, in any case.
template <typename T>
bool word(std::string_view v, std::initializer_list<std::pair<V, T>> words,
          T& out) {
  const std::string w = lower(v);
  for (const auto& [name, value] : words) {
    if (w == name) {
      out = value;
      return true;
    }
  }
  return false;
}

bool boolean(std::string_view v, bool& out) {
  return word(v,
              {{"true", true}, {"1", true}, {"yes", true}, {"on", true},
               {"false", false}, {"0", false}, {"no", false}, {"off", false}},
              out);
}

// A word read by one of the enums' *FromString helpers, in any case.
template <typename T, typename FromString>
bool named(std::string_view v, FromString fromString, T& out) {
  const std::string w = lower(v);
  return fromString(w.c_str(), out);
}

// The whole token must be the id: "1.5" or "3x" is no id.
std::optional<net::NodeId> nodeId(std::string_view v) {
  net::NodeId id{};
  if (!whole(v, 0, 0xFFFF, id)) return std::nullopt;
  return id;
}

// Node ids that one key or fault event wrote, range-checked against the
// final node count once the whole file is read.
struct IdList {
  std::vector<net::NodeId> ids;
  std::size_t line;
  std::string_view label;  // the error is "<label> out of range"
  // Groups opened before it was set: with the label, this names the key
  // (and, for sources and members, the group) that wrote the ids.
  std::size_t groups;
};

struct Parser {
  ScenarioConfig& config;
  std::size_t line{0};  // the line being parsed
  // A custom key's own diagnostic; empty: "<key> <must be…>".
  std::string detail{};
  // The line each key was last set on (absent: never set).
  std::map<std::string_view, std::size_t> lineOf{};
  std::vector<IdList> idLists{};

  std::string run(std::string_view text);
  std::string set(std::string_view section, std::string_view key,
                  std::string_view value);

  static std::string fail(std::size_t at, const std::string& what) {
    return "config error at line " + std::to_string(at) + ": " + what;
  }

  GroupSpec& group() { return config.groups.back(); }

  fault::ChurnSpec& churn() {
    if (!config.churn) config.churn.emplace();
    return *config.churn;
  }

  // A non-empty id list, queued for the range check; setting the same
  // key again replaces its earlier value's check.
  bool ids(std::string_view v, std::string_view label,
           std::vector<net::NodeId>& out) {
    std::vector<net::NodeId> parsed;
    for (const std::string_view token : splitTokens(v)) {
      const auto id = nodeId(token);
      if (!id) return false;
      parsed.push_back(*id);
    }
    if (parsed.empty()) return false;
    out = parsed;
    const std::size_t groups = config.groups.size();
    std::erase_if(idLists, [&](const IdList& list) {
      return list.label == label && list.groups == groups;
    });
    idLists.push_back(IdList{std::move(parsed), line, label, groups});
    return true;
  }

  bool sources(std::string_view v) {
    if (!ids(v, "source id", group().sources)) return false;
    detail = repeatedSourceError(config.groups);
    return detail.empty();
  }

  bool area(std::string_view v) {
    const std::size_t x = v.find('x');
    if (x == std::string_view::npos) return false;
    const auto w = number(trim(v.substr(0, x)));
    const auto h = number(trim(v.substr(x + 1)));
    if (!w || !h || *w <= 0.0 || *h <= 0.0) return false;
    config.areaWidthM = *w;
    config.areaHeightM = *h;
    return true;
  }

  bool metric(std::string_view v) {
    const std::string m = lower(v);
    if (m == "none") {
      config.protocol.metric.reset();
      return true;
    }
    for (const auto kind :
         {metrics::MetricKind::Hop, metrics::MetricKind::Etx,
          metrics::MetricKind::Ett, metrics::MetricKind::Pp,
          metrics::MetricKind::Metx, metrics::MetricKind::Spp,
          metrics::MetricKind::BiEtx}) {
      if (m == lower(metrics::toString(kind))) {
        config.protocol.metric = kind;
        return true;
      }
    }
    detail = "unknown metric '" + std::string{v} + "'";
    return false;
  }

  // --- [faults] event ------------------------------------------------------
  //
  //   event = crash <node> @ <start_s> [+<dur_s>]
  //   event = blackout <a>-<b> @ <start_s> [+<dur_s>]
  //   event = loss <a>-<b> <rate> @ <start_s> [+<dur_s>]
  //   event = burst <node> <dbm> @ <start_s> +<dur_s>
  //   event = blackhole <node> @ <start_s> [+<dur_s>]
  //   event = queue_drop <node> @ <start_s> [+<dur_s>]
  //
  // Returns the diagnostic, or "" once the event is added.
  std::string faultEvent(std::string_view value) {
    const std::vector<std::string_view> toks = splitTokens(value);
    if (toks.empty()) return "empty fault event";
    fault::FaultEvent event;
    if (!named(toks[0], trace::faultKindFromString, event.kind)) {
      return "unknown fault kind '" + lower(toks[0]) +
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
          if (!finite(toks[i], 0.0, 1.0, event.lossRate)) {
            return "loss rate must be in [0, 1]";
          }
          ++i;
        }
        break;
      }
      case trace::FaultKind::InterferenceBurst: {
        error = takeNode();
        if (error.empty()) {
          if (i >= toks.size()) return "burst needs a power in dBm";
          if (!dbm(toks[i], event.powerDbm)) {
            return "bad burst power '" + std::string{toks[i]} +
                   "' (dBm in [-300, 300])";
          }
          ++i;
        }
        break;
      }
    }
    if (!error.empty()) return error;

    if (i >= toks.size() || toks[i] != "@") return "expected '@ <start_s>'";
    ++i;
    if (i >= toks.size()) return "expected a start time after '@'";
    if (!seconds(toks[i], false, event.start)) {
      return "start time must be non-negative and at most 1e9";
    }
    ++i;

    if (i < toks.size()) {
      if (toks[i].front() != '+') return "expected '+<dur_s>' after the start";
      if (!seconds(toks[i].substr(1), true, event.duration)) {
        return "duration must be positive and at most 1e9";
      }
      ++i;
    }
    if (i != toks.size()) return "trailing tokens in fault event";
    if (event.kind == trace::FaultKind::InterferenceBurst &&
        event.duration.isZero()) {
      return "burst requires a '+<dur_s>' window";
    }
    config.faults.add(event);
    IdList ids{{event.node}, line, "fault node id", config.groups.size()};
    if (event.peer != net::kInvalidNode) ids.ids.push_back(event.peer);
    idLists.push_back(std::move(ids));
    return {};
  }
};

// One row per key: its section, its name, the text that follows the name
// when a value is refused (empty: the setter writes Parser::detail), and a
// typed parse-and-store. The [faults] churn keys define a seeded schedule
// that Simulation merges with the explicit events at build.
struct Key {
  std::string_view section;
  std::string_view name;
  std::string_view mustBe;
  bool (*set)(Parser&, std::string_view value);
};

constexpr std::uint64_t kWholeMax = std::numeric_limits<std::uint64_t>::max();

const Key kKeys[] = {
    {"scenario", "nodes", "must be a positive integer (at most 65534)",
     [](Parser& p, V v) { return whole(v, 1, net::kMaxNodes, p.config.nodeCount); }},
    {"scenario", "area", "must look like 1000x1000 (both sides positive)",
     [](Parser& p, V v) { return p.area(v); }},
    {"scenario", "duration_s", "must be positive and at most 1e9",
     [](Parser& p, V v) { return seconds(v, true, p.config.duration); }},
    {"scenario", "fading", "must be rayleigh or none",
     [](Parser& p, V v) {
       return word(v, {{"rayleigh", true}, {"none", false}},
                   p.config.rayleighFading);
     }},
    {"scenario", "seed", "must be a non-negative 64-bit integer",
     [](Parser& p, V v) { return whole(v, 0, kWholeMax, p.config.seed); }},
    {"scenario", "connected", "must be a boolean",
     [](Parser& p, V v) { return boolean(v, p.config.ensureConnected); }},
    {"scenario", "rate_control", "must be fixed, minstrel, or genie",
     [](Parser& p, V v) {
       return named(v, rate::controlKindFromString, p.config.rateControl);
     }},
    {"scenario", "rate_set", "must be basic, 11b, or 11bg",
     [](Parser& p, V v) {
       return named(v, rate::rateSetFromString, p.config.rateSet);
     }},
    {"scenario", "channels", "must be an integer in 1..255",
     [](Parser& p, V v) { return whole(v, 1, 255, p.config.channels); }},
    {"scenario", "channel_assign", "must be static or least-congested",
     [](Parser& p, V v) {
       return named(v, channelplan::assignStrategyFromString,
                    p.config.channelAssign);
     }},
    // Workers clamp to the channel count, which is at most 255.
    {"scenario", "domain_workers", "must be an integer in 1..255",
     [](Parser& p, V v) { return whole(v, 1, 255, p.config.domainWorkers); }},
    {"scenario", "gateways", "must be a non-negative count (at most 65534)",
     [](Parser& p, V v) {
       return whole(v, 0, net::kMaxNodes, p.config.gateways);
     }},
    {"scenario", "gateway_select", "must be every-k, boundary, or explicit",
     [](Parser& p, V v) {
       return named(v, gateway::gatewaySelectFromString,
                    p.config.gatewaySelect);
     }},
    {"scenario", "gateway_nodes", "must be a list of node ids",
     [](Parser& p, V v) {
       return p.ids(v, "gateway node id", p.config.gatewayNodes);
     }},
    {"scenario", "switch_slot_ms", "must be a whole number of ms in 1..1e12",
     [](Parser& p, V v) {
       std::int64_t ms = 0;
       if (!whole(v, 1, 1'000'000'000'000ull, ms)) return false;
       p.config.switchSlot = SimTime::milliseconds(ms);
       return true;
     }},
    {"scenario", "placement", "must be uniform or grid",
     [](Parser& p, V v) {
       return word(v,
                   {{"uniform", Placement::UniformRejection},
                    {"grid", Placement::Grid}},
                   p.config.placement);
     }},
    {"protocol", "routing", "must be odmrp or tree",
     [](Parser& p, V v) {
       return word(v, {{"odmrp", Routing::Odmrp}, {"tree", Routing::Tree}},
                   p.config.protocol.routing);
     }},
    {"protocol", "metric", "", [](Parser& p, V v) { return p.metric(v); }},
    // The bounds keep the scaled probe period inside SimTime and above
    // 0 ns.
    {"protocol", "probe_rate", "must be in [1e-6, 1e6]",
     [](Parser& p, V v) {
       return finite(v, 1e-6, 1e6, p.config.protocol.probeRateScale);
     }},
    {"protocol", "adaptive", "must be a boolean",
     [](Parser& p, V v) {
       return boolean(v, p.config.protocol.adaptiveProbing);
     }},
    {"traffic", "payload", "must be a positive byte count (at most 65535)",
     [](Parser& p, V v) {
       return whole(v, 1, 65535, p.config.traffic.payloadBytes);
     }},
    // The bounds keep the CBR period inside SimTime and above 0 ns.
    {"traffic", "rate_pps", "must be positive, in [1e-6, 1e6]",
     [](Parser& p, V v) {
       return finite(v, 1e-6, 1e6, p.config.traffic.packetsPerSecond);
     }},
    {"traffic", "start_s", "must be non-negative and at most 1e9",
     [](Parser& p, V v) { return seconds(v, false, p.config.traffic.start); }},
    {"traffic", "stop_s", "must be positive and at most 1e9",
     [](Parser& p, V v) { return seconds(v, true, p.config.traffic.stop); }},
    {"faults", "event", "",
     [](Parser& p, V v) {
       p.detail = p.faultEvent(v);
       return p.detail.empty();
     }},
    {"faults", "crashes_per_minute", "must be non-negative, at most 1e6",
     [](Parser& p, V v) {
       return finite(v, 0.0, 1e6, p.churn().crashesPerMinute);
     }},
    {"faults", "blackouts_per_minute", "must be non-negative, at most 1e6",
     [](Parser& p, V v) {
       return finite(v, 0.0, 1e6, p.churn().blackoutsPerMinute);
     }},
    {"faults", "bursts_per_minute", "must be non-negative, at most 1e6",
     [](Parser& p, V v) {
       return finite(v, 0.0, 1e6, p.churn().burstsPerMinute);
     }},
    {"faults", "mean_outage_s", "must be positive and at most 1e9",
     [](Parser& p, V v) { return seconds(v, true, p.churn().meanOutage); }},
    {"faults", "mean_burst_s", "must be positive and at most 1e9",
     [](Parser& p, V v) { return seconds(v, true, p.churn().meanBurst); }},
    {"faults", "burst_power_dbm", "must be a number in [-300, 300]",
     [](Parser& p, V v) { return dbm(v, p.churn().burstPowerDbm); }},
    {"faults", "warmup_s", "must be non-negative and at most 1e9",
     [](Parser& p, V v) { return seconds(v, false, p.churn().warmup); }},
    {"faults", "churn_victims", "must be a list of node ids",
     [](Parser& p, V v) {
       return p.ids(v, "churn victim id", p.config.churnVictims);
     }},
    {"group", "sources", "must be a list of node ids",
     [](Parser& p, V v) { return p.sources(v); }},
    {"group", "members", "must be a list of node ids",
     [](Parser& p, V v) { return p.ids(v, "member id", p.group().members); }},
};

std::string Parser::set(std::string_view section, std::string_view key,
                        std::string_view value) {
  const auto row = std::find_if(
      std::begin(kKeys), std::end(kKeys),
      [&](const Key& k) { return k.section == section && k.name == key; });
  if (row == std::end(kKeys)) {
    const std::string where =
        section == "group" ? "group" : "[" + std::string{section} + "]";
    return "unknown " + where + " key '" + std::string{key} + "'";
  }
  detail.clear();
  if (!row->set(*this, value)) {
    return detail.empty() ? std::string{key} + " " + std::string{row->mustBe}
                          : detail;
  }
  lineOf[row->name] = line;
  return {};
}

std::string Parser::run(std::string_view text) {
  std::string section;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view content = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line;

    const std::size_t hash = content.find('#');
    if (hash != std::string_view::npos) content = content.substr(0, hash);
    content = trim(content);
    if (content.empty()) continue;

    if (content.front() == '[') {
      if (content.back() != ']') return fail(line, "unterminated section header");
      section = lower(trim(content.substr(1, content.size() - 2)));
      if (section.rfind("group", 0) == 0) {
        net::GroupId id{};
        if (!whole(trim(std::string_view{section}.substr(5)), 0, 0xFFFF, id)) {
          return fail(line, "group section needs a numeric id in 0..65535, "
                            "e.g. [group 1]");
        }
        config.groups.push_back(GroupSpec{id, {}, {}});
        section = "group";
      } else if (std::none_of(std::begin(kKeys), std::end(kKeys),
                              [&](const Key& k) { return k.section == section; })) {
        return fail(line, "unknown section [" + section + "]");
      }
      continue;
    }

    const std::size_t eq = content.find('=');
    if (eq == std::string_view::npos) return fail(line, "expected key = value");
    const std::string key = lower(trim(content.substr(0, eq)));
    const std::string_view value = trim(content.substr(eq + 1));
    if (key.empty() || value.empty()) return fail(line, "empty key or value");
    if (section.empty()) return fail(line, "key outside of any section");
    const std::string error = set(section, key, value);
    if (!error.empty()) return fail(line, error);
  }

  if (config.groups.empty()) return "config error: no [group N] sections";
  // Whole-file checks report the line of the key that set the offending
  // value; the pair check names the later of its two keys.
  if (config.duration <= config.traffic.start) {
    std::ostringstream out;
    out << "duration_s (" << config.duration.toSeconds()
        << ") must be greater than start_s ("
        << config.traffic.start.toSeconds() << ")";
    return fail(std::max(lineOf["duration_s"], lineOf["start_s"]), out.str());
  }
  const bool anySource =
      std::any_of(config.groups.begin(), config.groups.end(),
                  [](const GroupSpec& spec) { return !spec.sources.empty(); });
  if (anySource && config.traffic.stop <= config.traffic.start) {
    std::ostringstream out;
    out << "stop_s (" << config.traffic.stop.toSeconds()
        << ") must be greater than start_s ("
        << config.traffic.start.toSeconds() << ")";
    return fail(std::max(lineOf["start_s"], lineOf["stop_s"]), out.str());
  }
  for (const IdList& list : idLists) {
    for (const net::NodeId id : list.ids) {
      if (id >= config.nodeCount) {
        return fail(list.line, std::string{list.label} + " out of range");
      }
    }
  }
  return {};
}

}  // namespace

ConfigParseResult parseScenarioConfig(std::string_view text) {
  ScenarioConfig config;
  // meshsim scenarios default to the paper's radio/MAC/ODMRP parameters.
  config.groups.clear();
  std::string error = Parser{config}.run(text);
  if (!error.empty()) return {std::nullopt, std::move(error)};
  return {std::move(config), {}};
}

ConfigParseResult loadScenarioConfig(const std::string& path) {
  std::ifstream in{path};
  if (!in) return {std::nullopt, "cannot open '" + path + "'"};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseScenarioConfig(buffer.str());
}

std::string applyScenarioKey(ScenarioConfig& config, std::string_view key,
                             std::string_view value) {
  return Parser{config}.set("scenario", key, trim(value));
}

}  // namespace mesh::harness
