#include "mesh/trace/trace_reader.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

namespace mesh::trace {
namespace {

// Locates the first character of the value for `"key":`. Our lines are
// flat objects whose keys never appear inside string values, so a plain
// substring scan is sound.
bool findValue(std::string_view line, std::string_view key,
               std::string_view& value) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern.push_back('"');
  pattern.append(key);
  pattern.append("\":");
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return false;
  value = line.substr(at + pattern.size());
  return !value.empty();
}

// The raw text of a flat value: up to the next ',' or '}'.
std::string tokenOf(std::string_view value) {
  return std::string{value.substr(0, value.find_first_of(",}"))};
}

// Reads a present real field, whole and finite, into `out` if it lies in
// [lo, hi]; otherwise sets `error` (unless an earlier field set it) in the
// form `narrow` uses. An absent field reads, leaving `out` alone.
bool readReal(std::string_view line, const char* key, double lo, double hi,
              double& out, std::string& error) {
  std::string_view value;
  if (!findValue(line, key, value)) return true;
  double v = 0.0;
  if (jsonFindDouble(line, key, v) && std::isfinite(v) && v >= lo && v <= hi) {
    out = v;
    return true;
  }
  if (!error.empty()) return false;
  char range[64];
  if (std::isinf(hi)) {
    std::snprintf(range, sizeof(range), ">= %g", lo);
  } else {
    std::snprintf(range, sizeof(range), "in %g..%g", lo, hi);
  }
  error = std::string{"\""} + key + "\" must be a number " + range +
          ", got " + tokenOf(value);
  return false;
}

bool kindFromString(const std::string& text, net::PacketKind& out) {
  for (int i = 0; i <= static_cast<int>(net::PacketKind::MacControl); ++i) {
    const auto kind = static_cast<net::PacketKind>(i);
    if (text == net::toString(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

bool jsonFindInt(std::string_view line, std::string_view key,
                 std::int64_t& out) {
  std::string_view value;
  if (!findValue(line, key, value)) return false;
  const std::string token = tokenOf(value);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || token.empty() || end != token.c_str() + token.size()) {
    return false;
  }
  out = v;
  return true;
}

bool jsonFindUint(std::string_view line, std::string_view key,
                  std::uint64_t& out) {
  std::int64_t v = 0;
  if (!jsonFindInt(line, key, v) || v < 0) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool jsonFindDouble(std::string_view line, std::string_view key, double& out) {
  std::string_view value;
  if (!findValue(line, key, value)) return false;
  const std::string token = tokenOf(value);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (errno != 0 || token.empty() || end != token.c_str() + token.size()) {
    return false;
  }
  out = v;
  return true;
}

bool jsonFindBool(std::string_view line, std::string_view key, bool& out) {
  std::string_view value;
  if (!findValue(line, key, value)) return false;
  if (value.substr(0, 4) == "true") {
    out = true;
    return true;
  }
  if (value.substr(0, 5) == "false") {
    out = false;
    return true;
  }
  return false;
}

bool jsonFindString(std::string_view line, std::string_view key,
                    std::string& out) {
  std::string_view value;
  if (!findValue(line, key, value)) return false;
  if (value.front() != '"') return false;
  out.clear();
  for (std::size_t i = 1; i < value.size(); ++i) {
    const char c = value[i];
    if (c == '"') return true;
    if (c == '\\' && i + 1 < value.size()) {
      const char next = value[++i];
      switch (next) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default: out.push_back(next); break;  // \" \\ \/ and anything else
      }
    } else {
      out.push_back(c);
    }
  }
  return false;  // unterminated string
}

TraceReadResult readTraceFile(const std::string& path) {
  TraceReadResult result;
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    result.error = "cannot open trace file: " + path;
    return result;
  }
  ParsedTrace trace;
  bool sawMeta = false;
  std::string line;
  char buf[1024];
  std::size_t lineNo = 0;
  auto fail = [&](const std::string& what) {
    result.error = path + ":" + std::to_string(lineNo) + ": " + what;
    std::fclose(in);
    return result;
  };
  while (true) {
    line.clear();
    // fgets loop so over-long lines (none expected) still parse.
    bool eof = true;
    while (std::fgets(buf, sizeof(buf), in) != nullptr) {
      eof = false;
      line.append(buf);
      if (!line.empty() && line.back() == '\n') {
        line.pop_back();
        break;
      }
    }
    if (eof && line.empty()) break;
    ++lineNo;
    if (line.empty()) continue;

    std::string text;
    std::string badField;
    std::uint64_t u = 0;
    if (!sawMeta) {
      // First line is the meta object.
      if (!readReal(line, "active_s", 0.0, HUGE_VAL, trace.activeS, badField)) {
        return fail(badField);
      }
      if (!jsonFindUint(line, "seed", trace.seed) ||
          !jsonFindString(line, "protocol", trace.protocol) ||
          !jsonFindUint(line, "nodes", trace.nodes) ||
          !jsonFindDouble(line, "active_s", trace.activeS)) {
        return fail("malformed meta line");
      }
      sawMeta = true;
      continue;
    }
    if (jsonFindString(line, "counter", text)) {
      if (!jsonFindUint(line, "value", u)) return fail("counter without value");
      trace.counters.emplace_back(text, u);
      continue;
    }
    ParsedRecord record;
    if (!jsonFindInt(line, "t", record.timeNs) ||
        !jsonFindString(line, "ev", text)) {
      return fail("malformed record line");
    }
    if (!eventTypeFromString(text.c_str(), record.type)) {
      return fail("unknown event type: " + text);
    }
    // Narrows a present unsigned field into its record field. A value
    // outside [0, max] is an error, never truncated or dropped: 65547 must
    // not read as node 11, nor -1 as an absent pid.
    const auto narrow = [&](const char* key, std::uint64_t max, auto& out) {
      std::string_view value;
      if (!findValue(line, key, value)) return false;
      std::int64_t v = 0;
      if (!jsonFindInt(line, key, v) || v < 0 ||
          static_cast<std::uint64_t>(v) > max) {
        if (badField.empty()) {
          badField = std::string{"\""} + key + "\" must be an integer in 0.." +
                     std::to_string(max) + ", got " + tokenOf(value);
        }
        return false;
      }
      out = static_cast<std::remove_reference_t<decltype(out)>>(v);
      return true;
    };
    constexpr std::uint64_t kMaxId = 0xFFFF;
    constexpr std::uint64_t kMaxU32 = 0xFFFFFFFF;
    constexpr std::uint64_t kMaxChannel = 254;
    if (!narrow("node", kMaxId, record.node)) {
      return fail(badField.empty() ? "record without node" : badField);
    }
    narrow("pid", kMaxU32, record.pid);
    narrow("bytes", kMaxU32, record.bytes);
    if (jsonFindString(line, "kind", text) &&
        !kindFromString(text, record.kind)) {
      return fail("unknown packet kind: " + text);
    }
    narrow("origin", kMaxId, record.origin);
    narrow("group", kMaxId, record.group);
    if (record.type == EventType::Drop) {
      if (!jsonFindString(line, "reason", text) ||
          !dropReasonFromString(text.c_str(), record.reason)) {
        return fail("drop record without a known reason");
      }
    }
    if (record.type == EventType::FaultInject ||
        record.type == EventType::FaultClear) {
      if (!jsonFindString(line, "fault", text) ||
          !faultKindFromString(text.c_str(), record.fault)) {
        return fail("fault record without a known kind");
      }
      narrow("peer", kMaxId, record.peer);
      // The config's ranges: a loss rate and a burst power.
      if (!readReal(line, "loss", 0.0, 1.0, record.loss, badField) ||
          !readReal(line, "dbm", -300.0, 300.0, record.dbm, badField)) {
        return fail(badField);
      }
    }
    if (record.type == EventType::GatewayHandoff &&
        !narrow("src_ch", kMaxChannel, record.srcChannel) &&
        badField.empty()) {
      return fail("gateway_handoff record without src_ch");
    }
    narrow("rate", 0xFF, record.rate);
    narrow("channel", kMaxChannel, record.channel);
    if (!badField.empty()) return fail(badField);
    trace.records.push_back(record);
  }
  std::fclose(in);
  if (!sawMeta) {
    result.error = path + ": empty trace (no meta line)";
    return result;
  }
  result.trace = std::move(trace);
  return result;
}

namespace {

// Nanoseconds -> the shortest decimal-seconds string that parses back to
// the same instant ("12", "12.5", "0.0305"). The config grammar takes
// seconds, so this is what makes the emitted section round-trip exactly.
std::string secondsString(std::int64_t ns) {
  char buf[40];
  const std::int64_t whole = ns / 1000000000;
  const std::int64_t frac = ns % 1000000000;
  if (frac == 0) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(whole));
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%lld.%09lld", static_cast<long long>(whole),
                static_cast<long long>(frac));
  std::string out{buf};
  while (out.back() == '0') out.pop_back();
  return out;
}

}  // namespace

std::string faultSectionFromTrace(const ParsedTrace& trace) {
  std::string out = "[faults]\n";
  std::vector<bool> claimed(trace.records.size(), false);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const ParsedRecord& r = trace.records[i];
    if (r.type != EventType::FaultInject) continue;
    // Pair with the first later unclaimed clear of the same fault identity;
    // first-match is correct because the injector never overlaps two
    // instances of the identical (kind, node, peer) fault.
    std::int64_t clearNs = -1;
    for (std::size_t j = i + 1; j < trace.records.size(); ++j) {
      const ParsedRecord& c = trace.records[j];
      if (claimed[j] || c.type != EventType::FaultClear) continue;
      if (c.fault != r.fault || c.node != r.node || c.peer != r.peer) continue;
      claimed[j] = true;
      clearNs = c.timeNs;
      break;
    }
    std::string line = "event = ";
    line += toString(r.fault);
    char mid[64];
    switch (r.fault) {
      case FaultKind::LinkBlackout:
        std::snprintf(mid, sizeof(mid), " %u-%u", r.node, r.peer);
        break;
      case FaultKind::LossRamp:
        std::snprintf(mid, sizeof(mid), " %u-%u %.6g", r.node, r.peer, r.loss);
        break;
      case FaultKind::InterferenceBurst:
        std::snprintf(mid, sizeof(mid), " %u %.6g", r.node, r.dbm);
        break;
      default:  // NodeCrash, ProbeBlackhole: just the victim
        std::snprintf(mid, sizeof(mid), " %u", r.node);
        break;
    }
    line += mid;
    line += " @ ";
    line += secondsString(r.timeNs);
    if (clearNs >= 0) {
      line += " +";
      line += secondsString(clearNs - r.timeNs);
    }
    line += '\n';
    out += line;
  }
  return out;
}

}  // namespace mesh::trace
