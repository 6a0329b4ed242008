#include "core/churn.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/parse.h"

namespace bamboo::core {

const char* churn_kind_name(ChurnKind kind) {
  switch (kind) {
    case ChurnKind::kLinkDegrade: return "degrade";
    case ChurnKind::kLinkRestore: return "restore";
    case ChurnKind::kPartitionStart: return "partition";
    case ChurnKind::kPartitionHeal: return "heal";
    case ChurnKind::kLossBurst: return "burst";
    case ChurnKind::kFluctuation: return "fluct";
    case ChurnKind::kCrash: return "crash";
    case ChurnKind::kCrashRestart: return "crash-restart";
    case ChurnKind::kSilence: return "silence";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(const std::string& event, const std::string& why) {
  throw std::invalid_argument("churn event '" + event + "': " + why);
}

using util::split;

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

double parse_number(const std::string& text, const std::string& event,
                    const std::string& what) {
  const std::optional<double> v = util::parse_finite_double(text);
  if (!v) fail(event, "bad " + what + ": '" + text + "'");
  return *v;
}

std::uint32_t parse_id(const std::string& text, const std::string& event,
                       const std::string& what) {
  const double v = parse_number(text, event, what);
  // Range-check BEFORE the cast: double -> uint32 of an unrepresentable
  // value is UB, not a detectable wrap. Every uint32 is exact in double.
  if (v < 0 || v > 4294967295.0 || v != std::floor(v)) {
    fail(event, what + " must be a non-negative integer: '" + text + "'");
  }
  return static_cast<std::uint32_t>(v);
}

/// Split "<number>s" / "<number>ms" into (value, is_ms). The value is
/// returned in the unit the user WROTE and scaled by the caller exactly
/// once — the canonical formatter emits each field in its native unit
/// (times in s, delays in ms), so canonical strings re-parse with no
/// scaling at all and the DSL round-trip is bit-exact.
double parse_unit(const std::string& text, const std::string& event,
                  const std::string& what, bool& is_ms) {
  std::string num = text;
  if (num.size() > 2 && num.compare(num.size() - 2, 2, "ms") == 0) {
    is_ms = true;
    num.resize(num.size() - 2);
  } else if (num.size() > 1 && num.back() == 's') {
    is_ms = false;
    num.pop_back();
  } else {
    fail(event, what + " needs an 's' or 'ms' unit: '" + text + "'");
  }
  return parse_number(num, event, what);
}

/// "<number>s" | "<number>ms" -> seconds.
double parse_time_s(const std::string& text, const std::string& event,
                    const std::string& what) {
  bool is_ms = false;
  const double v = parse_unit(text, event, what, is_ms);
  return is_ms ? v * 1e-3 : v;
}

/// "<number>s" | "<number>ms" -> milliseconds.
double parse_time_ms(const std::string& text, const std::string& event,
                     const std::string& what) {
  bool is_ms = false;
  const double v = parse_unit(text, event, what, is_ms);
  return is_ms ? v : v * 1e3;
}

/// Parse a "<target>=<value>" arg into the event's target fields.
/// Returns false if `arg` is not a target form.
bool parse_target(const std::string& arg, ChurnEvent& ev,
                  const std::string& event) {
  if (arg == "leader") {
    ev.target = ChurnTarget::kLeader;
    ev.a = 0;
    return true;
  }
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);
  if (key == "link") {
    ev.target = ChurnTarget::kLink;
    std::size_t sep = value.find('>');
    ev.directed = sep != std::string::npos;
    if (!ev.directed) sep = value.find('-', 1);  // skip a leading sign
    if (sep == std::string::npos) {
      fail(event, "link target wants 'A-B' or 'A>B': '" + value + "'");
    }
    ev.a = parse_id(value.substr(0, sep), event, "link endpoint");
    ev.b = parse_id(value.substr(sep + 1), event, "link endpoint");
    if (ev.a == ev.b) fail(event, "link endpoints must differ");
    return true;
  }
  if (key == "replica") {
    ev.target = ChurnTarget::kReplica;
    ev.a = parse_id(value, event, "replica id");
    return true;
  }
  if (key == "region") {
    const std::size_t slash = value.find('/');
    if (slash == std::string::npos) {
      fail(event, "region target wants 'R/N' (region R of N): '" + value +
                      "'");
    }
    ev.target = ChurnTarget::kRegion;
    ev.region = parse_id(value.substr(0, slash), event, "region id");
    ev.regions = parse_id(value.substr(slash + 1), event, "region count");
    if (ev.regions < 1) fail(event, "region count must be >= 1");
    if (ev.region >= ev.regions) {
      fail(event, "region id " + value.substr(0, slash) +
                      " out of range for " + std::to_string(ev.regions) +
                      " regions");
    }
    return true;
  }
  if (key == "leader") {
    if (value == "follow") {
      ev.target = ChurnTarget::kLeaderFollow;
      ev.a = 0;
      return true;
    }
    ev.target = ChurnTarget::kLeader;
    ev.a = parse_id(value, event, "replica id");
    return true;
  }
  return false;
}

std::vector<std::vector<std::uint32_t>> parse_groups(
    const std::string& value, const std::string& event,
    const std::string& what) {
  std::vector<std::vector<std::uint32_t>> groups;
  for (const std::string& part : split(value, '|')) {
    std::vector<std::uint32_t> members;
    for (const std::string& id : split(part, '-')) {
      members.push_back(parse_id(id, event, what + " member"));
    }
    if (members.empty()) fail(event, "empty " + what + " group");
    groups.push_back(std::move(members));
  }
  if (groups.size() < 2) {
    fail(event, what + " needs at least two '|'-separated groups");
  }
  return groups;
}

ChurnEvent parse_event(const std::string& raw) {
  const std::string text = trim(raw);
  const std::vector<std::string> parts = split(text, ':');
  const std::string& head = parts[0];
  const std::size_t at = head.find('@');
  if (at == std::string::npos) {
    fail(text, "expected '<kind>@<time>'");
  }
  const std::string kind_name = head.substr(0, at);

  ChurnEvent ev;
  const std::string when = head.substr(at + 1);
  if (when == "timeout") {
    // Conditional trigger: fires at the first observed pacemaker timeout.
    // Must be recognized before parse_time_s, which demands an s/ms unit.
    ev.on_timeout = true;
    ev.at_s = 0;
  } else {
    ev.at_s = parse_time_s(when, text, "event time");
    if (ev.at_s < 0) fail(text, "event time must be >= 0");
  }

  bool have_target = false, have_delta = false, have_loss = false,
       have_for = false, have_lo = false, have_hi = false,
       have_replica = false, have_every = false;

  const auto parse_common = [&](const std::string& arg) {
    if (arg.empty()) fail(text, "empty argument");
    if (arg[0] == '+' || arg[0] == '-') {
      if (have_delta) fail(text, "duplicate delay delta");
      have_delta = true;
      ev.extra_ms = parse_time_ms(arg, text, "delay delta");
      return;
    }
    const std::size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "loss") {
      if (have_loss) fail(text, "duplicate loss=");
      have_loss = true;
      ev.loss = parse_number(value, text, "loss probability");
      if (ev.loss < 0 || ev.loss >= 1) {
        fail(text, "loss probability must be in [0, 1)");
      }
    } else if (key == "for") {
      if (have_for) fail(text, "duplicate for=");
      have_for = true;
      ev.for_s = parse_time_s(value, text, "window length");
      if (ev.for_s <= 0) fail(text, "window length must be > 0");
    } else if (key == "lo") {
      if (have_lo) fail(text, "duplicate lo=");
      have_lo = true;
      ev.lo_ms = parse_time_ms(value, text, "fluctuation lower bound");
    } else if (key == "hi") {
      if (have_hi) fail(text, "duplicate hi=");
      have_hi = true;
      ev.hi_ms = parse_time_ms(value, text, "fluctuation upper bound");
    } else if (key == "every") {
      if (have_every) fail(text, "duplicate every=");
      have_every = true;
      ev.every_s = parse_time_s(value, text, "repeat period");
      if (ev.every_s <= 0) fail(text, "repeat period must be > 0");
    } else if (parse_target(arg, ev, text)) {
      if (have_target) fail(text, "duplicate target");
      have_target = true;
      have_replica = ev.target == ChurnTarget::kReplica;
    } else {
      fail(text, "unknown argument '" + arg + "'");
    }
  };

  if (kind_name == "degrade") {
    ev.kind = ChurnKind::kLinkDegrade;
    for (std::size_t i = 1; i < parts.size(); ++i) parse_common(parts[i]);
    // No target = every link (kAll), mirroring restore/burst — so any
    // engine-accepted event round-trips through the DSL.
    if (!have_delta) fail(text, "degrade needs a delay delta (e.g. '+40ms')");
    if (have_loss || have_for || have_lo || have_hi) {
      fail(text, "degrade takes only a target, a delay delta and every=");
    }
  } else if (kind_name == "restore") {
    ev.kind = ChurnKind::kLinkRestore;
    for (std::size_t i = 1; i < parts.size(); ++i) parse_common(parts[i]);
    if (have_delta || have_loss || have_for || have_lo || have_hi) {
      fail(text, "restore takes only an optional target");
    }
  } else if (kind_name == "partition") {
    ev.kind = ChurnKind::kPartitionStart;
    std::uint32_t of = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string& arg = parts[i];
      const std::size_t eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg : arg.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      if (key == "groups") {
        if (!ev.groups.empty()) fail(text, "duplicate groups");
        ev.groups = parse_groups(value, text, "replica");
      } else if (key == "regions") {
        if (!ev.groups.empty()) fail(text, "duplicate groups");
        ev.groups = parse_groups(value, text, "region");
        ev.regions = 1;  // marked region-form; patched by of= below
      } else if (key == "of") {
        of = parse_id(value, text, "region count");
      } else {
        fail(text, "unknown argument '" + arg + "'");
      }
    }
    if (ev.groups.empty()) {
      fail(text, "partition needs groups=… or regions=…:of=N");
    }
    if (ev.regions > 0) {  // region form
      if (of < 1) fail(text, "regions=… needs of=<region count>");
      ev.regions = of;
      for (const auto& group : ev.groups) {
        for (std::uint32_t r : group) {
          if (r >= ev.regions) {
            fail(text, "region id " + std::to_string(r) +
                           " out of range for " + std::to_string(ev.regions) +
                           " regions");
          }
        }
      }
    } else if (of != 0) {
      fail(text, "of= only applies to regions=… groups");
    }
  } else if (kind_name == "heal") {
    ev.kind = ChurnKind::kPartitionHeal;
    if (parts.size() > 1) fail(text, "heal takes no arguments");
  } else if (kind_name == "burst") {
    ev.kind = ChurnKind::kLossBurst;
    for (std::size_t i = 1; i < parts.size(); ++i) parse_common(parts[i]);
    if (!have_loss) fail(text, "burst needs loss=<probability>");
    if (!have_for) fail(text, "burst needs for=<duration>");
    if (have_delta || have_lo || have_hi) {
      fail(text, "burst takes a target, loss=, for= and every= only");
    }
    if (ev.target == ChurnTarget::kLeaderFollow) {
      fail(text, "leader=follow is only valid on degrade/restore");
    }
  } else if (kind_name == "fluct") {
    ev.kind = ChurnKind::kFluctuation;
    for (std::size_t i = 1; i < parts.size(); ++i) parse_common(parts[i]);
    // All three window parameters are mandatory: the old FaultPlan
    // silently ignored a half-specified fluctuation window, which is
    // exactly the bug this parser refuses to reproduce.
    if (!have_for || !have_lo || !have_hi) {
      fail(text, "fluct needs all of for=, lo= and hi= (half-specified "
                 "windows are rejected, not ignored)");
    }
    if (have_target || have_delta || have_loss) {
      fail(text, "fluct takes for=, lo= and hi= only");
    }
    if (ev.lo_ms < 0 || ev.hi_ms < ev.lo_ms) {
      fail(text, "fluctuation bounds want 0 <= lo <= hi");
    }
  } else if (kind_name == "crash" || kind_name == "silence" ||
             kind_name == "crash-restart") {
    ev.kind = kind_name == "crash"
                  ? ChurnKind::kCrash
                  : kind_name == "silence" ? ChurnKind::kSilence
                                           : ChurnKind::kCrashRestart;
    for (std::size_t i = 1; i < parts.size(); ++i) parse_common(parts[i]);
    if (!have_replica) fail(text, kind_name + " needs replica=<id>");
    if (ev.kind == ChurnKind::kCrashRestart) {
      if (have_delta || have_loss || have_lo || have_hi || have_every) {
        fail(text, "crash-restart takes replica=<id> and an optional "
                   "for=<downtime> only");
      }
    } else if (have_delta || have_loss || have_for || have_lo || have_hi ||
               have_every) {
      fail(text, kind_name + " takes only replica=<id>");
    }
  } else {
    fail(text, "unknown event kind '" + kind_name + "'");
  }
  if (ev.on_timeout && ev.kind != ChurnKind::kLinkDegrade &&
      ev.kind != ChurnKind::kCrash && ev.kind != ChurnKind::kCrashRestart) {
    fail(text, "@timeout is only valid on degrade, crash and crash-restart");
  }
  if (ev.on_timeout && ev.every_s > 0) {
    fail(text, "@timeout events are one-shot: every= is not allowed");
  }
  return ev;
}

/// Shortest decimal that round-trips the double exactly (std::to_chars):
/// "0.3" stays "0.3" in the canonical DSL, not "0.29999999999999999",
/// while parse_churn(format_churn(s)) == s still holds bit-for-bit.
std::string num(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::to_string(v);
}

std::string format_target(const ChurnEvent& ev) {
  switch (ev.target) {
    case ChurnTarget::kAll:
      return "";
    case ChurnTarget::kLink:
      return ":link=" + std::to_string(ev.a) + (ev.directed ? ">" : "-") +
             std::to_string(ev.b);
    case ChurnTarget::kReplica:
      return ":replica=" + std::to_string(ev.a);
    case ChurnTarget::kRegion:
      return ":region=" + std::to_string(ev.region) + "/" +
             std::to_string(ev.regions);
    case ChurnTarget::kLeader:
      return ":leader=" + std::to_string(ev.a);
    case ChurnTarget::kLeaderFollow:
      return ":leader=follow";
  }
  return "";
}

std::string format_event(const ChurnEvent& ev) {
  std::string out = churn_kind_name(ev.kind);
  // Appended piece by piece: gcc 12 reports a false -Wrestrict on
  // `"literal" + std::string` here.
  if (ev.on_timeout) {
    out += "@timeout";
  } else {
    out += '@';
    out += num(ev.at_s);
    out += 's';
  }
  switch (ev.kind) {
    case ChurnKind::kLinkDegrade:
      out += format_target(ev);
      out += ev.extra_ms < 0 ? ":" : ":+";
      out += num(ev.extra_ms);
      out += "ms";
      break;
    case ChurnKind::kLinkRestore:
      out += format_target(ev);
      break;
    case ChurnKind::kPartitionStart: {
      out += ev.regions > 0 ? ":regions=" : ":groups=";
      for (std::size_t g = 0; g < ev.groups.size(); ++g) {
        if (g) out += '|';
        for (std::size_t m = 0; m < ev.groups[g].size(); ++m) {
          if (m) out += '-';
          out += std::to_string(ev.groups[g][m]);
        }
      }
      if (ev.regions > 0) out += ":of=" + std::to_string(ev.regions);
      break;
    }
    case ChurnKind::kPartitionHeal:
      break;
    case ChurnKind::kLossBurst:
      out += format_target(ev);
      out += ":loss=" + num(ev.loss) + ":for=" + num(ev.for_s) + "s";
      break;
    case ChurnKind::kFluctuation:
      out += ":for=" + num(ev.for_s) + "s:lo=" + num(ev.lo_ms) +
             "ms:hi=" + num(ev.hi_ms) + "ms";
      break;
    case ChurnKind::kCrash:
    case ChurnKind::kSilence:
      out += ":replica=" + std::to_string(ev.a);
      break;
    case ChurnKind::kCrashRestart:
      out += ":replica=" + std::to_string(ev.a);
      if (ev.for_s > 0) out += ":for=" + num(ev.for_s) + "s";
      break;
  }
  if (ev.every_s > 0) out += ":every=" + num(ev.every_s) + "s";
  return out;
}

}  // namespace

ChurnSchedule parse_churn(const std::string& dsl) {
  ChurnSchedule schedule;
  if (trim(dsl).empty()) return schedule;
  for (const std::string& part : split(dsl, ';')) {
    if (trim(part).empty()) {
      throw std::invalid_argument("churn schedule has an empty event "
                                  "(stray ';'): '" + dsl + "'");
    }
    schedule.push_back(parse_event(part));
  }
  return schedule;
}

std::string format_churn(const ChurnSchedule& schedule) {
  std::string out;
  for (const ChurnEvent& ev : schedule) {
    if (!out.empty()) out += ';';
    out += format_event(ev);
  }
  return out;
}

std::string canonical_churn(const std::string& dsl) {
  return format_churn(parse_churn(dsl));
}

}  // namespace bamboo::core
