#pragma once

// The network-churn schedule: an ordered list of typed, timed events that
// the simulator executes mid-run — the generalization of the old
// two-event FaultPlan (one fluctuation window + one crash) into a full
// scenario language. Real WAN incidents are staged: individual links
// degrade on a schedule, loss arrives in bursts, regions partition and
// heal. Each stage is one ChurnEvent.
//
// Events are parsed from a compact string DSL carried in the flat
// core::Config::churn field (so schedules flow through provenance columns
// and shard merges untouched):
//
//   churn := event (';' event)*
//   event := kind '@' time (':' arg)*
//   time  := <number> 's' | <number> 'ms'        (simulated, from run start)
//
// Event kinds and their arguments:
//
//   degrade@T:[<target>:]+<delay> add one-way delay to the target's links
//                                 (delta form: "+40ms"; negative allowed;
//                                 no target = every link)
//   restore@T[:<target>]          reset the target's links (delay AND loss)
//                                 to their construction-time baseline;
//                                 no target = every link
//   partition@T:groups=0-1|2-3    split replicas into groups ('|' between
//                                 groups, '-' between members); messages
//                                 across groups are dropped. Unlisted
//                                 endpoints (client hosts) join the FIRST
//                                 group.
//   partition@T:regions=0|1-2:of=N  the same over round-robin region ids
//                                 (replica i is in region i % N)
//   heal@T                        clear the partition
//   burst@T:[<target>:]loss=P:for=D   set per-message Bernoulli loss P on
//                                 the target's links for duration D, then
//                                 restore the baseline loss
//   fluct@T:for=D:lo=L:hi=H       global fluctuation window: every message
//                                 gains extra one-way delay ~ Uniform[L, H]
//                                 for duration D (the paper's Fig. 15 knob)
//   crash@T:replica=I             fail-stop replica I
//   crash-restart@T:replica=I[:for=D]  fail-stop replica I, then after
//                                 downtime D (default 0s) rebuild it from
//                                 its durable BlockStore and restart it
//                                 (crash-recovery experiments)
//   silence@T:replica=I           replica I stops proposing (Fig. 15's
//                                 "silence attack (crash)")
//
// degrade, crash and crash-restart also accept the conditional trigger
// time '@timeout': the event fires at the instant of the FIRST pacemaker
// timeout of an honest replica anywhere in the cluster instead of at a
// wall-clock instant. A conditional event is one-shot: combining
// '@timeout' with every= is rejected.
//
// degrade, restore, burst and fluct additionally accept every=<dur>: the
// event re-fires every <dur> of simulated time until the end of the run
// (flaky-link soak scenarios — pair a repeating degrade with a repeating
// restore half a period later). partition/heal/crash/silence reject it.
//
// Targets name a set of directed links:
//
//   link=A-B       both directions between endpoints A and B
//   link=A>B       the directed link A -> B only
//   replica=I      every link to AND from endpoint I
//   region=R/N     every link crossing the boundary of region R (replica
//                  i is in region i % N), both directions
//   leader[=I]     the OUTBOUND links of replica I (default 0) — the
//                  slow-leader role pinned to one replica
//   leader=follow  the OUTBOUND links of whoever currently leads: the
//                  degradation moves with the rotating leader via a
//                  view-entry hook (degrade/restore only; a restore with
//                  this target — or restore-all — stops the following)
//
// Parsing is strict: unknown kinds/args, half-specified windows (a fluct
// without lo, hi AND for; a burst without loss AND for), malformed times
// and out-of-range probabilities all throw std::invalid_argument — a
// schedule either parses completely or the run refuses to start
// (Config::validate()). Replica/endpoint ids are range-checked later, at
// install time, when the cluster size is known.
//
// format_churn() renders a schedule back into the canonical DSL (times in
// seconds, durations in "for=…s", delays in ms, shortest round-trip
// number formatting); parse_churn(format_churn(s)) == s for every valid
// schedule, which is what lets provenance carry schedules losslessly.

#include <cstdint>
#include <string>
#include <vector>

namespace bamboo::core {

enum class ChurnKind {
  kLinkDegrade,
  kLinkRestore,
  kPartitionStart,
  kPartitionHeal,
  kLossBurst,
  kFluctuation,
  kCrash,
  kCrashRestart,
  kSilence,
};

[[nodiscard]] const char* churn_kind_name(ChurnKind kind);

/// Which set of directed links an event applies to.
enum class ChurnTarget {
  kAll,      ///< every link (restore / burst default)
  kLink,     ///< endpoints a—b (directed ? a->b only : both directions)
  kReplica,  ///< every link touching endpoint a
  kRegion,   ///< links crossing region `region` of `regions` round-robin
  kLeader,   ///< outbound links of replica a (slow-leader role)
  kLeaderFollow,  ///< outbound links of the CURRENT leader, re-targeted
                  ///< as leadership rotates (degrade/restore only)
};

/// One scheduled churn event. A plain value: field-for-field comparable,
/// losslessly round-trippable through the DSL.
struct ChurnEvent {
  ChurnKind kind = ChurnKind::kLinkDegrade;
  double at_s = 0;  ///< simulated seconds from run start
  /// Conditional trigger ('@timeout'): fire at the first pacemaker
  /// timeout observed cluster-wide instead of at at_s (which is 0 then).
  /// Only degrade / crash / crash-restart support it.
  bool on_timeout = false;

  // --- link target (degrade / restore / burst) ---------------------------
  ChurnTarget target = ChurnTarget::kAll;
  std::uint32_t a = 0;      ///< link endpoint / replica id
  std::uint32_t b = 0;      ///< second link endpoint
  bool directed = false;    ///< link=A>B (one direction) vs link=A-B
  std::uint32_t region = 0;   ///< region id (target == kRegion)
  std::uint32_t regions = 0;  ///< region count (round-robin, i % regions)

  // --- per-kind parameters ----------------------------------------------
  double extra_ms = 0;  ///< degrade: one-way delay delta (may be negative)
  double loss = 0;      ///< burst: per-message loss probability [0, 1)
  double for_s = 0;  ///< burst / fluct: window length (s), > 0;
                     ///< crash-restart: downtime before the rebuild (>= 0)
  double lo_ms = 0;     ///< fluct: extra delay lower bound (one-way ms)
  double hi_ms = 0;     ///< fluct: extra delay upper bound (>= lo)
  /// degrade / restore / burst / fluct: re-fire period (s); 0 = one-shot.
  double every_s = 0;
  /// partition: replica (or region, when `regions` > 0) id groups.
  std::vector<std::vector<std::uint32_t>> groups;

  bool operator==(const ChurnEvent&) const = default;
};

using ChurnSchedule = std::vector<ChurnEvent>;

/// Parse the churn DSL. Empty input yields an empty schedule; anything
/// unparseable or half-specified throws std::invalid_argument with a
/// message naming the offending event.
[[nodiscard]] ChurnSchedule parse_churn(const std::string& dsl);

/// Render the canonical DSL string (parse_churn round-trips it exactly).
[[nodiscard]] std::string format_churn(const ChurnSchedule& schedule);

/// parse + format in one step: the canonical spelling of a user-written
/// schedule string (empty in, empty out). Provenance records this form.
[[nodiscard]] std::string canonical_churn(const std::string& dsl);

}  // namespace bamboo::core
