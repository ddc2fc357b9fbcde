#include "sim/crash.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace seccloud::sim {
namespace {

/// Salt separating the crash-point stream from the trial stream, so adding
/// crash injection never perturbs the underlying trial randomness.
constexpr std::uint64_t kCrashSalt = 0xC7A5C85C97CB3127ULL;

}  // namespace

void CrashingJournal::append(const core::JournalRecord& record) {
  if (crashed_) throw CrashError{};  // the process is dead
  const core::Bytes encoded = core::encode_journal_record(record);
  if (records_ == plan_.crash_after_records) {
    // The dying write: only a prefix of the record reaches the journal.
    const std::size_t landed = std::min(plan_.tear_bytes, encoded.size());
    bytes_.insert(bytes_.end(), encoded.begin(),
                  encoded.begin() + static_cast<std::ptrdiff_t>(landed));
    crashed_ = true;
    obs::default_registry().counter("journal.torn_writes").inc();
    throw CrashError{};
  }
  bytes_.insert(bytes_.end(), encoded.begin(), encoded.end());
  ++records_;
  obs::default_registry().counter("journal.records").inc();
}

bool session_reports_match(const core::SessionReport& a, const core::SessionReport& b) {
  return a.verdict == b.verdict && a.attempts == b.attempts &&
         a.timeouts == b.timeouts && a.corrupt_frames == b.corrupt_frames &&
         a.stale_replies == b.stale_replies &&
         a.duplicate_replies == b.duplicate_replies &&
         a.malformed_replies == b.malformed_replies &&
         a.waited_units == b.waited_units && a.bytes_sent == b.bytes_sent &&
         a.bytes_received == b.bytes_received &&
         a.attempt_started_units == b.attempt_started_units;
}

CrashRecoveryStats run_crash_recovery_trials(const PairingGroup& group,
                                             const CrashTrialConfig& config,
                                             std::size_t trials, std::uint64_t seed) {
  // The same rig and per-trial seeds as run_faulty_audit_trials.
  const TrialRig rig{group, config.base, seed, "crash-mc"};
  CrashRecoveryStats stats;
  stats.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    obs::Span trial_span = obs::trace_span("crash_trial");
    if (trial_span) trial_span.arg("trial", std::to_string(trial));

    // --- reference: the same session, never crashed -----------------------
    core::BufferJournal ref_journal;
    const core::SessionReport ref_report = AuditTrial{rig, trial}.run(&ref_journal);
    switch (ref_report.verdict) {
      case core::SessionVerdict::kAccepted: ++stats.accepted; break;
      case core::SessionVerdict::kRejected: ++stats.rejected; break;
      case core::SessionVerdict::kInconclusive: ++stats.inconclusive; break;
    }

    // --- pick a crash point from the reference record sequence ------------
    num::Xoshiro256 crash_rng{rig.trial_seed(trial) ^ kCrashSalt};
    if (crash_rng.next_double() >= config.crash_probability) continue;
    const core::ReplayResult ref_records = core::replay_journal(ref_journal.bytes());
    std::vector<std::size_t> points;  // 1-based index of the record whose append dies
    for (std::size_t j = 2; j <= ref_records.frames.size(); ++j) {
      const auto type = ref_records.frames[j - 1].type;
      const bool aligned = type == core::JournalRecordType::kAttemptStart ||
                           type == core::JournalRecordType::kSessionEnd;
      if (aligned || !config.aligned_crash_points_only) points.push_back(j);
    }
    if (points.empty()) continue;
    CrashPlan plan;
    plan.crash_after_records = points[crash_rng.next_u64() % points.size()] - 1;
    plan.tear_bytes = static_cast<std::size_t>(crash_rng.next_u64() % 16);

    // --- the crashed twin: identical seeds, killed mid-session ------------
    CrashingJournal dying_journal{plan};
    AuditTrial twin{rig, trial};
    try {
      (void)twin.run(&dying_journal);
      continue;  // the planned point was never reached (cannot happen: the
                 // twin replays the reference record sequence exactly)
    } catch (const CrashError&) {
      ++stats.crashed;
    }

    // --- resurrect from whatever landed ------------------------------------
    obs::Span recovery_span = obs::trace_span("crash_recovery");
    const core::RecoveredSession recovered = core::recover_session(dying_journal.bytes());
    if (recovered.torn_tail) ++stats.torn_tails;
    if (!recovered.valid) continue;  // nothing durable — a rerun, not a resume
    ++stats.recovered;
    if (recovered.concluded) ++stats.resumed_concluded;
    obs::default_registry().counter("journal.recovered_sessions").inc();
    core::BufferJournal resumed_journal;
    const core::SessionReport resumed = twin.run(&resumed_journal, &recovered);
    if (resumed.verdict == ref_report.verdict) ++stats.verdict_matches;
    if (session_reports_match(resumed, ref_report)) ++stats.report_matches;
    if (recovery_span) {
      recovery_span.arg("next_attempt", std::to_string(recovered.next_attempt));
      recovery_span.arg("verdict", core::to_string(resumed.verdict));
    }
  }
  return stats;
}

}  // namespace seccloud::sim
