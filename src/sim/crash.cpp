#include "sim/crash.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seccloud/client.h"

namespace seccloud::sim {
namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
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
  // Setup mirrors run_faulty_audit_trials: one key universe, one block set,
  // one task, shared by every trial; each trial derives its whole random
  // universe from (seed, trial).
  num::Xoshiro256 setup_rng{seed};
  const ibc::Sio sio{group, setup_rng};
  const ibc::IdentityKey user_key = sio.extract("user@crash-mc");
  const ibc::IdentityKey server_key = sio.extract("cs@crash-mc");
  const ibc::IdentityKey da_key = sio.extract("da@crash-mc");
  const core::UserClient client{group, sio.params(), user_key, server_key.q_id,
                                da_key.q_id};

  std::vector<core::DataBlock> raw_blocks;
  raw_blocks.reserve(config.base.universe);
  for (std::uint64_t i = 0; i < config.base.universe; ++i) {
    raw_blocks.push_back(core::DataBlock::from_value(i, 3 * i + 1));
  }
  const std::vector<SignedBlock> blocks = client.sign_blocks(raw_blocks, setup_rng);

  core::ComputationTask task;
  for (std::size_t i = 0; i < config.base.requests; ++i) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(i % 6);
    for (std::size_t j = 0; j < config.base.operands_per_request; ++j) {
      request.positions.push_back((i * config.base.operands_per_request + j) %
                                  config.base.universe);
    }
    task.requests.push_back(std::move(request));
  }

  CrashRecoveryStats stats;
  stats.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    obs::Span trial_span = obs::trace_span("crash_trial");
    if (trial_span) trial_span.arg("trial", std::to_string(trial));
    const std::uint64_t base = seed + kGolden * (trial + 1);

    // --- reference: the same session, never crashed -----------------------
    core::BufferJournal ref_journal;
    core::SessionReport ref_report;
    {
      num::Xoshiro256 trial_rng{base};
      SimCloudServer server{group, server_key, "cs-crash", config.base.behavior,
                            base ^ kGolden};
      server.handle_store(user_key.id, blocks);
      FaultyAuditLink link{group, server, config.base.plan, base + 7};
      core::AuditSession session{group, config.base.policy};
      if (config.base.storage_audit) {
        link.bind_storage(user_key.q_id, user_key.id);
        ref_report = session.run_storage_audit(link, user_key.q_id, config.base.universe,
                                               config.base.sample_size, da_key,
                                               config.base.mode, trial_rng, &ref_journal);
      } else {
        const auto outcome = server.handle_compute(user_key.id, user_key.q_id,
                                                   da_key.q_id, task, trial_rng);
        const core::Warrant warrant = client.make_warrant(da_key.id, 100, trial_rng);
        link.bind_computation(user_key.q_id, outcome.task_id, 1);
        ref_report = session.run_computation_audit(
            link, user_key.q_id, server.q_id(), task, outcome.commitment, warrant,
            config.base.sample_size, da_key, config.base.mode, trial_rng, &ref_journal);
      }
    }
    switch (ref_report.verdict) {
      case core::SessionVerdict::kAccepted: ++stats.accepted; break;
      case core::SessionVerdict::kRejected: ++stats.rejected; break;
      case core::SessionVerdict::kInconclusive: ++stats.inconclusive; break;
    }

    // --- pick a crash point from the reference record sequence ------------
    num::Xoshiro256 crash_rng{base ^ kCrashSalt};
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
    num::Xoshiro256 trial_rng{base};
    SimCloudServer server{group, server_key, "cs-crash", config.base.behavior,
                          base ^ kGolden};
    server.handle_store(user_key.id, blocks);
    FaultyAuditLink link{group, server, config.base.plan, base + 7};
    core::AuditSession session{group, config.base.policy};
    Commitment commitment;
    core::Warrant warrant;
    if (config.base.storage_audit) {
      link.bind_storage(user_key.q_id, user_key.id);
    } else {
      const auto outcome = server.handle_compute(user_key.id, user_key.q_id, da_key.q_id,
                                                 task, trial_rng);
      commitment = outcome.commitment;
      warrant = client.make_warrant(da_key.id, 100, trial_rng);
      link.bind_computation(user_key.q_id, outcome.task_id, 1);
    }
    try {
      if (config.base.storage_audit) {
        (void)session.run_storage_audit(link, user_key.q_id, config.base.universe,
                                        config.base.sample_size, da_key, config.base.mode,
                                        trial_rng, &dying_journal);
      } else {
        (void)session.run_computation_audit(link, user_key.q_id, server.q_id(), task,
                                            commitment, warrant, config.base.sample_size,
                                            da_key, config.base.mode, trial_rng,
                                            &dying_journal);
      }
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
    core::SessionReport resumed;
    if (config.base.storage_audit) {
      resumed = session.resume_storage_audit(link, recovered, user_key.q_id,
                                             config.base.universe, config.base.sample_size,
                                             da_key, config.base.mode, &resumed_journal);
    } else {
      resumed = session.resume_computation_audit(link, recovered, user_key.q_id,
                                                 server.q_id(), task, commitment, warrant,
                                                 config.base.sample_size, da_key,
                                                 config.base.mode, &resumed_journal);
    }
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
