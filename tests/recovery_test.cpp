// Crash recovery: the durable session journal (seccloud/journal.h) must
// survive torn writes, replay into a resumable session, and — the core
// guarantee — make a crashed-and-resumed audit session bit-identical to one
// that never crashed: same verdict, same tallies, same attempt timestamps.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bigint/rng.h"
#include "obs/metrics.h"
#include "seccloud/client.h"
#include "seccloud/journal.h"
#include "sim/crash.h"
#include "sim/session_link.h"

namespace seccloud {
namespace {

using core::AttemptOutcome;
using core::BufferJournal;
using core::JournalRecord;
using core::JournalRecordType;
using core::RecoveredSession;
using core::SessionVerdict;
using num::Xoshiro256;
using pairing::tiny_group;

// --- record codec -----------------------------------------------------------

JournalRecord sample_record() {
  JournalRecord record;
  record.type = JournalRecordType::kAttemptOutcome;
  record.stream_id = 0xA1B2C3D4u;
  record.seq = 7;
  core::SessionReport tallies;
  tallies.attempts = 3;
  tallies.timeouts = 2;
  tallies.waited_units = 450;
  tallies.bytes_sent = 1234;
  record.payload = core::encode_attempt_outcome_payload(AttemptOutcome::kTimeout, tallies);
  return record;
}

TEST(JournalCodecTest, RoundTripsEveryRecordType) {
  const core::SessionReport empty_tallies;
  const std::vector<JournalRecord> records = {
      {JournalRecordType::kSessionStart, 1, 0,
       core::encode_session_start_payload(core::MessageType::kStorageChallenge, 99)},
      {JournalRecordType::kAttemptStart, 1, 1, core::encode_attempt_start_payload(0)},
      {JournalRecordType::kAttemptOutcome, 1, 1,
       core::encode_attempt_outcome_payload(AttemptOutcome::kAccepted, empty_tallies)},
      {JournalRecordType::kSessionEnd, 1, 1,
       core::encode_session_end_payload(SessionVerdict::kAccepted)},
      sample_record(),
  };
  for (const auto& record : records) {
    const core::Bytes encoded = core::encode_journal_record(record);
    std::size_t consumed = 0;
    const auto decoded = core::decode_journal_record(encoded, &consumed);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(consumed, encoded.size());
    EXPECT_EQ(decoded->type, record.type);
    EXPECT_EQ(decoded->stream_id, record.stream_id);
    EXPECT_EQ(decoded->seq, record.seq);
    EXPECT_EQ(decoded->payload, record.payload);
  }
}

TEST(JournalCodecTest, RejectsEverySingleByteCorruption) {
  const core::Bytes encoded = core::encode_journal_record(sample_record());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    core::Bytes tampered = encoded;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(core::decode_journal_record(tampered).has_value())
        << "byte " << i << " flip went undetected";
  }
}

TEST(JournalCodecTest, RejectsEveryTruncation) {
  const core::Bytes encoded = core::encode_journal_record(sample_record());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const std::span<const std::uint8_t> prefix{encoded.data(), len};
    EXPECT_FALSE(core::decode_journal_record(prefix).has_value()) << "length " << len;
  }
}

TEST(JournalReplayTest, TruncationAtEveryByteKeepsTheIntactPrefix) {
  // Three records back to back; cutting the log at every possible byte must
  // recover exactly the records that landed whole, flag a torn tail iff the
  // cut fell inside a record, and never mis-parse.
  BufferJournal journal;
  journal.append({JournalRecordType::kSessionStart, 5, 0,
                  core::encode_session_start_payload(core::MessageType::kAuditChallenge, 42)});
  journal.append({JournalRecordType::kAttemptStart, 5, 1,
                  core::encode_attempt_start_payload(0)});
  journal.append({JournalRecordType::kSessionEnd, 5, 1,
                  core::encode_session_end_payload(SessionVerdict::kRejected)});
  const core::Bytes full = journal.bytes();

  std::vector<std::size_t> boundaries = {0};
  {
    std::size_t offset = 0;
    while (offset < full.size()) {
      std::size_t consumed = 0;
      ASSERT_TRUE(core::decode_journal_record(
                      std::span<const std::uint8_t>{full.data() + offset,
                                                    full.size() - offset},
                      &consumed)
                      .has_value());
      offset += consumed;
      boundaries.push_back(offset);
    }
  }
  ASSERT_EQ(boundaries.size(), 4u);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const auto replay =
        core::replay_journal(std::span<const std::uint8_t>{full.data(), len});
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= len) ++whole;
    EXPECT_EQ(replay.frames.size(), whole) << "cut at " << len;
    EXPECT_EQ(replay.clean_bytes, boundaries[whole]) << "cut at " << len;
    EXPECT_EQ(replay.torn_tail, len != boundaries[whole]) << "cut at " << len;
  }
}

TEST(JournalReplayTest, TrailingGarbageDoesNotPoisonThePrefix) {
  BufferJournal journal;
  journal.append({JournalRecordType::kSessionStart, 9, 0,
                  core::encode_session_start_payload(core::MessageType::kStorageChallenge, 3)});
  core::Bytes log = journal.bytes();
  for (int i = 0; i < 24; ++i) log.push_back(0xEE);
  const auto replay = core::replay_journal(log);
  EXPECT_EQ(replay.frames.size(), 1u);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.clean_bytes, journal.bytes().size());
}

TEST(RecoverSessionTest, RejectsJournalsWithoutASessionStart) {
  EXPECT_FALSE(core::recover_session({}).valid);
  const core::Bytes garbage(40, 0x5A);
  EXPECT_FALSE(core::recover_session(garbage).valid);
  BufferJournal journal;  // an orphan attempt record — no session identity
  journal.append({JournalRecordType::kAttemptStart, 1, 1,
                  core::encode_attempt_start_payload(0)});
  EXPECT_FALSE(core::recover_session(journal.bytes()).valid);
}

// --- live sessions ----------------------------------------------------------

/// One self-contained audit world: keys, the DA's verifier, signed blocks, a
/// computation task.
/// Every run_*/crash/resume below reconstructs server+link+session from the
/// same seeds, mirroring a real process restart.
struct Rig {
  Rig() : setup_rng{901}, sio{tiny_group(), setup_rng} {
    user = sio.extract("user@recovery");
    server_key = sio.extract("cs@recovery");
    da = sio.extract("da@recovery");
    client.emplace(tiny_group(), sio.params(), user, server_key.q_id, da.q_id);
    verifier.emplace(tiny_group(), da);
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < 16; ++i) {
      raw.push_back(core::DataBlock::from_value(i, 5 * i + 2));
    }
    blocks = client->sign_blocks(raw, setup_rng);
    for (std::size_t i = 0; i < 6; ++i) {
      core::ComputeRequest request;
      request.kind = core::FuncKind::kSum;
      request.positions = {2 * i, 2 * i + 1};
      task.requests.push_back(std::move(request));
    }
  }

  Xoshiro256 setup_rng;
  ibc::Sio sio;
  ibc::IdentityKey user, server_key, da;
  std::optional<core::UserClient> client;
  std::optional<ibc::DesignatedVerifier> verifier;  ///< the DA's held verifier
  std::vector<core::SignedBlock> blocks;
  core::ComputationTask task;
};

constexpr std::uint64_t kSessionSeed = 0x5EC10D5EED1234ULL;

TEST(RecoverSessionTest, CleanConcludedJournalRecoversWithoutTheChannel) {
  Rig rig;
  sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-clean", {}, 11};
  server.handle_store(rig.user.id, rig.blocks);
  sim::FaultyAuditLink link{tiny_group(), server, sim::FaultPlan::lossless(), 12};
  link.bind_storage(rig.user.q_id, rig.user.id);

  core::AuditSession session{*rig.verifier, {}};
  BufferJournal journal;
  Xoshiro256 rng{kSessionSeed};
  const auto report = session.run_storage_audit(link, core::SessionStart::fresh(rng),
                                                rig.user.q_id, rig.blocks.size(), 5,
                                                core::SignatureCheckMode::kBatch, &journal);
  ASSERT_EQ(report.verdict, SessionVerdict::kAccepted);

  const RecoveredSession recovered = core::recover_session(journal.bytes());
  ASSERT_TRUE(recovered.valid);
  EXPECT_FALSE(recovered.torn_tail);
  EXPECT_TRUE(recovered.concluded);
  EXPECT_EQ(recovered.verdict, SessionVerdict::kAccepted);
  EXPECT_EQ(recovered.request_type, core::MessageType::kStorageChallenge);
  EXPECT_EQ(recovered.carried.attempts, report.attempts);
  EXPECT_EQ(recovered.carried.waited_units, report.waited_units);
  EXPECT_EQ(recovered.carried.attempt_started_units, report.attempt_started_units);

  // Resuming a concluded session returns the journaled report without any
  // further channel traffic.
  const auto before = link.tally();
  const auto resumed = session.run_storage_audit(link, core::SessionStart::resume(recovered),
                                                 rig.user.q_id, rig.blocks.size(), 5,
                                                 core::SignatureCheckMode::kBatch);
  EXPECT_TRUE(sim::session_reports_match(resumed, report));
  EXPECT_EQ(link.tally().delivered, before.delivered);
}

TEST(RecoverSessionTest, ResumeRefusesAJournalOfAnotherRequestType) {
  // A computation journal resumed as a storage audit would run under that
  // session's id, seed and tallies and append to its log; a start record
  // naming a reply type is no session at all. Both are refused before the
  // session touches the channel or the journal.
  Rig rig;
  sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-mixed", {}, 61};
  server.handle_store(rig.user.id, rig.blocks);
  sim::FaultyAuditLink link{tiny_group(), server, sim::FaultPlan::lossless(), 62};
  link.bind_storage(rig.user.q_id, rig.user.id);
  core::AuditSession session{*rig.verifier, {}};

  const auto crashed_journal = [](core::MessageType request_type) {
    BufferJournal journal;
    journal.append({JournalRecordType::kSessionStart, 7, 0,
                    core::encode_session_start_payload(request_type, 99)});
    journal.append({JournalRecordType::kAttemptStart, 7, 1,
                    core::encode_attempt_start_payload(0)});
    return core::recover_session(journal.bytes());
  };
  const RecoveredSession computation = crashed_journal(core::MessageType::kAuditChallenge);
  ASSERT_TRUE(computation.valid);
  const RecoveredSession reply_typed = crashed_journal(core::MessageType::kStorageResponse);
  EXPECT_FALSE(reply_typed.valid);

  for (const RecoveredSession* recovered : {&computation, &reply_typed}) {
    BufferJournal resumed_journal;
    EXPECT_THROW((void)session.run_storage_audit(
                     link, core::SessionStart::resume(*recovered), rig.user.q_id,
                     rig.blocks.size(), 5, core::SignatureCheckMode::kBatch, &resumed_journal),
                 std::invalid_argument);
    EXPECT_EQ(resumed_journal.records(), 0u);
  }
  // The same check guards the computation audit.
  BufferJournal resumed_journal;
  EXPECT_THROW((void)session.run_computation_audit(
                   link, core::SessionStart::resume(crashed_journal(
                             core::MessageType::kStorageChallenge)),
                   rig.user.q_id, rig.server_key.q_id, rig.task, {}, {}, 4,
                   core::SignatureCheckMode::kBatch, &resumed_journal),
               std::invalid_argument);
  EXPECT_EQ(resumed_journal.records(), 0u);
  EXPECT_EQ(link.tally().offered, 0u);
}

/// Runs the reference storage session (never crashed) and then, for every
/// requested (crash point, tear) pair, a twin from identical seeds that dies
/// there, recovers, resumes, and must match the reference bit for bit.
void exhaustive_storage_crash_sweep(Rig& rig, const sim::FaultPlan& plan,
                                    std::uint64_t link_seed, bool aligned_only,
                                    std::size_t min_expected_attempts) {
  core::SessionReport reference;
  BufferJournal ref_journal;
  {
    sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-ref", {}, 21};
    server.handle_store(rig.user.id, rig.blocks);
    sim::FaultyAuditLink link{tiny_group(), server, plan, link_seed};
    link.bind_storage(rig.user.q_id, rig.user.id);
    core::AuditSession session{*rig.verifier, {}};
    Xoshiro256 rng{kSessionSeed};
    reference = session.run_storage_audit(link, core::SessionStart::fresh(rng), rig.user.q_id,
                                          rig.blocks.size(), 5,
                                          core::SignatureCheckMode::kBatch, &ref_journal);
  }
  ASSERT_GE(reference.attempts, min_expected_attempts);
  const auto ref_records = core::replay_journal(ref_journal.bytes());
  ASSERT_FALSE(ref_records.torn_tail);
  ASSERT_GE(ref_records.frames.size(), 4u);  // start, ≥1 attempt pair, end

  std::size_t cases = 0;
  for (std::size_t point = 2; point <= ref_records.frames.size(); ++point) {
    const auto type = ref_records.frames[point - 1].type;
    const bool aligned = type == JournalRecordType::kAttemptStart ||
                         type == JournalRecordType::kSessionEnd;
    if (aligned_only && !aligned) continue;
    for (const std::size_t tear : {std::size_t{0}, std::size_t{1}, std::size_t{9}}) {
      ++cases;
      sim::CrashPlan crash_plan;
      crash_plan.crash_after_records = point - 1;
      crash_plan.tear_bytes = tear;
      sim::CrashingJournal dying{crash_plan};

      sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-ref", {}, 21};
      server.handle_store(rig.user.id, rig.blocks);
      sim::FaultyAuditLink link{tiny_group(), server, plan, link_seed};
      link.bind_storage(rig.user.q_id, rig.user.id);
      core::AuditSession session{*rig.verifier, {}};
      Xoshiro256 rng{kSessionSeed};
      EXPECT_THROW((void)session.run_storage_audit(link, core::SessionStart::fresh(rng),
                                                   rig.user.q_id, rig.blocks.size(), 5,
                                                   core::SignatureCheckMode::kBatch, &dying),
                   sim::CrashError);

      const RecoveredSession recovered = core::recover_session(dying.bytes());
      ASSERT_TRUE(recovered.valid) << "point " << point << " tear " << tear;
      EXPECT_EQ(recovered.torn_tail, tear != 0);
      BufferJournal resumed_journal;
      const auto resumed = session.run_storage_audit(
          link, core::SessionStart::resume(recovered), rig.user.q_id, rig.blocks.size(), 5,
          core::SignatureCheckMode::kBatch, &resumed_journal);
      EXPECT_TRUE(sim::session_reports_match(resumed, reference))
          << "point " << point << " tear " << tear;
    }
  }
  EXPECT_GE(cases, 3u);
}

TEST(CrashRecoveryTest, EveryBoundaryOverACleanChannelIsBitIdentical) {
  // A fault-free channel makes every record boundary a safe crash point —
  // including the misaligned outcome-append boundary — so sweep them all.
  Rig rig;
  exhaustive_storage_crash_sweep(rig, sim::FaultPlan::lossless(), 31,
                                 /*aligned_only=*/false, 1);
}

TEST(CrashRecoveryTest, AlignedBoundariesOverALossyChannelAreBitIdentical) {
  // Over a lossy channel only write-ahead-aligned boundaries (attempt starts
  // and the session end) keep the fault stream aligned across the crash.
  // Search deterministically for a link seed whose reference session needs
  // several attempts, so the sweep covers mid-retry crashes.
  Rig rig;
  const sim::FaultPlan plan = sim::FaultPlan::uniform_loss(0.45);
  std::uint64_t link_seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 64; ++candidate) {
    sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-seek", {}, 21};
    server.handle_store(rig.user.id, rig.blocks);
    sim::FaultyAuditLink link{tiny_group(), server, plan, candidate};
    link.bind_storage(rig.user.q_id, rig.user.id);
    core::AuditSession session{*rig.verifier, {}};
    Xoshiro256 rng{kSessionSeed};
    const auto report = session.run_storage_audit(link, core::SessionStart::fresh(rng),
                                                  rig.user.q_id, rig.blocks.size(), 5,
                                                  core::SignatureCheckMode::kBatch);
    if (report.attempts >= 3 && report.conclusive()) {
      link_seed = candidate;
      break;
    }
  }
  ASSERT_NE(link_seed, 0u) << "no candidate seed produced a multi-attempt session";
  exhaustive_storage_crash_sweep(rig, plan, link_seed, /*aligned_only=*/true, 3);
}

TEST(CrashRecoveryTest, ComputationSessionResumesBitIdentically) {
  Rig rig;
  core::SessionReport reference;
  BufferJournal ref_journal;
  {
    Xoshiro256 rng{kSessionSeed};
    sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-comp", {}, 41};
    server.handle_store(rig.user.id, rig.blocks);
    const auto outcome = server.handle_compute(rig.user.id, rig.user.q_id, rig.da.q_id,
                                               rig.task, rng);
    const core::Warrant warrant = rig.client->make_warrant(rig.da.id, 100, rng);
    sim::FaultyAuditLink link{tiny_group(), server, sim::FaultPlan::lossless(), 42};
    link.bind_computation(rig.user.q_id, outcome.task_id, 1);
    core::AuditSession session{*rig.verifier, {}};
    reference = session.run_computation_audit(
        link, core::SessionStart::fresh(rng), rig.user.q_id, server.q_id(), rig.task,
        outcome.commitment, warrant, 4, core::SignatureCheckMode::kBatch, &ref_journal);
  }
  ASSERT_EQ(reference.verdict, SessionVerdict::kAccepted);
  const auto ref_records = core::replay_journal(ref_journal.bytes());

  for (std::size_t point = 2; point <= ref_records.frames.size(); ++point) {
    sim::CrashPlan plan;
    plan.crash_after_records = point - 1;
    plan.tear_bytes = 3;
    sim::CrashingJournal dying{plan};

    Xoshiro256 rng{kSessionSeed};
    sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-comp", {}, 41};
    server.handle_store(rig.user.id, rig.blocks);
    const auto outcome = server.handle_compute(rig.user.id, rig.user.q_id, rig.da.q_id,
                                               rig.task, rng);
    const core::Warrant warrant = rig.client->make_warrant(rig.da.id, 100, rng);
    sim::FaultyAuditLink link{tiny_group(), server, sim::FaultPlan::lossless(), 42};
    link.bind_computation(rig.user.q_id, outcome.task_id, 1);
    core::AuditSession session{*rig.verifier, {}};
    EXPECT_THROW((void)session.run_computation_audit(
                     link, core::SessionStart::fresh(rng), rig.user.q_id, server.q_id(),
                     rig.task, outcome.commitment, warrant, 4,
                     core::SignatureCheckMode::kBatch, &dying),
                 sim::CrashError);

    const RecoveredSession recovered = core::recover_session(dying.bytes());
    ASSERT_TRUE(recovered.valid) << "point " << point;
    EXPECT_EQ(recovered.request_type, core::MessageType::kAuditChallenge);
    const auto resumed = session.run_computation_audit(
        link, core::SessionStart::resume(recovered), rig.user.q_id, server.q_id(), rig.task,
        outcome.commitment, warrant, 4, core::SignatureCheckMode::kBatch);
    EXPECT_TRUE(sim::session_reports_match(resumed, reference)) << "point " << point;
  }
}

TEST(CrashRecoveryTest, TornFinalRecordRecoversWithoutError) {
  // The acceptance case: a journal whose final record is torn mid-write must
  // recover cleanly — prefix trusted, tear discarded, session resumable.
  Rig rig;
  sim::SimCloudServer server{tiny_group(), rig.server_key, "cs-torn", {}, 51};
  server.handle_store(rig.user.id, rig.blocks);
  sim::FaultyAuditLink link{tiny_group(), server, sim::FaultPlan::lossless(), 52};
  link.bind_storage(rig.user.q_id, rig.user.id);
  core::AuditSession session{*rig.verifier, {}};
  BufferJournal journal;
  Xoshiro256 rng{kSessionSeed};
  const auto report = session.run_storage_audit(link, core::SessionStart::fresh(rng),
                                                rig.user.q_id, rig.blocks.size(), 5,
                                                core::SignatureCheckMode::kBatch, &journal);
  ASSERT_TRUE(report.conclusive());

  for (std::size_t cut = 1; cut <= 20; ++cut) {
    core::Bytes log = journal.bytes();
    ASSERT_LT(cut, log.size());
    log.resize(log.size() - cut);
    const RecoveredSession recovered = core::recover_session(log);
    ASSERT_TRUE(recovered.valid) << "cut " << cut;
    EXPECT_TRUE(recovered.torn_tail) << "cut " << cut;
  }
}

TEST(CrashRecoveryTest, MonteCarloOverFaultyChannelsMatchesCrashFreeRuns) {
  // The ISSUE acceptance loop: seeded trials over lossy channels, each
  // crashed at a seeded aligned boundary, must all recover and reproduce the
  // crash-free verdict and tallies bit for bit.
  for (const bool storage : {true, false}) {
    sim::CrashTrialConfig config;
    config.base.plan = sim::FaultPlan::uniform_loss(0.3);
    config.base.storage_audit = storage;
    config.base.universe = 16;
    config.base.requests = 6;
    config.base.sample_size = 4;
    config.crash_probability = 1.0;
    const auto stats = sim::run_crash_recovery_trials(tiny_group(), config, 6,
                                                      storage ? 0xF00D : 0xBEEF);
    EXPECT_EQ(stats.trials, 6u);
    EXPECT_GE(stats.crashed, 1u);
    EXPECT_EQ(stats.recovered, stats.crashed);
    EXPECT_EQ(stats.verdict_matches, stats.recovered);
    EXPECT_EQ(stats.report_matches, stats.recovered);
  }
}

TEST(CrashRecoveryTest, SeededStatsArePinned) {
  // Literal counts of one seeded crash-recovery run per protocol: a change
  // to the harness or the session driver must reproduce them exactly.
  for (const bool storage : {true, false}) {
    sim::CrashTrialConfig config;
    config.base.plan = sim::FaultPlan::uniform_loss(0.3);
    config.base.storage_audit = storage;
    config.base.universe = 16;
    config.base.requests = 6;
    config.base.sample_size = 4;
    config.base.behavior.honest_compute_fraction = 0.5;
    config.crash_probability = 0.75;
    const auto s = sim::run_crash_recovery_trials(tiny_group(), config, 8, 0xC0DE);
    EXPECT_EQ(s.trials, 8u);
    EXPECT_EQ(s.crashed, 6u);
    EXPECT_EQ(s.recovered, 6u);
    EXPECT_EQ(s.resumed_concluded, 1u);
    EXPECT_EQ(s.torn_tails, 6u);
    EXPECT_EQ(s.verdict_matches, 6u);
    EXPECT_EQ(s.report_matches, 6u);
    EXPECT_EQ(s.accepted, storage ? 6u : 0u);
    EXPECT_EQ(s.rejected, storage ? 0u : 6u);
    EXPECT_EQ(s.inconclusive, 2u);
  }
}

TEST(CrashRecoveryTest, JournalMetricsArePublished) {
  auto& registry = obs::default_registry();
  const auto records_before = registry.counter("journal.records").value();
  const auto replayed_before = registry.counter("journal.replayed").value();

  BufferJournal journal;
  journal.append({JournalRecordType::kSessionStart, 3, 0,
                  core::encode_session_start_payload(core::MessageType::kStorageChallenge, 8)});
  journal.append({JournalRecordType::kSessionEnd, 3, 1,
                  core::encode_session_end_payload(SessionVerdict::kAccepted)});
  (void)core::replay_journal(journal.bytes());

  EXPECT_EQ(registry.counter("journal.records").value(), records_before + 2);
  EXPECT_EQ(registry.counter("journal.replayed").value(), replayed_before + 2);
}

}  // namespace
}  // namespace seccloud
