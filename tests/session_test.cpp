// Faulty-channel audit sessions: frame integrity, retry/backoff accounting,
// stale/duplicate/corrupt reply classification, and the headline acceptance
// property — with drop/corrupt probability up to 0.3 on every message type
// and a retry budget >= 5, the session reaches the same conclusive verdict
// the lossless channel reaches, for honest and cheating servers alike, and
// every run is bit-reproducible from its seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ibc/keys.h"
#include "seccloud/client.h"
#include "seccloud/session.h"
#include "sim/session_link.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

/// The acceptance-criteria channel: every fault class armed on every message
/// type, drop and corruption at the 0.3 ceiling.
sim::FaultPlan harsh_plan() {
  sim::FaultPlan plan;
  plan.base.drop = 0.3;
  plan.base.bit_flip = 0.3;
  plan.base.truncate = 0.15;
  plan.base.duplicate = 0.2;
  plan.base.reorder = 0.2;
  plan.base.delay = 0.15;
  return plan;
}

core::RetryPolicy budget(std::size_t max_attempts) {
  core::RetryPolicy policy;
  policy.max_attempts = max_attempts;
  return policy;
}

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : g(tiny_group()),
        rng(4242),
        sio(g, rng),
        user_key(sio.extract("user@session")),
        server_key(sio.extract("cs@session")),
        da_key(sio.extract("da@session")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < 32; ++i) {
      raw.push_back(core::DataBlock::from_value(i, 11 * i + 3));
    }
    blocks = client.sign_blocks(std::move(raw), rng);
    for (std::uint64_t i = 0; i < 12; ++i) {
      core::ComputeRequest req;
      req.kind = static_cast<core::FuncKind>(i % 6);
      req.positions.push_back((2 * i) % 32);
      req.positions.push_back((2 * i + 1) % 32);
      task.requests.push_back(std::move(req));
    }
  }

  struct Run {
    core::SessionReport report;
    sim::FaultTally tally;
  };

  Run run_computation(const sim::ServerBehavior& behavior, const sim::FaultPlan& plan,
                      std::uint64_t seed, const core::RetryPolicy& policy,
                      std::uint64_t warrant_expiry = 50) const {
    sim::SimCloudServer server{g, server_key, "cs", behavior, seed ^ 0xC0FFEE};
    server.handle_store(user_key.id, blocks);
    Xoshiro256 compute_rng{seed + 1};
    const auto outcome =
        server.handle_compute(user_key.id, user_key.q_id, da_key.q_id, task, compute_rng);
    const core::Warrant warrant = client.make_warrant(da_key.id, warrant_expiry, compute_rng);
    sim::FaultyAuditLink link{g, server, plan, seed + 2};
    link.bind_computation(user_key.q_id, outcome.task_id, /*epoch=*/1);
    core::AuditSession session{da, policy};
    Xoshiro256 session_rng{seed};
    Run run;
    run.report = session.run_computation_audit(
        link, core::SessionStart::fresh(session_rng), user_key.q_id, server.q_id(), task,
        outcome.commitment, warrant, /*sample_size=*/6, core::SignatureCheckMode::kBatch);
    run.tally = link.tally();
    return run;
  }

  Run run_storage(const sim::ServerBehavior& behavior, const sim::FaultPlan& plan,
                  std::uint64_t seed, const core::RetryPolicy& policy) const {
    sim::SimCloudServer server{g, server_key, "cs", behavior, seed ^ 0xC0FFEE};
    server.handle_store(user_key.id, blocks);
    sim::FaultyAuditLink link{g, server, plan, seed + 2};
    link.bind_storage(user_key.q_id, user_key.id);
    core::AuditSession session{da, policy};
    Xoshiro256 session_rng{seed};
    Run run;
    run.report = session.run_storage_audit(link, core::SessionStart::fresh(session_rng),
                                           user_key.q_id, /*universe=*/32,
                                           /*sample_size=*/8, core::SignatureCheckMode::kBatch);
    run.tally = link.tally();
    return run;
  }

  static sim::ServerBehavior always_guessing() {
    sim::ServerBehavior cheat;
    cheat.honest_compute_fraction = 0.0;  // every sub-task result is a bad guess
    return cheat;
  }

  static sim::ServerBehavior always_corrupting() {
    sim::ServerBehavior cheat;
    cheat.corrupt_fraction = 1.0;  // every stored payload is tampered
    return cheat;
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
  ibc::DesignatedVerifier da{g, da_key};  ///< the DA's held verifier, built once
  core::UserClient client;
  std::vector<core::SignedBlock> blocks;
  core::ComputationTask task;
};

// --- framing ---------------------------------------------------------------

TEST(SessionFrameTest, RoundTrip) {
  const core::Bytes payload{1, 2, 3, 4, 5};
  const core::Bytes wire =
      core::encode_frame(core::MessageType::kAuditChallenge, 0xDEADBEEF, 7, payload);
  const auto frame = core::decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, core::MessageType::kAuditChallenge);
  EXPECT_EQ(frame->stream_id, 0xDEADBEEFu);
  EXPECT_EQ(frame->seq, 7u);
  EXPECT_EQ(frame->payload, payload);
}

TEST(SessionFrameTest, EmptyPayloadRoundTrips) {
  const core::Bytes wire =
      core::encode_frame(core::MessageType::kStorageResponse, 1, 1, core::Bytes{});
  const auto frame = core::decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(SessionFrameTest, EverySingleByteCorruptionIsDetected) {
  const core::Bytes payload{9, 8, 7, 6, 5, 4, 3, 2, 1};
  const core::Bytes wire =
      core::encode_frame(core::MessageType::kStorageChallenge, 42, 3, payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      core::Bytes mutated = wire;
      mutated[i] ^= mask;  // always changes the byte
      EXPECT_FALSE(core::decode_frame(mutated).has_value())
          << "byte " << i << " mask " << int(mask);
    }
  }
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(
        core::decode_frame(std::span<const std::uint8_t>(wire.data(), cut)).has_value());
  }
}

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicyTest, ExponentialBackoffWithCap) {
  const core::RetryPolicy policy;  // base 50, factor 2, cap 1600
  EXPECT_EQ(policy.backoff_for(0), 0u);
  EXPECT_EQ(policy.backoff_for(1), 50u);
  EXPECT_EQ(policy.backoff_for(2), 100u);
  EXPECT_EQ(policy.backoff_for(3), 200u);
  EXPECT_EQ(policy.backoff_for(5), 800u);
  EXPECT_EQ(policy.backoff_for(6), 1600u);
  EXPECT_EQ(policy.backoff_for(7), 1600u);  // capped
  EXPECT_EQ(policy.backoff_for(50), 1600u);
}

// --- lossless baseline -----------------------------------------------------

TEST_F(SessionTest, LosslessHonestAcceptsOnFirstAttempt) {
  const Run run = run_computation(sim::ServerBehavior::honest(),
                                  sim::FaultPlan::lossless(), 1, budget(5));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kAccepted);
  EXPECT_EQ(run.report.attempts, 1u);
  EXPECT_EQ(run.report.timeouts, 0u);
  EXPECT_EQ(run.report.corrupt_frames, 0u);
  EXPECT_EQ(run.report.waited_units, 0u);
  EXPECT_TRUE(run.report.computation.accepted);
  EXPECT_EQ(run.tally.dropped, 0u);
  EXPECT_EQ(run.tally.offered, run.tally.delivered);
}

TEST_F(SessionTest, LosslessGuessingServerRejectedOnFirstAttempt) {
  const Run run =
      run_computation(always_guessing(), sim::FaultPlan::lossless(), 1, budget(5));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kRejected);
  EXPECT_EQ(run.report.attempts, 1u);
  EXPECT_FALSE(run.report.computation.accepted);
}

// --- the acceptance criterion ---------------------------------------------

TEST_F(SessionTest, HarshChannelMatchesLosslessVerdictAcrossSeeds) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const Run lossless_honest = run_computation(sim::ServerBehavior::honest(),
                                                sim::FaultPlan::lossless(), seed, budget(1));
    const Run faulty_honest =
        run_computation(sim::ServerBehavior::honest(), harsh_plan(), seed, budget(16));
    ASSERT_TRUE(faulty_honest.report.conclusive()) << "seed " << seed;
    EXPECT_EQ(faulty_honest.report.verdict, lossless_honest.report.verdict)
        << "seed " << seed;
    EXPECT_EQ(faulty_honest.report.verdict, core::SessionVerdict::kAccepted);

    const Run lossless_cheat =
        run_computation(always_guessing(), sim::FaultPlan::lossless(), seed, budget(1));
    const Run faulty_cheat =
        run_computation(always_guessing(), harsh_plan(), seed, budget(16));
    ASSERT_TRUE(faulty_cheat.report.conclusive()) << "seed " << seed;
    EXPECT_EQ(faulty_cheat.report.verdict, lossless_cheat.report.verdict) << "seed " << seed;
    EXPECT_EQ(faulty_cheat.report.verdict, core::SessionVerdict::kRejected);
  }
}

TEST_F(SessionTest, HarshChannelStorageAuditMatchesLosslessAcrossSeeds) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const Run honest = run_storage(sim::ServerBehavior::honest(), harsh_plan(), seed,
                                   budget(16));
    ASSERT_TRUE(honest.report.conclusive()) << "seed " << seed;
    EXPECT_EQ(honest.report.verdict, core::SessionVerdict::kAccepted) << "seed " << seed;

    const Run cheat = run_storage(always_corrupting(), harsh_plan(), seed, budget(16));
    ASSERT_TRUE(cheat.report.conclusive()) << "seed " << seed;
    EXPECT_EQ(cheat.report.verdict, core::SessionVerdict::kRejected) << "seed " << seed;
    EXPECT_FALSE(cheat.report.storage.accepted);
  }
}

TEST_F(SessionTest, SessionsAreBitReproducibleFromSeed) {
  for (const bool cheating : {false, true}) {
    const sim::ServerBehavior behavior =
        cheating ? always_guessing() : sim::ServerBehavior::honest();
    const Run a = run_computation(behavior, harsh_plan(), 909, budget(16));
    const Run b = run_computation(behavior, harsh_plan(), 909, budget(16));
    EXPECT_EQ(a.report.verdict, b.report.verdict);
    EXPECT_EQ(a.report.attempts, b.report.attempts);
    EXPECT_EQ(a.report.timeouts, b.report.timeouts);
    EXPECT_EQ(a.report.corrupt_frames, b.report.corrupt_frames);
    EXPECT_EQ(a.report.stale_replies, b.report.stale_replies);
    EXPECT_EQ(a.report.duplicate_replies, b.report.duplicate_replies);
    EXPECT_EQ(a.report.malformed_replies, b.report.malformed_replies);
    EXPECT_EQ(a.report.waited_units, b.report.waited_units);
    EXPECT_EQ(a.report.bytes_sent, b.report.bytes_sent);
    EXPECT_EQ(a.report.bytes_received, b.report.bytes_received);
    EXPECT_EQ(a.tally.offered, b.tally.offered);
    EXPECT_EQ(a.tally.delivered, b.tally.delivered);
    EXPECT_EQ(a.tally.dropped, b.tally.dropped);
    EXPECT_EQ(a.tally.truncated, b.tally.truncated);
    EXPECT_EQ(a.tally.corrupted, b.tally.corrupted);
    EXPECT_EQ(a.tally.duplicated, b.tally.duplicated);
    EXPECT_EQ(a.tally.reordered, b.tally.reordered);
    EXPECT_EQ(a.tally.delayed, b.tally.delayed);
  }
}

// --- fault classification --------------------------------------------------

TEST_F(SessionTest, TotalBlackoutExhaustsBudgetInconclusively) {
  sim::FaultPlan blackout;
  blackout.base.drop = 1.0;
  const Run run =
      run_computation(sim::ServerBehavior::honest(), blackout, 5, budget(6));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kInconclusive);
  EXPECT_FALSE(run.report.conclusive());
  EXPECT_EQ(run.report.attempts, 6u);
  EXPECT_EQ(run.report.timeouts, 6u);
  EXPECT_EQ(run.report.bytes_received, 0u);
  // 6 timeouts plus the backoffs between attempts: 50+100+200+400+800.
  EXPECT_EQ(run.report.waited_units, 6 * 100u + 1550u);
  EXPECT_EQ(run.tally.dropped, run.tally.offered);
  EXPECT_EQ(run.tally.delivered, 0u);
}

TEST_F(SessionTest, TruncatedRepliesAreChannelFaultsAndRetried) {
  sim::FaultPlan plan;  // only the reply path is damaged, deterministically
  sim::FaultSpec reply_fault;
  reply_fault.truncate = 1.0;
  plan.set(core::MessageType::kAuditResponse, reply_fault);
  const Run run =
      run_computation(sim::ServerBehavior::honest(), plan, 11, budget(4));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kInconclusive);
  EXPECT_EQ(run.report.attempts, 4u);
  EXPECT_EQ(run.report.corrupt_frames, 4u);  // every reply arrives mangled
  EXPECT_EQ(run.report.timeouts, 4u);        // so every attempt times out
  EXPECT_EQ(run.tally.truncated, 4u);
}

TEST_F(SessionTest, DelayedRepliesFromEarlierAttemptsAreStale) {
  sim::FaultPlan plan;
  sim::FaultSpec reply_fault;
  reply_fault.delay = 1.0;  // every reply misses its own attempt's window
  plan.set(core::MessageType::kAuditResponse, reply_fault);
  const Run run =
      run_computation(sim::ServerBehavior::honest(), plan, 13, budget(4));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kInconclusive);
  EXPECT_EQ(run.report.attempts, 4u);
  // Attempts 2..4 each see the previous attempt's late reply: stale, not
  // verified against the wrong challenge.
  EXPECT_EQ(run.report.stale_replies, 3u);
  EXPECT_EQ(run.report.timeouts, 4u);
  EXPECT_EQ(run.tally.delayed, 4u);
}

TEST_F(SessionTest, DuplicatedReplyIsCountedOnceAndStillConcludes) {
  sim::FaultPlan plan;
  sim::FaultSpec reply_fault;
  reply_fault.duplicate = 1.0;
  plan.set(core::MessageType::kAuditResponse, reply_fault);
  const Run run =
      run_computation(sim::ServerBehavior::honest(), plan, 17, budget(4));
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kAccepted);
  EXPECT_EQ(run.report.attempts, 1u);
  EXPECT_EQ(run.report.duplicate_replies, 1u);
  EXPECT_EQ(run.tally.duplicated, 1u);
}

TEST_F(SessionTest, ExpiredWarrantIsConclusiveRejectionEvenOverFaultyChannel) {
  // The server refuses the expired warrant inside a checksum-valid frame:
  // attributable, so the verdict is kRejected — never kInconclusive.
  const Run run = run_computation(sim::ServerBehavior::honest(), harsh_plan(), 23,
                                  budget(16), /*warrant_expiry=*/0);
  EXPECT_EQ(run.report.verdict, core::SessionVerdict::kRejected);
  EXPECT_TRUE(run.report.computation.warrant_rejected);
}

// --- attempt timestamps ----------------------------------------------------

TEST_F(SessionTest, AttemptTimestampsFollowTheSessionClock) {
  // Find a seed whose storage session needs several attempts, then check the
  // wall-clock stamps: one per attempt, spaced exactly by the waits the
  // policy charged (timeout + backoff), starting at the clock origin.
  const core::RetryPolicy policy = budget(16);
  Run run;
  std::uint64_t seed = 0;
  for (std::uint64_t candidate = 1; candidate <= 64; ++candidate) {
    run = run_storage(sim::ServerBehavior::honest(), harsh_plan(), candidate, policy);
    if (run.report.attempts >= 3 && run.report.conclusive()) {
      seed = candidate;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no seed produced a multi-attempt session";

  const auto& stamps = run.report.attempt_started_units;
  ASSERT_EQ(stamps.size(), run.report.attempts);
  EXPECT_EQ(stamps.front(), 0u);  // default clock origin
  for (std::size_t k = 1; k < stamps.size(); ++k) {
    // Attempt k failed, charging its timeout plus the backoff before k+1.
    EXPECT_EQ(stamps[k] - stamps[k - 1], policy.timeout_units + policy.backoff_for(k))
        << "attempt " << k + 1;
  }
  EXPECT_LE(stamps.back(), run.report.waited_units);  // stamps never outrun the waits

  // An injected clock shifts every stamp by its origin and nothing else.
  sim::SimCloudServer server{g, server_key, "cs", sim::ServerBehavior::honest(),
                             seed ^ 0xC0FFEE};
  server.handle_store(user_key.id, blocks);
  sim::FaultyAuditLink link{g, server, harsh_plan(), seed + 2};
  link.bind_storage(user_key.q_id, user_key.id);
  core::AuditSession session{da, policy};
  core::SimulatedClock clock{500};
  session.set_clock(&clock);
  Xoshiro256 session_rng{seed};
  const auto shifted =
      session.run_storage_audit(link, core::SessionStart::fresh(session_rng), user_key.q_id,
                                32, 8, core::SignatureCheckMode::kBatch);
  ASSERT_EQ(shifted.attempt_started_units.size(), stamps.size());
  for (std::size_t k = 0; k < stamps.size(); ++k) {
    EXPECT_EQ(shifted.attempt_started_units[k], stamps[k] + 500) << "attempt " << k + 1;
  }

  // The stamps are part of the machine-readable report.
  const std::string json = run.report.to_json();
  EXPECT_NE(json.find("\"attempt_started_units\""), std::string::npos);
}

// --- Monte-Carlo wiring ----------------------------------------------------

TEST(FaultyTrialsTest, DeterministicPerSeedAndConclusiveUnderRetries) {
  const auto& g = tiny_group();
  sim::FaultyTrialConfig config;
  config.plan = sim::FaultPlan::uniform_loss(0.2);
  config.policy.max_attempts = 8;
  config.behavior.honest_compute_fraction = 0.0;
  const auto a = sim::run_faulty_audit_trials(g, config, 6, 2024);
  const auto b = sim::run_faulty_audit_trials(g, config, 6, 2024);
  EXPECT_EQ(a.trials, 6u);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.inconclusive, b.inconclusive);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.waited_units, b.waited_units);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_received, b.bytes_received);
  EXPECT_EQ(a.channel.dropped, b.channel.dropped);
  EXPECT_EQ(a.channel.corrupted, b.channel.corrupted);
  EXPECT_EQ(a.accepted, 0u);  // a guessing server is never accepted
  EXPECT_GT(a.rejected, 0u);

  const auto c = sim::run_faulty_audit_trials(g, config, 6, 2025);
  EXPECT_TRUE(c.attempts != a.attempts || c.channel.dropped != a.channel.dropped ||
              c.rejected != a.rejected);
}

// --- pinned outputs --------------------------------------------------------

// Literal reports of two lossy sessions and one seeded Monte-Carlo run: any
// change to the session driver, the harness or the report writer must
// reproduce them byte for byte.

TEST_F(SessionTest, LossyStorageSessionReportIsPinned) {
  const Run run = run_storage(always_corrupting(), harsh_plan(), 4, budget(16));
  ASSERT_GE(run.report.attempts, 2u);
  EXPECT_EQ(run.report.to_json(),
            R"({"verdict":"rejected","attempts":3,"timeouts":2,"corrupt_frames":1,)"
            R"("stale_replies":0,"duplicate_replies":0,"malformed_replies":0,"waited_units":350,)"
            R"("bytes_sent":411,"bytes_received":1544,"attempt_started_units":[0,150,350],)"
            R"("computation":{"accepted":false,"warrant_rejected":false,)"
            R"("root_signature_valid":false,"samples_requested":0,"samples_returned":0,)"
            R"("signature_failures":0,"computation_failures":0,"root_failures":0,)"
            R"("ops":{"pairings":0,"miller_loops":0,"final_exps":0,"point_muls":0,"gt_exps":0,)"
            R"("hash_to_points":0,"msm_terms":0,"gt_msm_terms":0}},"storage":{"accepted":false,)"
            R"("blocks_checked":8,"signature_failures":8,"ops":{"pairings":8,"miller_loops":8,)"
            R"("final_exps":8,"point_muls":0,"gt_exps":0,"hash_to_points":0,"msm_terms":8,)"
            R"("gt_msm_terms":0}}})");
}

TEST_F(SessionTest, LossyComputationSessionReportIsPinned) {
  const Run run = run_computation(sim::ServerBehavior::honest(), harsh_plan(), 4, budget(16));
  ASSERT_GE(run.report.attempts, 2u);
  EXPECT_EQ(run.report.to_json(),
            R"({"verdict":"accepted","attempts":3,"timeouts":2,"corrupt_frames":1,)"
            R"("stale_replies":0,"duplicate_replies":0,"malformed_replies":0,"waited_units":350,)"
            R"("bytes_sent":501,"bytes_received":4096,"attempt_started_units":[0,150,350],)"
            R"("computation":{"accepted":true,"warrant_rejected":false,)"
            R"("root_signature_valid":true,)"
            R"("samples_requested":6,"samples_returned":6,"signature_failures":0,)"
            R"("computation_failures":0,"root_failures":0,"ops":{"pairings":2,"miller_loops":2,)"
            R"("final_exps":2,"point_muls":0,"gt_exps":0,"hash_to_points":0,"msm_terms":2,)"
            R"("gt_msm_terms":0}},"storage":{"accepted":false,"blocks_checked":0,)"
            R"("signature_failures":0,"ops":{"pairings":0,"miller_loops":0,"final_exps":0,)"
            R"("point_muls":0,"gt_exps":0,"hash_to_points":0,"msm_terms":0,"gt_msm_terms":0}}})");
}

TEST(FaultyTrialsTest, SeededStatsArePinned) {
  sim::FaultyTrialConfig config;
  config.plan = sim::FaultPlan::uniform_loss(0.2);
  config.policy.max_attempts = 8;
  config.behavior.honest_compute_fraction = 0.5;
  const auto stats = sim::run_faulty_audit_trials(tiny_group(), config, 6, 2024);
  EXPECT_EQ(stats.trials, 6u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.inconclusive, 1u);
  EXPECT_EQ(stats.attempts, 22u);
  EXPECT_EQ(stats.waited_units, 7700u);
  EXPECT_EQ(stats.bytes_sent, 3762u);
  EXPECT_EQ(stats.bytes_received, 24114u);
  EXPECT_EQ(stats.channel.offered, 36u);
  EXPECT_EQ(stats.channel.delivered, 30u);
  EXPECT_EQ(stats.channel.dropped, 6u);
  EXPECT_EQ(stats.channel.truncated, 0u);
  EXPECT_EQ(stats.channel.corrupted, 11u);
  EXPECT_EQ(stats.channel.duplicated, 0u);
  EXPECT_EQ(stats.channel.reordered, 0u);
  EXPECT_EQ(stats.channel.delayed, 0u);
}

}  // namespace
}  // namespace seccloud
