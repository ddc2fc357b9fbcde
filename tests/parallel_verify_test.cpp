// Parallel verification engine tests: the bit-identity guarantee. Every
// parallel path — fixed-argument pairing, batch aggregation, per-block audit
// sweeps, seeded Monte-Carlo — must reproduce the serial result exactly
// (values, verdicts, failure counts, AND op-counter totals) for every thread
// count. For the audits the serial result is a one-lane engine's report,
// whose every field audit_golden_test pins as literals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hash/hash_to.h"
#include "ibc/dvs.h"
#include "ibc/keys.h"
#include "pairing/parallel.h"
#include "pairing/precompute.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "seccloud/server.h"
#include "sim/montecarlo.h"

namespace seccloud {
namespace {

using hash::as_bytes;
using num::Xoshiro256;
using pairing::tiny_group;

// --- FixedPairing ----------------------------------------------------------

class FixedPairingTest : public ::testing::Test {
 protected:
  FixedPairingTest() : g(tiny_group()), rng(31337) {}

  pairing::Point random_point() {
    return g.mul(g.random_scalar(rng), g.generator());
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
};

TEST_F(FixedPairingTest, MatchesPairForRandomPoints) {
  for (int i = 0; i < 8; ++i) {
    const pairing::Point fixed_pt = random_point();
    const pairing::FixedPairing fixed{g, fixed_pt};
    for (int j = 0; j < 4; ++j) {
      const pairing::Point q = random_point();
      // ê is symmetric on G1 x G1, so the precomputed ê(fixed, ·) must equal
      // pair(·, fixed) — the argument order every dv check uses.
      EXPECT_EQ(fixed.pair_with(q), g.pair(q, fixed_pt));
      EXPECT_EQ(fixed.pair_with(q), g.pair(fixed_pt, q));
    }
  }
}

TEST_F(FixedPairingTest, HandlesInfinityOnEitherSide) {
  const pairing::Point p = random_point();
  const pairing::FixedPairing fixed{g, p};
  EXPECT_EQ(fixed.pair_with(pairing::Point::at_infinity()),
            g.pair(p, pairing::Point::at_infinity()));

  const pairing::FixedPairing fixed_at_inf{g, pairing::Point::at_infinity()};
  EXPECT_EQ(fixed_at_inf.pair_with(p), g.pair(pairing::Point::at_infinity(), p));
  EXPECT_EQ(fixed_at_inf.pair_with(p), g.gt_one());
}

TEST_F(FixedPairingTest, CountsOpsLikePair) {
  const pairing::Point p = random_point();
  const pairing::Point q = random_point();

  g.reset_counters();
  (void)g.pair(q, p);
  const pairing::OpCounters direct = g.counters();

  const pairing::FixedPairing fixed{g, p};
  g.reset_counters();
  (void)fixed.pair_with(q);
  EXPECT_EQ(g.counters(), direct);
}

// --- engine: batch aggregation and DesignatedVerifier ----------------------

class ParallelDvsTest : public ::testing::Test {
 protected:
  ParallelDvsTest()
      : g(tiny_group()),
        rng(999),
        sio(g, rng),
        alice(sio.extract("alice")),
        bob(sio.extract("bob")),
        server(sio.extract("cloud-server")) {
    for (int i = 0; i < 12; ++i) {
      const ibc::IdentityKey& signer = i % 2 == 0 ? alice : bob;
      messages.push_back("msg-" + std::to_string(i));
      sigs.push_back(ibc::dv_transform(
          g, ibc::ibs_sign(g, signer, as_bytes(messages.back()), rng), server.q_id));
      signer_ids.push_back(signer.q_id);
    }
  }

  std::vector<ibc::BatchEntry> entries() const {
    std::vector<ibc::BatchEntry> out;
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      out.push_back({signer_ids[i], as_bytes(messages[i]), &sigs[i]});
    }
    return out;
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey alice;
  ibc::IdentityKey bob;
  ibc::IdentityKey server;
  ibc::DesignatedVerifier server_verifier{g, server};  ///< the batch checks' sk_B lines
  std::vector<std::string> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<pairing::Point> signer_ids;
};

TEST_F(ParallelDvsTest, AddBatchStateBitIdenticalToSequentialAdds) {
  ibc::BatchAccumulator serial{g};
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    serial.add(signer_ids[i], as_bytes(messages[i]), sigs[i]);
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const pairing::ParallelPairingEngine engine{g, threads};
    ibc::BatchAccumulator parallel{g};
    parallel.add_batch(engine, entries());
    EXPECT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.u_aggregate(), serial.u_aggregate()) << threads << " threads";
    EXPECT_EQ(parallel.sigma_aggregate(), serial.sigma_aggregate())
        << threads << " threads";
  }
}

TEST_F(ParallelDvsTest, GroupedAggregateEqualsPerEntryFold) {
  // U_A is evaluated grouped by signer — Σ U_i + Σ_j (Σ h_i)·Q_j, one MSM
  // term per distinct Q_ID — and must equal the per-entry fold
  // Σ (U_i + h_i·Q_i) bit for bit: signers interleaved non-contiguously,
  // one of them a hostile key of order 3 outside G1 (where summing the h_i
  // mod q would be wrong), for every thread count.
  const pairing::Point torsion_key = [&] {
    const num::BigUint cofactor = (g.params().p + num::BigUint{1}) / num::BigUint{3};
    pairing::Point pt = pairing::Point::at_infinity();
    while (pt.infinity) pt = g.curve().mul(cofactor, g.curve().random_point(rng));
    return pt;
  }();
  const ibc::IdentityKey carol = sio.extract("carol");
  std::vector<pairing::Point> ids = signer_ids;
  std::vector<ibc::DvSignature> all = sigs;
  std::vector<std::string> msgs = messages;
  for (std::size_t i = 0; i < 7; ++i) {
    msgs.push_back("extra-" + std::to_string(i));
    const bool hostile = i % 3 == 1;
    ids.push_back(hostile ? torsion_key : carol.q_id);
    all.push_back(ibc::dv_transform(
        g, ibc::ibs_sign(g, hostile ? alice : carol, as_bytes(msgs.back()), rng), server.q_id));
  }
  // Interleave: A B A B … then carol/hostile entries spread between them.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    order.push_back(i);
    if (i % 2 == 1 && sigs.size() + i / 2 < all.size()) order.push_back(sigs.size() + i / 2);
  }
  for (std::size_t i = sigs.size() + sigs.size() / 2; i < all.size(); ++i) order.push_back(i);
  ASSERT_EQ(order.size(), all.size());
  std::vector<ibc::BatchEntry> batch;
  pairing::Point fold = pairing::Point::at_infinity();
  for (const std::size_t i : order) {
    batch.push_back({ids[i], as_bytes(msgs[i]), &all[i]});
    const num::BigUint h = ibc::tag_hash(g, all[i].u, as_bytes(msgs[i]));
    fold = g.add(fold, g.add(all[i].u, g.mul(h, ids[i])));
  }

  ibc::BatchAccumulator serial{g};
  for (const ibc::BatchEntry& e : batch) serial.add(e.signer_q_id, e.message, *e.sig);
  EXPECT_EQ(serial.u_aggregate(), fold);
  std::vector<std::size_t> per_entry_invalid;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (!ibc::dv_verify(g, batch[k].signer_q_id, batch[k].message, *batch[k].sig, server)) {
      per_entry_invalid.push_back(k);
    }
  }
  ASSERT_EQ(per_entry_invalid.size(), 2u) << "the entries claimed under the torsion key";
  ibc::BisectionStats serial_stats;
  EXPECT_EQ(ibc::dv_batch_isolate(g, batch, server, &serial_stats), per_entry_invalid);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    const pairing::ParallelPairingEngine engine{g, threads};
    ibc::BatchAccumulator parallel{g};
    parallel.add_batch(engine, batch);
    EXPECT_EQ(parallel.u_aggregate(), fold) << threads << " threads";
    EXPECT_EQ(parallel.sigma_aggregate(), serial.sigma_aggregate()) << threads << " threads";
    ibc::BisectionStats stats;
    ++stats.oracle_calls;  // the root check, counted as dv_batch_isolate counts it
    EXPECT_EQ(parallel.isolate(server_verifier, parallel.check(server_verifier), &stats),
              per_entry_invalid)
        << threads << " threads";
    EXPECT_EQ(stats, serial_stats) << threads << " threads";
  }
}

TEST_F(ParallelDvsTest, ParallelBatchVerifyMatchesSerialVerdicts) {
  const auto batch = entries();
  const bool serial_ok = ibc::dv_batch_verify(g, batch, server);
  EXPECT_TRUE(serial_ok);

  auto tampered_sigs = sigs;
  tampered_sigs[5].sigma = g.gt_mul(tampered_sigs[5].sigma,
                                    g.pair(g.generator(), g.generator()));
  std::vector<ibc::BatchEntry> tampered;
  for (std::size_t i = 0; i < tampered_sigs.size(); ++i) {
    tampered.push_back({signer_ids[i], as_bytes(messages[i]), &tampered_sigs[i]});
  }
  EXPECT_FALSE(ibc::dv_batch_verify(g, tampered, server));

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const pairing::ParallelPairingEngine engine{g, threads};
    const auto verify_on_pool = [&](const std::vector<ibc::BatchEntry>& entries) {
      ibc::BatchAccumulator acc{g};
      acc.add_batch(engine, entries);
      return acc.verify(server_verifier);
    };
    EXPECT_EQ(verify_on_pool(batch), serial_ok);
    EXPECT_FALSE(verify_on_pool(tampered));
  }
}

TEST_F(ParallelDvsTest, DesignatedVerifierMatchesDvVerify) {
  const ibc::DesignatedVerifier verifier{g, server};
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_TRUE(verifier.verify(signer_ids[i], as_bytes(messages[i]), sigs[i]));
    EXPECT_EQ(verifier.verify(signer_ids[i], as_bytes(messages[i]), sigs[i]),
              ibc::dv_verify(g, signer_ids[i], as_bytes(messages[i]), sigs[i], server));
    // Cross-wiring message i with signature i+1 must fail identically.
    const std::size_t j = (i + 1) % sigs.size();
    EXPECT_EQ(verifier.verify(signer_ids[i], as_bytes(messages[i]), sigs[j]),
              ibc::dv_verify(g, signer_ids[i], as_bytes(messages[i]), sigs[j], server));
  }
}

// --- audits ----------------------------------------------------------------

class ParallelAuditTest : public ::testing::Test {
 protected:
  ParallelAuditTest()
      : g(tiny_group()),
        rng(4242),
        sio(g, rng),
        user_key(sio.extract("user")),
        server_key(sio.extract("server")),
        da_key(sio.extract("da")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < 10; ++i) raw.push_back(core::DataBlock::from_value(i, 7 * i));
    blocks = client.sign_blocks(std::move(raw), rng);
    for (std::uint64_t i = 0; i < 5; ++i) {
      core::ComputeRequest req;
      req.kind = core::FuncKind::kSum;
      req.positions = {2 * i, 2 * i + 1};
      task.requests.push_back(std::move(req));
    }
  }

  core::BlockLookup lookup() const {
    return [this](std::uint64_t index) -> const core::SignedBlock* {
      return index < blocks.size() ? &blocks[index] : nullptr;
    };
  }

  static void expect_reports_equal(const core::AuditReport& a, const core::AuditReport& b,
                                   const char* what) {
    EXPECT_EQ(a.accepted, b.accepted) << what;
    EXPECT_EQ(a.warrant_rejected, b.warrant_rejected) << what;
    EXPECT_EQ(a.root_signature_valid, b.root_signature_valid) << what;
    EXPECT_EQ(a.samples_requested, b.samples_requested) << what;
    EXPECT_EQ(a.samples_returned, b.samples_returned) << what;
    EXPECT_EQ(a.signature_failures, b.signature_failures) << what;
    EXPECT_EQ(a.computation_failures, b.computation_failures) << what;
    EXPECT_EQ(a.root_failures, b.root_failures) << what;
    EXPECT_EQ(a.invalid_signature_entries, b.invalid_signature_entries) << what;
    EXPECT_EQ(a.bisection, b.bisection) << what;
    EXPECT_EQ(a.ops, b.ops) << what << " (op counters diverged)";
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
  const ibc::DesignatedVerifier da_verifier{g, da_key};  ///< sk_DA lines, built once
  core::UserClient client;
  std::vector<core::SignedBlock> blocks;
  core::ComputationTask task;
};

TEST_F(ParallelAuditTest, StorageAuditBitIdenticalAcrossThreadCounts) {
  auto tampered = blocks;
  tampered[3].block.payload[0] ^= 0xFF;  // one bad signature in the set

  for (const auto mode :
       {core::SignatureCheckMode::kIndividual, core::SignatureCheckMode::kBatch}) {
    for (const auto* set : {&blocks, &tampered}) {
      const auto serial = core::verify_storage_audit(pairing::ParallelPairingEngine{g, 1},
                                                     user_key.q_id, *set, da_verifier,
                                                     core::VerifierRole::kDesignatedAgency, mode);
      for (const std::size_t threads : {2u, 4u}) {
        const pairing::ParallelPairingEngine engine{g, threads};
        const auto parallel = core::verify_storage_audit(
            engine, user_key.q_id, *set, da_verifier, core::VerifierRole::kDesignatedAgency,
            mode);
        EXPECT_EQ(parallel.accepted, serial.accepted);
        EXPECT_EQ(parallel.blocks_checked, serial.blocks_checked);
        EXPECT_EQ(parallel.signature_failures, serial.signature_failures);
        EXPECT_EQ(parallel.invalid_signature_entries, serial.invalid_signature_entries);
        EXPECT_EQ(parallel.bisection, serial.bisection);
        EXPECT_EQ(parallel.ops, serial.ops) << "op counters diverged at " << threads;
      }
    }
  }
}

TEST_F(ParallelAuditTest, ComputationAuditBitIdenticalAcrossThreadCounts) {
  const core::TaskExecution exec = core::execute_task_honestly(task, lookup());
  const core::Commitment commitment =
      core::make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const core::Warrant warrant = client.make_warrant(da_key.id, 99, rng);
  const core::AuditChallenge challenge =
      core::make_challenge(task.requests.size(), 3, warrant, rng);
  const ibc::DesignatedVerifier server{g, server_key};
  const core::AuditResponse honest =
      core::respond_to_audit(exec, challenge, lookup(), user_key.q_id, server, 1);

  core::AuditResponse cheating = honest;  // corrupt one input-block signature
  const core::AuditResponse& cheating_ref = cheating;
  ASSERT_FALSE(cheating.items.empty());
  ASSERT_FALSE(cheating.items[0].inputs.empty());
  cheating.items[0].inputs[0].sig.sigma_da =
      g.gt_mul(cheating.items[0].inputs[0].sig.sigma_da,
               g.pair(g.generator(), g.generator()));

  for (const auto mode :
       {core::SignatureCheckMode::kIndividual, core::SignatureCheckMode::kBatch}) {
    for (const auto* response : {&honest, &cheating_ref}) {
      const auto serial = core::verify_computation_audit(
          pairing::ParallelPairingEngine{g, 1}, user_key.q_id, server_key.q_id, task,
          commitment, challenge, *response, da_key, mode);
      for (const std::size_t threads : {2u, 4u}) {
        const pairing::ParallelPairingEngine engine{g, threads};
        const auto parallel = core::verify_computation_audit(
            engine, user_key.q_id, server_key.q_id, task, commitment, challenge,
            *response, da_key, mode);
        expect_reports_equal(parallel, serial, response == &honest ? "honest" : "cheat");
      }
    }
  }

  // Sanity on the verdicts themselves.
  const pairing::ParallelPairingEngine serial{g, 1};
  const auto accepted = core::verify_computation_audit(
      serial, user_key.q_id, server_key.q_id, task, commitment, challenge, honest, da_key,
      core::SignatureCheckMode::kBatch);
  EXPECT_TRUE(accepted.accepted);
  const auto rejected = core::verify_computation_audit(
      serial, user_key.q_id, server_key.q_id, task, commitment, challenge, cheating, da_key,
      core::SignatureCheckMode::kBatch);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_GT(rejected.signature_failures, 0u);
}

// --- seeded Monte-Carlo ----------------------------------------------------

TEST(ParallelMonteCarlo, SeededRunsInvariantToThreadCount) {
  sim::DetectionParams params;
  params.cheat = {0.5, 0.5, 2.0, 0.0};
  params.task_size = 64;
  params.sample_size = 8;
  constexpr std::size_t kTrials = 2000;
  constexpr std::uint64_t kSeed = 20100611;

  const auto serial = sim::run_detection_model_seeded(params, kTrials, kSeed, nullptr);
  EXPECT_EQ(serial.trials, kTrials);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool{threads};
    const auto parallel = sim::run_detection_model_seeded(params, kTrials, kSeed, &pool);
    EXPECT_EQ(parallel.undetected, serial.undetected) << threads << " threads";
    EXPECT_EQ(parallel.trials, serial.trials);
  }

  // And a different seed gives a (almost surely) different count, proving
  // the seed actually drives the trials.
  const auto reseeded = sim::run_detection_model_seeded(params, kTrials, kSeed + 1, nullptr);
  EXPECT_EQ(reseeded.trials, kTrials);
}

}  // namespace
}  // namespace seccloud
