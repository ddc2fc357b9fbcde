// Identity-based crypto tests: SIO key extraction, Cha–Cheon IBS,
// designated-verifier transform (Eq. 5/7), the pairing-free DvSigner,
// transcript simulation (privacy), and batch verification (Eq. 8/9) across
// users.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hash/hash_to.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "ibc/keys.h"

namespace seccloud::ibc {
namespace {

using hash::as_bytes;
using num::Xoshiro256;
using pairing::tiny_group;

class IbcTest : public ::testing::Test {
 protected:
  IbcTest()
      : g(tiny_group()),
        rng(1234),
        sio(g, rng),
        alice(sio.extract("alice")),
        server(sio.extract("cloud-server")),
        agency(sio.extract("agency")) {}

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  Sio sio;
  IdentityKey alice;
  IdentityKey server;
  IdentityKey agency;
  DesignatedVerifier server_verifier{g, server};  ///< the batch checks' sk_B lines
};

TEST_F(IbcTest, ExtractionIsConsistent) {
  // sk_ID = s·Q_ID  ⇒  ê(sk_ID, P) == ê(Q_ID, P_pub).
  EXPECT_EQ(g.pair(alice.secret, g.generator()),
            g.pair(alice.q_id, sio.params().p_pub));
  EXPECT_EQ(alice.q_id, identity_point(g, "alice"));
  EXPECT_TRUE(g.in_g1(alice.q_id));
  EXPECT_TRUE(g.in_g1(alice.secret));
}

TEST_F(IbcTest, DistinctIdentitiesGetDistinctKeys) {
  EXPECT_NE(alice.q_id, server.q_id);
  EXPECT_NE(alice.secret, server.secret);
}

TEST_F(IbcTest, IbsSignVerifyRoundTrip) {
  const auto msg = as_bytes(std::string_view{"block data"});
  const IbsSignature sig = ibs_sign(g, alice, msg, rng);
  EXPECT_TRUE(ibs_verify(g, sio.params(), "alice", msg, sig));
}

TEST_F(IbcTest, IbsRejectsWrongMessage) {
  const IbsSignature sig = ibs_sign(g, alice, as_bytes(std::string_view{"m1"}), rng);
  EXPECT_FALSE(ibs_verify(g, sio.params(), "alice", as_bytes(std::string_view{"m2"}), sig));
}

TEST_F(IbcTest, IbsRejectsWrongSigner) {
  const auto msg = as_bytes(std::string_view{"m"});
  const IbsSignature sig = ibs_sign(g, alice, msg, rng);
  EXPECT_FALSE(ibs_verify(g, sio.params(), "bob", msg, sig));
}

TEST_F(IbcTest, IbsRejectsTamperedComponents) {
  const auto msg = as_bytes(std::string_view{"m"});
  IbsSignature sig = ibs_sign(g, alice, msg, rng);
  IbsSignature bad_u = sig;
  bad_u.u = g.add(bad_u.u, g.generator());
  EXPECT_FALSE(ibs_verify(g, sio.params(), "alice", msg, bad_u));
  IbsSignature bad_v = sig;
  bad_v.v = g.add(bad_v.v, g.generator());
  EXPECT_FALSE(ibs_verify(g, sio.params(), "alice", msg, bad_v));
}

TEST_F(IbcTest, SignaturesAreRandomized) {
  const auto msg = as_bytes(std::string_view{"m"});
  const IbsSignature s1 = ibs_sign(g, alice, msg, rng);
  const IbsSignature s2 = ibs_sign(g, alice, msg, rng);
  EXPECT_NE(s1.u, s2.u);  // fresh r each time
}

/// ibs_sign followed by dv_transform for each verifier: the textbook
/// reference a DvSigner must reproduce bit for bit.
DvSignatures sign_then_transform(const pairing::PairingGroup& group, const IdentityKey& signer,
                                 std::span<const pairing::Point> verifiers,
                                 std::span<const std::uint8_t> message,
                                 num::RandomSource& rng) {
  const IbsSignature ibs = ibs_sign(group, signer, message, rng);
  DvSignatures out{ibs.u, {}};
  for (const auto& q : verifiers) out.sigma.push_back(dv_transform(group, ibs, q).sigma);
  return out;
}

/// Σ_j = ê(sk_ID, Q_j)^((r+h) mod q) equals ê((r+h)·sk_ID, Q_j) for 1, 2 and
/// 3 verifiers, with and without the Q_ID table, and both paths leave the
/// RNG at the same draw.
void expect_signer_matches_reference(const pairing::PairingGroup& group, DvSigner::Uses uses) {
  Xoshiro256 key_rng(99);
  const Sio sio(group, key_rng);
  const IdentityKey signer = sio.extract("alice");
  const std::vector<pairing::Point> all_verifiers = {
      sio.extract("cloud-server").q_id, sio.extract("agency").q_id, sio.extract("alice").q_id};
  for (std::size_t k = 1; k <= all_verifiers.size(); ++k) {
    const std::span<const pairing::Point> verifiers{all_verifiers.data(), k};
    const DvSigner dv_signer(group, signer, verifiers, uses);
    EXPECT_EQ(dv_signer.q_id(), signer.q_id);
    Xoshiro256 signer_rng(77 + k);
    Xoshiro256 reference_rng(77 + k);
    for (const std::string_view text : {"", "payload", "another block", "payload"}) {
      const auto msg = as_bytes(text);
      const DvSignatures signed_once = dv_signer.sign(msg, signer_rng);
      ASSERT_EQ(signed_once.sigma.size(), k);
      EXPECT_EQ(signed_once, sign_then_transform(group, signer, verifiers, msg, reference_rng))
          << k << " verifiers, message \"" << text << "\"";
    }
    EXPECT_EQ(signer_rng.next_u64(), reference_rng.next_u64());
  }
}

TEST(DvSignerTest, BitIdenticalToSignThenTransformOnTinyGroup) {
  expect_signer_matches_reference(tiny_group(), DvSigner::Uses::kRepeated);
  expect_signer_matches_reference(tiny_group(), DvSigner::Uses::kOnce);
}

TEST(DvSignerTest, BitIdenticalToSignThenTransformOnDefaultGroup) {
  expect_signer_matches_reference(pairing::default_group(), DvSigner::Uses::kRepeated);
  expect_signer_matches_reference(pairing::default_group(), DvSigner::Uses::kOnce);
}

TEST_F(IbcTest, DvSignerSigmasVerifyForTheirVerifierOnly) {
  const std::vector<IdentityKey> keys = {server, agency};
  const std::vector<pairing::Point> verifiers = {server.q_id, agency.q_id};
  const DvSigner signer(g, alice, verifiers);
  const auto msg = as_bytes(std::string_view{"payload"});
  const DvSignatures sig = signer.sign(msg, rng);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const DesignatedVerifier prepared(g, keys[j]);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool designated = i == j;
      EXPECT_EQ(dv_verify(g, alice.q_id, msg, sig.for_verifier(i), keys[j]), designated)
          << "sigma " << i << " checked by verifier " << j;
      EXPECT_EQ(prepared.verify(alice.q_id, msg, sig.for_verifier(i)), designated)
          << "sigma " << i << " checked by verifier " << j;
    }
    EXPECT_FALSE(dv_verify(g, alice.q_id, as_bytes(std::string_view{"other"}),
                           sig.for_verifier(j), keys[j]));
  }
}

TEST_F(IbcTest, DvSignerCostsPairingsOnlyAtConstruction) {
  const std::vector<pairing::Point> verifiers = {server.q_id, agency.q_id, alice.q_id};
  for (const auto uses : {DvSigner::Uses::kRepeated, DvSigner::Uses::kOnce}) {
    for (std::size_t k = 1; k <= verifiers.size(); ++k) {
      g.reset_counters();
      const DvSigner signer(g, alice, std::span{verifiers.data(), k}, uses);
      EXPECT_EQ(g.counters(),
                (pairing::OpCounters{.pairings = k, .miller_loops = k, .final_exps = k}))
          << k << " verifiers";
      for (int round = 0; round < 3; ++round) {
        g.reset_counters();
        (void)signer.sign(as_bytes(std::string_view{"block"}), rng);
        // The fixed-base tables count exactly like the variable-base calls
        // they replace: one point_mul for U, one gt_exp per Σ, no MSM terms.
        const pairing::OpCounters ops = g.counters();
        EXPECT_EQ(ops.point_muls, 1u) << k << " verifiers";
        EXPECT_EQ(ops.gt_exps, k) << k << " verifiers";
        EXPECT_EQ(ops.msm_terms, 0u) << k << " verifiers";
        EXPECT_EQ(ops.gt_msm_terms, 0u) << k << " verifiers";
        EXPECT_EQ(ops, (pairing::OpCounters{.point_muls = 1, .gt_exps = k}))
            << k << " verifiers";
      }
    }
  }
}

TEST_F(IbcTest, ZeroSigningExponentGivesTheIdentityOnBothPaths) {
  // r + h ≡ 0 (mod q): V = 0·sk_ID is the point at infinity, whose pairing
  // is 1, and g^0 is 1, so the two paths still agree.
  const pairing::Gt g_server = g.pair(alice.secret, server.q_id);
  const num::BigUint zero;
  EXPECT_TRUE(g.gt_is_one(g.pair(g.mul(zero, alice.secret), server.q_id)));
  EXPECT_TRUE(g.gt_is_one(g.gt_pow(g_server, zero)));
}

TEST_F(IbcTest, DvSignerSharedAcrossLanesIsLaneCountIndependent) {
  // One signer, read-only, signing from every lane of the engine: each task
  // draws from its own seeded RNG and writes its own slot, so the output is
  // the same at one lane and at two.
  const std::vector<pairing::Point> verifiers = {server.q_id, agency.q_id};
  const DvSigner signer(g, alice, verifiers);
  constexpr std::size_t kTasks = 16;
  const auto sign_all = [&](std::size_t lanes) {
    std::vector<DvSignatures> out(kTasks);
    const ParallelPairingEngine engine{g, lanes};
    engine.for_each(kTasks, [&](std::size_t i) {
      Xoshiro256 task_rng(1000 + i);
      const std::string msg = "block " + std::to_string(i);
      out[i] = signer.sign(as_bytes(std::string_view{msg}), task_rng);
    });
    return out;
  };
  const std::vector<DvSignatures> one_lane = sign_all(1);
  const std::vector<DvSignatures> two_lanes = sign_all(2);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(two_lanes[i], one_lane[i]) << "task " << i;
    const std::string msg = "block " + std::to_string(i);
    EXPECT_TRUE(dv_verify(g, alice.q_id, as_bytes(std::string_view{msg}),
                          one_lane[i].for_verifier(1), agency));
  }
}

TEST_F(IbcTest, DvTransformVerifiesForDesignatedVerifierOnly) {
  const auto msg = as_bytes(std::string_view{"payload"});
  const IbsSignature ibs = ibs_sign(g, alice, msg, rng);
  const DvSignature for_server = dv_transform(g, ibs, server.q_id);
  const DvSignature for_agency = dv_transform(g, ibs, agency.q_id);

  EXPECT_TRUE(dv_verify(g, alice.q_id, msg, for_server, server));
  EXPECT_TRUE(dv_verify(g, alice.q_id, msg, for_agency, agency));
  // Cross-verification fails: Σ is bound to one verifier identity.
  EXPECT_FALSE(dv_verify(g, alice.q_id, msg, for_server, agency));
  EXPECT_FALSE(dv_verify(g, alice.q_id, msg, for_agency, server));
}

TEST_F(IbcTest, DvRejectsWrongMessageOrSigner) {
  const auto msg = as_bytes(std::string_view{"payload"});
  const DvSignature dv = dv_transform(g, ibs_sign(g, alice, msg, rng), server.q_id);
  EXPECT_FALSE(dv_verify(g, alice.q_id, as_bytes(std::string_view{"other"}), dv, server));
  EXPECT_FALSE(dv_verify(g, agency.q_id, msg, dv, server));
}

TEST_F(IbcTest, SimulatedTranscriptsVerify) {
  // The core of the privacy argument: the designated verifier can forge
  // signatures that pass its own check, so a passing transcript convinces
  // no third party.
  const auto msg = as_bytes(std::string_view{"secret data"});
  const DvSignature fake = dv_simulate(g, alice.q_id, msg, server, rng);
  EXPECT_TRUE(dv_verify(g, alice.q_id, msg, fake, server));
}

TEST_F(IbcTest, SimulatedAndGenuineHaveSameForm) {
  const auto msg = as_bytes(std::string_view{"m"});
  const DvSignature real = dv_transform(g, ibs_sign(g, alice, msg, rng), server.q_id);
  const DvSignature fake = dv_simulate(g, alice.q_id, msg, server, rng);
  // Both U components lie in the cyclic subgroup generated by Q_ID; both Σ
  // satisfy the same verification equation. (Statistical indistinguishability
  // follows from U being uniform in ⟨Q_ID⟩ in both cases.)
  EXPECT_TRUE(g.in_g1(real.u));
  EXPECT_TRUE(g.in_g1(fake.u));
  EXPECT_TRUE(dv_verify(g, alice.q_id, msg, real, server));
  EXPECT_TRUE(dv_verify(g, alice.q_id, msg, fake, server));
}

TEST_F(IbcTest, BatchVerifyAcceptsMixedSigners) {
  // Eq. (8)/(9): k users, n_i signatures each.
  const IdentityKey bob = sio.extract("bob");
  const IdentityKey carol = sio.extract("carol");

  std::vector<std::string> messages;
  std::vector<DvSignature> sigs;
  std::vector<const IdentityKey*> signers{&alice, &bob, &carol};
  BatchAccumulator acc{g};
  for (int i = 0; i < 9; ++i) {
    const IdentityKey& signer = *signers[static_cast<std::size_t>(i) % 3];
    messages.push_back("message-" + std::to_string(i));
    sigs.push_back(dv_transform(g, ibs_sign(g, signer, as_bytes(messages.back()), rng),
                                server.q_id));
    acc.add(signer.q_id, as_bytes(messages.back()), sigs.back());
  }
  EXPECT_EQ(acc.size(), 9u);
  EXPECT_TRUE(acc.verify(server_verifier));
}

TEST_F(IbcTest, BatchVerifyRejectsOneBadSignature) {
  BatchAccumulator acc{g};
  std::vector<std::string> messages;
  for (int i = 0; i < 5; ++i) {
    messages.push_back("m-" + std::to_string(i));
    DvSignature sig =
        dv_transform(g, ibs_sign(g, alice, as_bytes(messages.back()), rng), server.q_id);
    if (i == 3) sig.sigma = g.gt_mul(sig.sigma, g.pair(g.generator(), g.generator()));
    acc.add(alice.q_id, as_bytes(messages.back()), sig);
  }
  EXPECT_FALSE(acc.verify(server_verifier));
}

TEST_F(IbcTest, BatchVerifyCountsOnePairing) {
  BatchAccumulator acc{g};
  std::vector<std::string> messages;
  for (int i = 0; i < 20; ++i) {
    messages.push_back("m-" + std::to_string(i));
    acc.add(alice.q_id, as_bytes(messages.back()),
            dv_transform(g, ibs_sign(g, alice, as_bytes(messages.back()), rng), server.q_id));
  }
  g.reset_counters();
  EXPECT_TRUE(acc.verify(server_verifier));
  EXPECT_EQ(g.counters().pairings, 1u);
}

TEST_F(IbcTest, EmptyBatchAccepts) {
  EXPECT_TRUE(dv_batch_verify(g, {}, server));
}

TEST_F(IbcTest, DvBatchVerifyHelperMatchesAccumulator) {
  std::vector<std::string> messages;
  std::vector<DvSignature> sigs;
  for (int i = 0; i < 4; ++i) {
    messages.push_back("h-" + std::to_string(i));
    sigs.push_back(
        dv_transform(g, ibs_sign(g, alice, as_bytes(messages.back()), rng), server.q_id));
  }
  std::vector<BatchEntry> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back({alice.q_id, as_bytes(messages[static_cast<std::size_t>(i)]),
                       &sigs[static_cast<std::size_t>(i)]});
  }
  EXPECT_TRUE(dv_batch_verify(g, entries, server));
  sigs[2].u = g.add(sigs[2].u, g.generator());
  EXPECT_FALSE(dv_batch_verify(g, entries, server));
}

TEST_F(IbcTest, AccumulatorVerifyBeforeAnyAddAccepts) {
  // A never-filled accumulator IS the empty batch: U_A = O and Σ_A = 1, so
  // ê(U_A, sk_B) = 1 = Σ_A holds vacuously.
  BatchAccumulator acc{g};
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_TRUE(acc.verify(server_verifier));
}

TEST_F(IbcTest, EmptyBatchAcceptsThroughParallelEngine) {
  const ParallelPairingEngine engine{g, 2};
  BatchAccumulator acc{g};
  acc.add_batch(engine, {});
  EXPECT_TRUE(acc.verify(server_verifier));
}

TEST_F(IbcTest, BatchOneValidOneTamperedRejects) {
  // The minimal mixed batch: a genuine signature must not be able to carry
  // a tampered one through the aggregate check.
  const std::string good_msg = "legitimate";
  const std::string bad_msg = "tampered";
  const DvSignature good =
      dv_transform(g, ibs_sign(g, alice, as_bytes(good_msg), rng), server.q_id);
  DvSignature bad =
      dv_transform(g, ibs_sign(g, alice, as_bytes(bad_msg), rng), server.q_id);
  bad.sigma = g.gt_mul(bad.sigma, g.pair(g.generator(), g.generator()));

  BatchAccumulator acc{g};
  acc.add(alice.q_id, as_bytes(good_msg), good);
  acc.add(alice.q_id, as_bytes(bad_msg), bad);
  EXPECT_FALSE(acc.verify(server_verifier));

  // Same verdict through the parallel engine and the batch helper.
  const ParallelPairingEngine engine{g, 2};
  const std::vector<BatchEntry> entries{{alice.q_id, as_bytes(good_msg), &good},
                                        {alice.q_id, as_bytes(bad_msg), &bad}};
  EXPECT_FALSE(dv_batch_verify(g, entries, server));
  BatchAccumulator hashed_on_pool{g};
  hashed_on_pool.add_batch(engine, entries);
  EXPECT_FALSE(hashed_on_pool.verify(server_verifier));
}

}  // namespace
}  // namespace seccloud::ibc
