// Identity-based crypto tests: SIO key extraction, Cha–Cheon IBS,
// designated-verifier transform (Eq. 5/7), transcript simulation (privacy),
// and batch verification (Eq. 8/9) across users.
#include <gtest/gtest.h>

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

TEST_F(IbcTest, PrecomputedSigningAndTransformAreBitIdentical) {
  // Fixed-base tables on Q_ID and sk_ID, and the Q_B Miller lines, give the
  // same signature and Σ as the plain path for the same RNG draws, with the
  // same op counts (one point_mul per scalar multiplication).
  const ec::FixedBaseTable q_id{g.curve(), alice.q_id};
  const ec::FixedBaseTable secret{g.curve(), alice.secret};
  const pairing::FixedPairing q_server{g, server.q_id};
  for (const std::string_view text : {"", "payload", "another block"}) {
    const auto msg = as_bytes(text);
    Xoshiro256 plain_rng(77);
    Xoshiro256 table_rng(77);
    g.reset_counters();
    const IbsSignature plain = ibs_sign(g, alice, msg, plain_rng);
    const DvSignature plain_dv = dv_transform(g, plain, server.q_id);
    const auto plain_ops = g.counters();
    g.reset_counters();
    const IbsSignature tabled = ibs_sign(g, q_id, secret, msg, table_rng);
    const DvSignature tabled_dv = dv_transform(q_server, tabled);
    const auto tabled_ops = g.counters();
    EXPECT_EQ(tabled, plain);
    EXPECT_EQ(tabled_dv, plain_dv);
    EXPECT_EQ(tabled_ops, plain_ops);
    EXPECT_TRUE(DesignatedVerifier(g, server).verify(q_id, msg, tabled_dv));
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
  EXPECT_TRUE(acc.verify(server));
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
  EXPECT_FALSE(acc.verify(server));
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
  EXPECT_TRUE(acc.verify(server));
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
  // ê(U_A, sk_B) = 1 = Σ_A holds vacuously — through both verify paths.
  BatchAccumulator acc{g};
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_TRUE(acc.verify(server));
  const DesignatedVerifier precomputed{g, server};
  EXPECT_TRUE(acc.verify(precomputed));
}

TEST_F(IbcTest, EmptyBatchAcceptsThroughParallelEngine) {
  const ParallelPairingEngine engine{g, 2};
  BatchAccumulator acc{g};
  acc.add_batch(engine, {});
  EXPECT_TRUE(acc.verify(server));
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
  EXPECT_FALSE(acc.verify(server));

  // Same verdict through the parallel engine and the batch helper.
  const ParallelPairingEngine engine{g, 2};
  const std::vector<BatchEntry> entries{{alice.q_id, as_bytes(good_msg), &good},
                                        {alice.q_id, as_bytes(bad_msg), &bad}};
  EXPECT_FALSE(dv_batch_verify(g, entries, server));
  BatchAccumulator hashed_on_pool{g};
  hashed_on_pool.add_batch(engine, entries);
  EXPECT_FALSE(hashed_on_pool.verify(server));
}

}  // namespace
}  // namespace seccloud::ibc
