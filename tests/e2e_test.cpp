// End-to-end tests on the production-size (SS512) group, plus figure-shape
// assertions: the pairing counts behind Figure 5 and Table II are checked
// structurally here so a regression cannot silently change the headline
// result. These tests are heavier (seconds, not milliseconds).
#include <gtest/gtest.h>

#include "baselines/wang_auditing.h"
#include "hash/hash_to.h"
#include "hash/hmac_drbg.h"
#include "seccloud/codec.h"
#include "seccloud/system.h"

namespace seccloud {
namespace {

using core::DataBlock;
using core::FuncKind;
using pairing::default_group;

TEST(EndToEnd512, FullProtocolOnProductionParameters) {
  core::SecCloudSystem sys{default_group(), 512001};
  auto alice = sys.register_user("alice@prod.example");

  std::vector<DataBlock> blocks;
  for (std::uint64_t i = 0; i < 8; ++i) blocks.push_back(DataBlock::from_value(i, 1000 + i));
  auto upload = alice.sign_blocks(std::move(blocks));
  ASSERT_TRUE(sys.cloud_server().store(alice.key().q_id, upload));

  core::ComputationTask task;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::ComputeRequest req;
    req.kind = static_cast<FuncKind>(i % 6);
    req.positions = {2 * i, 2 * i + 1};
    task.requests.push_back(std::move(req));
  }
  const auto executed = sys.cloud_server().compute(alice.key().q_id, task);
  const auto report = sys.agency().audit(alice, sys.cloud_server(), executed.task_id, task,
                                         executed.commitment, 4, 1);
  EXPECT_TRUE(report.accepted);
  EXPECT_EQ(report.signature_failures, 0u);
}

TEST(EndToEnd512, TamperDetectedOnProductionParameters) {
  core::SecCloudSystem sys{default_group(), 512002};
  auto bob = sys.register_user("bob@prod.example");
  std::vector<DataBlock> blocks{DataBlock::from_value(0, 7), DataBlock::from_value(1, 9)};
  auto upload = bob.sign_blocks(std::move(blocks));
  upload[1].block.payload[0] ^= 1;
  EXPECT_FALSE(sys.cloud_server().store(bob.key().q_id, upload));
}

TEST(EndToEnd512, CodecRoundTripOnProductionParameters) {
  const auto& g = default_group();
  core::SecCloudSystem sys{g, 512003};
  auto carol = sys.register_user("carol@prod.example");
  const auto upload = carol.sign_blocks({DataBlock::from_value(3, 11)});
  const auto wire = core::encode_signed_block(g, upload[0]);
  // SS512: 8 (index) + 4+8 (payload) + 129 (point) + 2*128 (GT) = 405 bytes.
  EXPECT_EQ(wire.size(), 405u);
  const auto back = core::decode_signed_block(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, upload[0]);
}

TEST(EndToEnd512, HmacDrbgDrivesKeyGeneration) {
  // The crypto-grade RNG path: everything accepts any RandomSource.
  const auto& g = default_group();
  hash::HmacDrbg drbg{std::string_view{"deterministic key material"}};
  const ibc::Sio sio{g, drbg};
  const auto key = sio.extract("drbg-user");
  EXPECT_TRUE(g.in_g1(key.secret));
  // Same seed ⇒ same master key ⇒ same extraction.
  hash::HmacDrbg drbg2{std::string_view{"deterministic key material"}};
  const ibc::Sio sio2{g, drbg2};
  EXPECT_EQ(sio2.extract("drbg-user").secret, key.secret);
}

// --- figure-shape assertions ---------------------------------------------

TEST(FigureShapes, Figure5ConstantVsLinearPairings) {
  // Structural version of Figure 5 on the tiny group: our batch audit uses
  // 1 pairing regardless of user count; the Wang-style comparator uses 2
  // pairings per user.
  const auto& g = pairing::tiny_group();
  num::Xoshiro256 rng{5050};
  const ibc::Sio sio{g, rng};
  const auto csp = sio.extract("csp");
  const ibc::DesignatedVerifier csp_verifier{g, csp};

  baselines::WangScheme wang{g};
  for (const std::size_t users : {1u, 10u, 25u}) {
    ibc::BatchAccumulator batch{g};
    std::vector<std::string> messages;
    std::vector<ibc::IdentityKey> keys;
    for (std::size_t u = 0; u < users; ++u) {
      keys.push_back(sio.extract("u" + std::to_string(u)));
      messages.push_back("m" + std::to_string(u));
      batch.add(keys.back().q_id, hash::as_bytes(messages.back()),
                ibc::dv_transform(g, ibc::ibs_sign(g, keys.back(),
                                                   hash::as_bytes(messages.back()), rng),
                                  csp.q_id));
    }
    g.reset_counters();
    ASSERT_TRUE(batch.verify(csp_verifier));
    EXPECT_EQ(g.counters().pairings, 1u) << users;

    // Wang: one 2-pairing verification per user.
    std::uint64_t wang_pairings = 0;
    for (std::size_t u = 0; u < users; ++u) {
      const auto key = wang.keygen("f" + std::to_string(u), rng);
      std::vector<num::BigUint> file{num::BigUint{u}, num::BigUint{u + 1}};
      std::vector<pairing::Point> tags{wang.tag_block(key, 0, file[0]),
                                       wang.tag_block(key, 1, file[1])};
      const auto challenge = wang.make_challenge(2, 2, rng);
      const auto proof = wang.prove(challenge, file, tags);
      g.reset_counters();
      ASSERT_TRUE(wang.verify(wang.public_info(key), challenge, proof));
      wang_pairings += g.counters().pairings;
    }
    EXPECT_EQ(wang_pairings, 2 * users) << users;
  }
}

TEST(FigureShapes, Table2PairingCounts) {
  // SecCloud: τ pairings individual, 1 batch. (Table II's count model.)
  const auto& g = pairing::tiny_group();
  num::Xoshiro256 rng{6060};
  const ibc::Sio sio{g, rng};
  const auto csp = sio.extract("csp");
  const ibc::DesignatedVerifier csp_verifier{g, csp};
  const auto user = sio.extract("user");
  constexpr std::size_t kTau = 12;

  std::vector<std::string> messages;
  std::vector<ibc::DvSignature> sigs;
  for (std::size_t i = 0; i < kTau; ++i) {
    messages.push_back("t" + std::to_string(i));
    sigs.push_back(ibc::dv_transform(
        g, ibc::ibs_sign(g, user, hash::as_bytes(messages.back()), rng), csp.q_id));
  }
  g.reset_counters();
  for (std::size_t i = 0; i < kTau; ++i) {
    ASSERT_TRUE(ibc::dv_verify(g, user.q_id, hash::as_bytes(messages[i]), sigs[i], csp));
  }
  EXPECT_EQ(g.counters().pairings, kTau);

  ibc::BatchAccumulator batch{g};
  for (std::size_t i = 0; i < kTau; ++i) {
    batch.add(user.q_id, hash::as_bytes(messages[i]), sigs[i]);
  }
  g.reset_counters();
  ASSERT_TRUE(batch.verify(csp_verifier));
  EXPECT_EQ(g.counters().pairings, 1u);
}

}  // namespace
}  // namespace seccloud
