// Golden signatures: the U‖Σ bytes every production signing site emits for
// fixed seeds, pinned as SHA-256 literals, together with the next draw of the
// caller's RNG after signing. Any change to how a site signs — the signing
// arithmetic, the RNG draw order, which verifiers it designates — must leave
// these bytes as they are.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hash/sha256.h"
#include "ibc/keys.h"
#include "seccloud/client.h"
#include "seccloud/dynamic.h"
#include "seccloud/server.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

/// SHA-256 over a sequence of serialized U and Σ values.
class SignatureDigest {
 public:
  explicit SignatureDigest(const pairing::PairingGroup& group) : g_(&group) {}

  SignatureDigest& add(const ibc::DvSignature& sig) {
    sha_.update(g_->curve().serialize(sig.u));
    sha_.update(g_->gt_serialize(sig.sigma));
    return *this;
  }
  SignatureDigest& add(const core::BlockSignature& sig) {
    sha_.update(g_->curve().serialize(sig.u));
    sha_.update(g_->gt_serialize(sig.sigma_cs));
    sha_.update(g_->gt_serialize(sig.sigma_da));
    return *this;
  }
  std::string hex() { return hash::to_hex(sha_.finish()); }

 private:
  const pairing::PairingGroup* g_;
  hash::Sha256 sha_;
};

class SigningGoldenTest : public ::testing::Test {
 protected:
  SigningGoldenTest()
      : g(tiny_group()),
        rng(0x516E),
        sio(g, rng),
        user_key(sio.extract("user@signing")),
        cs_key(sio.extract("cs@signing")),
        da_key(sio.extract("da@signing")) {}

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey cs_key;
  ibc::IdentityKey da_key;
};

TEST_F(SigningGoldenTest, UserClientBlocksAndWarrant) {
  const core::UserClient client{g, sio.params(), user_key, cs_key.q_id, da_key.q_id};
  Xoshiro256 sign_rng{101};
  std::vector<core::DataBlock> raw;
  for (std::uint64_t i = 0; i < 6; ++i) raw.push_back(core::DataBlock::from_value(i, 17 * i + 5));
  const std::vector<core::SignedBlock> blocks = client.sign_blocks(raw, sign_rng);
  ASSERT_EQ(blocks.size(), raw.size());
  SignatureDigest block_digest{g};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].block, raw[i]);
    block_digest.add(blocks[i].sig);
  }
  EXPECT_EQ(block_digest.hex(),
            "4e39fd5b41ec702ec33e61f49d6dc042071a88e23088c8a7f1fae53fa882c58e");
  EXPECT_EQ(sign_rng.next_u64(), 9281866171446122795u);

  Xoshiro256 warrant_rng{202};
  const core::Warrant warrant = client.make_warrant("da@signing", 9, warrant_rng);
  EXPECT_EQ(SignatureDigest{g}.add(warrant.authorization).hex(),
            "d38fdb4e559ca6ff5277b9ff5ba7973a60c94a385a6080fb6acaa85b26f7a12c");
  EXPECT_EQ(warrant_rng.next_u64(), 12714974715619001825u);
}

TEST_F(SigningGoldenTest, DynamicClientInsertUpdateDelete) {
  core::DynamicClient client{g, sio.params(), user_key, cs_key.q_id, da_key.q_id};
  Xoshiro256 op_rng{303};
  SignatureDigest digest{g};
  for (std::uint64_t i = 0; i < 3; ++i) {
    digest.add(client.insert(core::DataBlock::from_value(i, 40 + i), op_rng).block.sig);
  }
  digest.add(client.update(core::DataBlock::from_value(1, 99), op_rng).block.sig);
  digest.add(client.remove(2, op_rng).tombstone);
  EXPECT_EQ(digest.hex(), "9ff190a72948b48d26dbbad7b9e507529c66bda6a5d88b5ca0a21fa00ff26864");
  EXPECT_EQ(op_rng.next_u64(), 2257647337298787043u);
}

TEST_F(SigningGoldenTest, ServerRootCommitment) {
  core::ComputationTask task;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::ComputeRequest req;
    req.kind = static_cast<core::FuncKind>(i % 6);
    req.positions = {i};
    task.requests.push_back(std::move(req));
  }
  const core::TaskExecution execution{std::move(task), {3, 1, 4, 1}};
  Xoshiro256 root_rng{404};
  const core::Commitment commitment =
      core::make_commitment(g, execution, cs_key, da_key.q_id, user_key.q_id, root_rng);
  EXPECT_EQ(SignatureDigest{g}.add(commitment.root_sig_da).add(commitment.root_sig_user).hex(),
            "4d58da75653a5b8d857702f2be6c154bb8639664cdc050d615ecdaab210650a7");
  EXPECT_EQ(root_rng.next_u64(), 12421262463681514641u);
}

TEST_F(SigningGoldenTest, FleetBlocksAndServiceAttestations) {
  service::ServiceConfig config;
  config.registry.shards = 2;
  config.epoch.batch_capacity = 4;
  config.threads = 1;
  service::AuditService svc{g, da_key, cs_key, config};
  sim::FleetWorkload fleet{sio, {.users = 8, .active_users = 3, .blocks_per_request = 2, .seed = 5}};
  fleet.populate(svc);

  const char* const block_golden[] = {
      "1ddac6cfec3bef86e9fdebcb13438d05655557829a94d8b05b4cde1f7c09644c",
      "c6c0b1c904aca9b9d7d6f9da6ea2947164dd84a791e20ba58f158c1dfc060fc2",
  };
  const char* const attestation_golden[] = {
      "53d1d4d72db90735a8cb74fbf53a5702fcdb5f975a7b5c5675b051f3f4c6028a",
      "82414e862f749c7305b142edf99a930adba60644c3a4c8f972648cc77281e519",
  };
  for (std::size_t round = 0; round < 2; ++round) {
    SignatureDigest blocks{g};
    for (auto& request : fleet.make_requests(svc)) {
      for (const auto& block : request.blocks) blocks.add(block.sig);
      ASSERT_TRUE(svc.submit(std::move(request)).accepted);
    }
    EXPECT_EQ(blocks.hex(), block_golden[round]) << "round " << round;

    const service::EpochReport report = svc.run_epoch();
    ASSERT_EQ(report.batches, 2u);  // 6 entries / capacity 4
    EXPECT_EQ(report.verified_requests, 3u);
    SignatureDigest attestations{g};
    for (const auto& batch : report.results) {
      EXPECT_TRUE(batch.verdict.attestation_valid);
      attestations.add(batch.attestation);
    }
    EXPECT_EQ(attestations.hex(), attestation_golden[round]) << "epoch " << round;
  }
}

}  // namespace
}  // namespace seccloud
