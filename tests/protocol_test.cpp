// End-to-end protocol tests: system initialization → secure storage →
// secure computation → commitment verification (Algorithm 1), including
// every cheating behaviour the adversarial model defines.
#include <gtest/gtest.h>

#include <unordered_set>

#include "ibc/keys.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/server.h"

namespace seccloud::core {
namespace {

using ibc::IdentityKey;
using ibc::Sio;
using num::Xoshiro256;
using pairing::PairingGroup;
using pairing::tiny_group;

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : g(tiny_group()),
        rng(20100610),
        sio(g, rng),
        user_key(sio.extract("alice@example.com")),
        server_key(sio.extract("cs-01.cloud.example")),
        da_key(sio.extract("da.audit.example")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    // Outsource 64 numeric blocks with values 100·i.
    std::vector<DataBlock> blocks;
    for (std::uint64_t i = 0; i < 64; ++i) blocks.push_back(DataBlock::from_value(i, 100 * i));
    stored = client.sign_blocks(std::move(blocks), rng);

    // A computation task: one sub-task per window of 4 positions.
    for (std::uint64_t i = 0; i < 16; ++i) {
      ComputeRequest req;
      req.kind = static_cast<FuncKind>(i % 6);
      for (std::uint64_t j = 0; j < 4; ++j) req.positions.push_back(4 * i + j);
      task.requests.push_back(std::move(req));
    }
  }

  BlockLookup lookup() const {
    return [this](std::uint64_t index) -> const SignedBlock* {
      return index < stored.size() ? &stored[index] : nullptr;
    };
  }

  AuditReport run_audit(const TaskExecution& exec, const BlockLookup& storage,
                        std::size_t sample_size, SignatureCheckMode mode) {
    const Commitment commitment =
        make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
    const Warrant warrant = client.make_warrant(da_key.id, /*expiry_epoch=*/100, rng);
    const AuditChallenge challenge =
        make_challenge(task.requests.size(), sample_size, warrant, rng);
    const AuditResponse response = respond_to_audit(exec, challenge, storage,
                                                    user_key.q_id, server_verifier,
                                                    /*current_epoch=*/10);
    return verify_computation_audit(engine, user_key.q_id, server_key.q_id, task,
                                    commitment, challenge, response, da_key, mode);
  }

  const PairingGroup& g;
  const pairing::ParallelPairingEngine engine{g, 1};  // one lane: the serial path
  Xoshiro256 rng;
  Sio sio;
  IdentityKey user_key;
  IdentityKey server_key;
  IdentityKey da_key;
  const ibc::DesignatedVerifier server_verifier{g, server_key};  ///< sk_CS lines, built once
  const ibc::DesignatedVerifier da_verifier{g, da_key};          ///< sk_DA lines, built once
  UserClient client;
  std::vector<SignedBlock> stored;
  ComputationTask task;
};

TEST_F(ProtocolTest, StorageAuditAcceptsAuthenticBlocks) {
  for (const auto mode : {SignatureCheckMode::kIndividual, SignatureCheckMode::kBatch}) {
    const auto report = verify_storage_audit(engine, user_key.q_id, stored, da_verifier,
                                             VerifierRole::kDesignatedAgency, mode);
    EXPECT_TRUE(report.accepted);
    EXPECT_EQ(report.signature_failures, 0u);
  }
}

TEST_F(ProtocolTest, CloudServerCanAlsoVerifyViaItsSigma) {
  const auto report = verify_storage_audit(engine, user_key.q_id, stored, server_verifier,
                                           VerifierRole::kCloudServer,
                                           SignatureCheckMode::kIndividual);
  EXPECT_TRUE(report.accepted);
}

TEST_F(ProtocolTest, StorageAuditDetectsTamperedPayload) {
  auto tampered = stored;
  tampered[7].block.payload[0] ^= 0xFF;
  const auto report = verify_storage_audit(engine, user_key.q_id, tampered, da_verifier,
                                           VerifierRole::kDesignatedAgency,
                                           SignatureCheckMode::kIndividual);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.signature_failures, 1u);
}

TEST_F(ProtocolTest, StorageAuditDetectsRelocatedBlock) {
  // Block content copied to a different position: index binding must fail.
  auto tampered = stored;
  tampered[3].block.index = 5;
  const auto report = verify_storage_audit(engine, user_key.q_id, tampered, da_verifier,
                                           VerifierRole::kDesignatedAgency,
                                           SignatureCheckMode::kIndividual);
  EXPECT_FALSE(report.accepted);
}

TEST_F(ProtocolTest, BatchStorageAuditDetectsAndLocatesFailures) {
  auto tampered = stored;
  tampered[1].block.payload[0] ^= 1;
  tampered[9].block.payload[0] ^= 1;
  const auto report = verify_storage_audit(engine, user_key.q_id, tampered, da_verifier,
                                           VerifierRole::kDesignatedAgency,
                                           SignatureCheckMode::kBatch);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.signature_failures, 2u);
}

TEST_F(ProtocolTest, BatchUsesOnePairingIndividualUsesMany) {
  g.reset_counters();
  (void)verify_storage_audit(engine, user_key.q_id, stored, da_verifier,
                             VerifierRole::kDesignatedAgency, SignatureCheckMode::kBatch);
  const auto batch_ops = g.counters();
  (void)verify_storage_audit(engine, user_key.q_id, stored, da_verifier,
                             VerifierRole::kDesignatedAgency,
                             SignatureCheckMode::kIndividual);
  const auto individual_ops = g.counters();
  EXPECT_EQ(batch_ops.pairings, 1u);
  EXPECT_EQ(individual_ops.pairings, stored.size());
}

TEST_F(ProtocolTest, HonestComputationAuditAccepted) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  for (const auto mode : {SignatureCheckMode::kIndividual, SignatureCheckMode::kBatch}) {
    const AuditReport report = run_audit(exec, lookup(), /*sample_size=*/8, mode);
    EXPECT_TRUE(report.accepted);
    EXPECT_TRUE(report.root_signature_valid);
    EXPECT_EQ(report.signature_failures, 0u);
    EXPECT_EQ(report.computation_failures, 0u);
    EXPECT_EQ(report.root_failures, 0u);
    EXPECT_EQ(report.samples_returned, 8u);
  }
}

TEST_F(ProtocolTest, FullSamplingAuditAccepted) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const AuditReport report =
      run_audit(exec, lookup(), task.requests.size(), SignatureCheckMode::kBatch);
  EXPECT_TRUE(report.accepted);
}

TEST_F(ProtocolTest, GuessedResultsDetectedWithFullSampling) {
  // Computation-cheating (1): the server "computes" random numbers.
  TaskExecution honest = execute_task_honestly(task, lookup());
  std::vector<std::uint64_t> guessed = honest.results();
  for (auto& y : guessed) y ^= 0x1234;
  const TaskExecution cheat{task, std::move(guessed)};
  const AuditReport report =
      run_audit(cheat, lookup(), task.requests.size(), SignatureCheckMode::kIndividual);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.computation_failures, task.requests.size());
  // The tree was built over the guessed results, so root checks pass — the
  // computation check is what catches this cheat.
  EXPECT_EQ(report.root_failures, 0u);
}

TEST_F(ProtocolTest, ResultSwapAfterCommitmentDetectedByRoot) {
  // The server commits to honest results but later reports different ones.
  const TaskExecution honest = execute_task_honestly(task, lookup());
  std::vector<std::uint64_t> swapped = honest.results();
  std::swap(swapped[0], swapped[1]);
  TaskExecution reported{task, std::move(swapped)};

  const Commitment commitment =
      make_commitment(g, honest, server_key, da_key.q_id, user_key.q_id, rng);
  const Warrant warrant = client.make_warrant(da_key.id, 100, rng);
  AuditChallenge challenge = make_challenge(task.requests.size(), task.requests.size(),
                                            warrant, rng);
  const AuditResponse response = respond_to_audit(reported, challenge, lookup(),
                                                  user_key.q_id, server_verifier, 10);
  const AuditReport report =
      verify_computation_audit(engine, user_key.q_id, server_key.q_id, task, commitment,
                               challenge, response, da_key, SignatureCheckMode::kBatch);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.root_failures, 0u);
}

TEST_F(ProtocolTest, WrongPositionDataDetectedBySignatureCheck) {
  // Computation-cheating (2): compute over x̃ from cheaper positions while
  // claiming the requested ones. The returned blocks then either carry the
  // wrong index (position mismatch) or a signature for another index.
  std::vector<SignedBlock> shifted = stored;
  for (std::size_t i = 0; i + 1 < shifted.size(); ++i) {
    shifted[i] = stored[i + 1];
    shifted[i].block.index = stored[i].block.index;  // claim the right position
  }
  const BlockLookup cheat_lookup = [&shifted](std::uint64_t index) -> const SignedBlock* {
    return index < shifted.size() ? &shifted[index] : nullptr;
  };
  const TaskExecution exec = execute_task_honestly(task, cheat_lookup);
  const AuditReport report =
      run_audit(exec, cheat_lookup, task.requests.size(), SignatureCheckMode::kIndividual);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.signature_failures, 0u);
}

TEST_F(ProtocolTest, DeletedDataDetected) {
  // Storage-cheating: the server deleted everything past position 8 and
  // answers audits with random numbers.
  std::vector<SignedBlock> partial(stored.begin(), stored.begin() + 8);
  const BlockLookup partial_lookup = [&partial](std::uint64_t index) -> const SignedBlock* {
    return index < partial.size() ? &partial[index] : nullptr;
  };
  const TaskExecution exec = execute_task_honestly(task, lookup());  // commits honestly
  const AuditReport report =
      run_audit(exec, partial_lookup, task.requests.size(), SignatureCheckMode::kIndividual);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.signature_failures, 0u);
}

TEST_F(ProtocolTest, ExpiredWarrantRejectedByServer) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Warrant warrant = client.make_warrant(da_key.id, /*expiry_epoch=*/5, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 4, warrant, rng);
  const AuditResponse response = respond_to_audit(exec, challenge, lookup(),
                                                  user_key.q_id, server_verifier,
                                                  /*current_epoch=*/10);
  EXPECT_FALSE(response.warrant_accepted);
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const AuditReport report =
      verify_computation_audit(engine, user_key.q_id, server_key.q_id, task, commitment,
                               challenge, response, da_key, SignatureCheckMode::kBatch);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.warrant_rejected);
}

TEST_F(ProtocolTest, ForgedWarrantRejected) {
  // A warrant "signed" by someone who is not the user.
  const IdentityKey mallory = sio.extract("mallory@example.com");
  const UserClient mallory_client(g, sio.params(), mallory, server_key.q_id, da_key.q_id);
  Warrant warrant = mallory_client.make_warrant(da_key.id, 100, rng);
  warrant.delegator_id = user_key.id;  // claims to be alice
  EXPECT_FALSE(warrant_valid(server_verifier, user_key.q_id, warrant, 10));
}

TEST_F(ProtocolTest, DroppedSamplesCountAsFailures) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const Warrant warrant = client.make_warrant(da_key.id, 100, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 6, warrant, rng);
  AuditResponse response =
      respond_to_audit(exec, challenge, lookup(), user_key.q_id, server_verifier, 10);
  response.items.pop_back();  // server silently drops one sample
  const AuditReport report =
      verify_computation_audit(engine, user_key.q_id, server_key.q_id, task, commitment,
                               challenge, response, da_key, SignatureCheckMode::kBatch);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.root_failures, 0u);
}

TEST_F(ProtocolTest, UserCanVerifyRootSignatureDirectly) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  EXPECT_TRUE(client.verify_root_signature(server_key.q_id, commitment));
  Commitment bad = commitment;
  bad.root[0] ^= 1;
  EXPECT_FALSE(client.verify_root_signature(server_key.q_id, bad));
}

TEST_F(ProtocolTest, SampleIndicesAreUniqueAndInRange) {
  for (int round = 0; round < 20; ++round) {
    const auto s = sample_indices(50, 20, rng);
    ASSERT_EQ(s.size(), 20u);
    std::unordered_set<std::uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), s.size());
    for (const auto v : s) EXPECT_LT(v, 50u);
  }
  EXPECT_EQ(sample_indices(5, 50, rng).size(), 5u);  // clamped
}

}  // namespace
}  // namespace seccloud::core
