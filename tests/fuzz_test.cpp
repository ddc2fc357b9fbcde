// Failure-injection tests: deterministic mutation fuzzing over every wire
// codec (decoders must never crash and mutated crypto must never verify),
// plus auditor robustness against adversarially malformed responses.
#include <gtest/gtest.h>

#include "ibc/keys.h"
#include "property_support.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "seccloud/server.h"

namespace seccloud::core {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

class FuzzTest : public ::testing::Test {
 protected:
  FuzzTest()
      : g(tiny_group()),
        rng(13013),
        sio(g, rng),
        user_key(sio.extract("user")),
        server_key(sio.extract("server")),
        da_key(sio.extract("da")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    std::vector<DataBlock> raw;
    for (std::uint64_t i = 0; i < 10; ++i) raw.push_back(DataBlock::from_value(i, 5 * i));
    blocks = client.sign_blocks(std::move(raw), rng);
    for (std::uint64_t i = 0; i < 5; ++i) {
      ComputeRequest req;
      req.kind = FuncKind::kSum;
      req.positions = {2 * i, 2 * i + 1};
      task.requests.push_back(std::move(req));
    }
  }

  BlockLookup lookup() const {
    return [this](std::uint64_t index) -> const SignedBlock* {
      return index < blocks.size() ? &blocks[index] : nullptr;
    };
  }

  /// Applies `n` random byte mutations (flip / truncate / extend).
  Bytes mutate(Bytes wire, int n, Xoshiro256& mutation_rng) {
    for (int i = 0; i < n && !wire.empty(); ++i) {
      switch (mutation_rng.next_u64() % 4) {
        case 0:  // bit flip
          wire[mutation_rng.next_u64() % wire.size()] ^=
              static_cast<std::uint8_t>(1u << (mutation_rng.next_u64() % 8));
          break;
        case 1:  // truncate
          wire.resize(mutation_rng.next_u64() % wire.size());
          break;
        case 2:  // append junk
          wire.push_back(static_cast<std::uint8_t>(mutation_rng.next_u64()));
          break;
        case 3:  // byte overwrite
          wire[mutation_rng.next_u64() % wire.size()] =
              static_cast<std::uint8_t>(mutation_rng.next_u64());
          break;
      }
    }
    return wire;
  }

  const pairing::PairingGroup& g;
  const pairing::ParallelPairingEngine engine{g, 1};  // one lane: the serial path
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
  const ibc::DesignatedVerifier server_verifier{g, server_key};  ///< sk_CS lines, built once
  const ibc::DesignatedVerifier da_verifier{g, da_key};          ///< sk_DA lines, built once
  UserClient client;
  std::vector<SignedBlock> blocks;
  ComputationTask task;
};

TEST_F(FuzzTest, MutatedSignedBlocksNeverVerify) {
  Xoshiro256 fuzz{1};
  const Bytes wire = encode_signed_block(g, blocks[0]);
  int decodable = 0;
  const int rounds = static_cast<int>(testsupport::property_iters(500));
  for (int round = 0; round < rounds; ++round) {
    const Bytes mutated = mutate(wire, 1 + static_cast<int>(fuzz.next_u64() % 4), fuzz);
    const auto decoded = decode_signed_block(g, mutated);  // must not crash
    if (!decoded) continue;
    // A mutant that differs in anything the DA checks (block, U, Σ') must
    // fail DA-side verification; a mutation confined to Σ (the CS copy) is
    // invisible to the DA by design.
    const bool da_view_unchanged = decoded->block == blocks[0].block &&
                                   decoded->sig.u == blocks[0].sig.u &&
                                   decoded->sig.sigma_da == blocks[0].sig.sigma_da;
    if (da_view_unchanged) continue;
    ++decodable;
    const auto report = verify_storage_audit(engine, user_key.q_id, std::vector{*decoded},
                                             da_verifier, VerifierRole::kDesignatedAgency,
                                             SignatureCheckMode::kIndividual);
    EXPECT_FALSE(report.accepted);
  }
  // Most mutations are rejected structurally; a few decode (payload bytes).
  EXPECT_LT(decodable, rounds / 2);
}

TEST_F(FuzzTest, MutatedMessagesNeverCrashDecoders) {
  Xoshiro256 fuzz{2};
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const Warrant warrant = client.make_warrant(da_key.id, 99, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 3, warrant, rng);
  const AuditResponse response =
      respond_to_audit(exec, challenge, lookup(), user_key.q_id, server_verifier, 1);

  const Bytes wires[] = {
      encode_task(g, task),
      encode_commitment(g, commitment),
      encode_warrant(g, warrant),
      encode_challenge(g, challenge),
      encode_response(g, response),
  };
  const int rounds = static_cast<int>(testsupport::property_iters(300));
  for (int round = 0; round < rounds; ++round) {
    for (const auto& wire : wires) {
      const Bytes mutated = mutate(wire, 1 + static_cast<int>(fuzz.next_u64() % 6), fuzz);
      // None of these may crash or corrupt memory; results are discarded.
      (void)decode_task(g, mutated);
      (void)decode_commitment(g, mutated);
      (void)decode_warrant(g, mutated);
      (void)decode_challenge(g, mutated);
      (void)decode_response(g, mutated);
      (void)decode_signed_block(g, mutated);
    }
  }
  SUCCEED();
}

TEST_F(FuzzTest, MutatedWarrantsNeverAuthorize) {
  Xoshiro256 fuzz{3};
  const Warrant warrant = client.make_warrant(da_key.id, 99, rng);
  const Bytes wire = encode_warrant(g, warrant);
  const int rounds = static_cast<int>(testsupport::property_iters(200));
  for (int round = 0; round < rounds; ++round) {
    const Bytes mutated = mutate(wire, 1 + static_cast<int>(fuzz.next_u64() % 3), fuzz);
    const auto decoded = decode_warrant(g, mutated);
    if (!decoded) continue;
    const bool unchanged = decoded->delegator_id == warrant.delegator_id &&
                           decoded->delegatee_id == warrant.delegatee_id &&
                           decoded->expiry_epoch == warrant.expiry_epoch &&
                           decoded->authorization == warrant.authorization;
    if (unchanged) continue;
    EXPECT_FALSE(warrant_valid(server_verifier, user_key.q_id, *decoded, 1));
  }
}

TEST_F(FuzzTest, AdversarialCountHeadersNeverCrashOrAccept) {
  // Handcrafted corpus: headers claiming enormous element counts followed by
  // (almost) no payload. Every decoder must reject them up front — and, per
  // the allocation regressions in codec_test.cpp, without reserving capacity
  // the input cannot back.
  const std::uint32_t counts[] = {1u << 16, 1u << 20, (1u << 20) + 1, 1u << 24,
                                  0xFFFFFFFFu};
  for (const auto count : counts) {
    Encoder header{g};
    header.put_u32(count);
    const Bytes count_only = std::move(header).take();
    EXPECT_FALSE(decode_task(g, count_only).has_value());
    EXPECT_FALSE(decode_commitment(g, count_only).has_value());
    EXPECT_FALSE(decode_challenge(g, count_only).has_value());

    Encoder response{g};
    response.put_u8(1);  // warrant accepted
    response.put_u32(count);
    EXPECT_FALSE(decode_response(g, std::move(response).take()).has_value());

    Encoder nested{g};   // huge inner count behind a valid-looking item
    nested.put_u8(1);
    nested.put_u32(1);
    nested.put_u64(0);
    nested.put_u64(0);
    nested.put_u32(count);
    EXPECT_FALSE(decode_response(g, std::move(nested).take()).has_value());
  }
}

// --- adversarially malformed responses (beyond byte mutation) ---------------

class MalformedResponseTest : public FuzzTest {
 protected:
  AuditReport audit_with(const AuditResponse& response) {
    const TaskExecution exec = execute_task_honestly(task, lookup());
    const Commitment commitment =
        make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
    return verify_computation_audit(engine, user_key.q_id, server_key.q_id, task,
                                    commitment, last_challenge_, response, da_key,
                                    SignatureCheckMode::kBatch);
  }

  AuditResponse honest_response() {
    const TaskExecution exec = execute_task_honestly(task, lookup());
    const Warrant warrant = client.make_warrant(da_key.id, 99, rng);
    last_challenge_ = make_challenge(task.requests.size(), 3, warrant, rng);
    return respond_to_audit(exec, last_challenge_, lookup(), user_key.q_id, server_verifier, 1);
  }

  AuditChallenge last_challenge_;
};

TEST_F(MalformedResponseTest, DuplicateItemsRejected) {
  AuditResponse response = honest_response();
  response.items.push_back(response.items.front());  // answer one sample twice
  const auto report = audit_with(response);
  EXPECT_FALSE(report.accepted);
}

TEST_F(MalformedResponseTest, UnrequestedSampleRejected) {
  AuditResponse response = honest_response();
  // Replace a requested item with an unrequested index.
  std::uint64_t unrequested = 0;
  while (std::find(last_challenge_.sample_indices.begin(),
                   last_challenge_.sample_indices.end(),
                   unrequested) != last_challenge_.sample_indices.end()) {
    ++unrequested;
  }
  response.items.front().request_index = unrequested;
  EXPECT_FALSE(audit_with(response).accepted);
}

TEST_F(MalformedResponseTest, OutOfRangeIndexRejected) {
  AuditResponse response = honest_response();
  response.items.front().request_index = 10'000;
  EXPECT_FALSE(audit_with(response).accepted);
}

TEST_F(MalformedResponseTest, MissingInputsRejected) {
  AuditResponse response = honest_response();
  response.items.front().inputs.clear();
  const auto report = audit_with(response);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.signature_failures, 0u);
}

TEST_F(MalformedResponseTest, ExtraInputsRejected) {
  AuditResponse response = honest_response();
  response.items.front().inputs.push_back(blocks[9]);
  EXPECT_FALSE(audit_with(response).accepted);
}

TEST_F(MalformedResponseTest, EmptyResponseToNonEmptyChallengeRejected) {
  AuditResponse response = honest_response();
  response.items.clear();
  const auto report = audit_with(response);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.root_failures, last_challenge_.sample_indices.size());
}

}  // namespace
}  // namespace seccloud::core
