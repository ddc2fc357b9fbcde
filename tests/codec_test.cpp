// Wire-codec tests: round trips for every protocol message, malformed-input
// rejection (truncation, bad tags, off-curve points, trailing garbage), and
// a truncation sweep that feeds every prefix of a valid encoding back in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ibc/keys.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "seccloud/server.h"

namespace seccloud::core {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

class CodecTest : public ::testing::Test {
 protected:
  CodecTest()
      : g(tiny_group()),
        rng(808),
        sio(g, rng),
        user_key(sio.extract("user")),
        server_key(sio.extract("server")),
        da_key(sio.extract("da")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    std::vector<DataBlock> raw;
    for (std::uint64_t i = 0; i < 12; ++i) raw.push_back(DataBlock::from_value(i, 31 * i));
    blocks = client.sign_blocks(std::move(raw), rng);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ComputeRequest req;
      req.kind = static_cast<FuncKind>(i % 6);
      for (std::uint64_t j = 0; j < 3; ++j) req.positions.push_back(3 * i + j);
      task.requests.push_back(std::move(req));
    }
  }

  BlockLookup lookup() const {
    return [this](std::uint64_t index) -> const SignedBlock* {
      return index < blocks.size() ? &blocks[index] : nullptr;
    };
  }

  const pairing::PairingGroup& g;
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

TEST_F(CodecTest, SignedBlockRoundTrip) {
  for (const auto& sb : blocks) {
    const Bytes wire = encode_signed_block(g, sb);
    const auto back = decode_signed_block(g, wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, sb);
  }
}

TEST_F(CodecTest, SignedBlockSurvivesReverification) {
  // A decoded block must still verify — the codec preserves the crypto.
  const Bytes wire = encode_signed_block(g, blocks[3]);
  const auto back = decode_signed_block(g, wire);
  ASSERT_TRUE(back.has_value());
  const auto report = verify_storage_audit(pairing::ParallelPairingEngine{g, 1}, user_key.q_id,
                                           std::vector{*back}, da_verifier,
                                           VerifierRole::kDesignatedAgency,
                                           SignatureCheckMode::kIndividual);
  EXPECT_TRUE(report.accepted);
}

TEST_F(CodecTest, SignedBlockTruncationSweep) {
  const Bytes wire = encode_signed_block(g, blocks[0]);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_signed_block(g, std::span(wire.data(), len)).has_value())
        << "prefix " << len;
  }
}

TEST_F(CodecTest, SignedBlockTrailingGarbageRejected) {
  Bytes wire = encode_signed_block(g, blocks[0]);
  wire.push_back(0x00);
  EXPECT_FALSE(decode_signed_block(g, wire).has_value());
}

TEST_F(CodecTest, SignedBlockOffCurvePointRejected) {
  Bytes wire = encode_signed_block(g, blocks[0]);
  // The point U starts right after index (8) + payload length (4) + payload.
  const std::size_t point_offset = 8 + 4 + blocks[0].block.payload.size();
  ASSERT_EQ(wire[point_offset], 0x04);
  wire[point_offset + 1] ^= 0xFF;  // corrupt X: overwhelmingly off-curve
  const auto back = decode_signed_block(g, wire);
  if (back.has_value()) {
    // Astronomically unlikely, but if still on-curve the signature must fail.
    EXPECT_NE(*back, blocks[0]);
  }
}

TEST_F(CodecTest, TaskRoundTrip) {
  const Bytes wire = encode_task(g, task);
  const auto back = decode_task(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->requests, task.requests);
}

TEST_F(CodecTest, TaskRejectsUnknownFunctionKind) {
  Bytes wire = encode_task(g, task);
  wire[4] = 0xEE;  // first request's kind byte
  EXPECT_FALSE(decode_task(g, wire).has_value());
}

TEST_F(CodecTest, CommitmentRoundTrip) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const Bytes wire = encode_commitment(g, commitment);
  const auto back = decode_commitment(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->results, commitment.results);
  EXPECT_EQ(back->root, commitment.root);
  EXPECT_EQ(back->root_sig_da, commitment.root_sig_da);
  EXPECT_EQ(back->root_sig_user, commitment.root_sig_user);
  // The decoded root signature still verifies for the user.
  EXPECT_TRUE(client.verify_root_signature(server_key.q_id, *back));
}

TEST_F(CodecTest, WarrantRoundTripAndStillValid) {
  const Warrant warrant = client.make_warrant(da_key.id, 77, rng);
  const Bytes wire = encode_warrant(g, warrant);
  const auto back = decode_warrant(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->delegator_id, warrant.delegator_id);
  EXPECT_EQ(back->delegatee_id, warrant.delegatee_id);
  EXPECT_EQ(back->expiry_epoch, warrant.expiry_epoch);
  EXPECT_TRUE(warrant_valid(server_verifier, user_key.q_id, *back, 50));
  EXPECT_FALSE(warrant_valid(server_verifier, user_key.q_id, *back, 78));  // expired
}

TEST_F(CodecTest, ChallengeRoundTrip) {
  const Warrant warrant = client.make_warrant(da_key.id, 77, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 3, warrant, rng);
  const Bytes wire = encode_challenge(g, challenge);
  const auto back = decode_challenge(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sample_indices, challenge.sample_indices);
  EXPECT_EQ(back->warrant.expiry_epoch, challenge.warrant.expiry_epoch);
}

TEST_F(CodecTest, ResponseRoundTripAndAuditStillPasses) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Commitment commitment =
      make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const Warrant warrant = client.make_warrant(da_key.id, 77, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 3, warrant, rng);
  const AuditResponse response =
      respond_to_audit(exec, challenge, lookup(), user_key.q_id, server_verifier, 1);

  // Full wire round trip of both challenge and response, then verify.
  const auto challenge2 = decode_challenge(g, encode_challenge(g, challenge));
  const auto response2 = decode_response(g, encode_response(g, response));
  ASSERT_TRUE(challenge2.has_value());
  ASSERT_TRUE(response2.has_value());
  const AuditReport report =
      verify_computation_audit(pairing::ParallelPairingEngine{g, 1}, user_key.q_id,
                               server_key.q_id, task, commitment, *challenge2, *response2,
                               da_key, SignatureCheckMode::kBatch);
  EXPECT_TRUE(report.accepted);
}

TEST_F(CodecTest, ResponseTruncationSweepCoarse) {
  const TaskExecution exec = execute_task_honestly(task, lookup());
  const Warrant warrant = client.make_warrant(da_key.id, 77, rng);
  const AuditChallenge challenge = make_challenge(task.requests.size(), 2, warrant, rng);
  const AuditResponse response =
      respond_to_audit(exec, challenge, lookup(), user_key.q_id, server_verifier, 1);
  const Bytes wire = encode_response(g, response);
  for (std::size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_FALSE(decode_response(g, std::span(wire.data(), len)).has_value());
  }
}

TEST_F(CodecTest, GtValuesOutsideFieldRejected) {
  // Hand-craft a signed block whose Σ real part equals p (invalid residue).
  Bytes wire = encode_signed_block(g, blocks[0]);
  const std::size_t w = (g.params().p.bit_length() + 7) / 8;
  const std::size_t point_size = 1 + 2 * w;
  const std::size_t sigma_offset = 8 + 4 + blocks[0].block.payload.size() + point_size;
  const auto p_bytes = g.params().p.to_bytes(w);
  std::copy(p_bytes.begin(), p_bytes.end(),
            wire.begin() + static_cast<std::ptrdiff_t>(sigma_offset));
  EXPECT_FALSE(decode_signed_block(g, wire).has_value());
}

TEST_F(CodecTest, EncoderPrimitivesRoundTrip) {
  Encoder enc{g};
  enc.put_u8(0xAB);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFull);
  enc.put_string("hello");
  enc.put_point(g.generator());
  enc.put_point(Point::at_infinity());
  const Bytes wire = std::move(enc).take();

  Decoder dec{g, wire};
  EXPECT_EQ(dec.get_u8().value(), 0xAB);
  EXPECT_EQ(dec.get_u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.get_string().value(), "hello");
  EXPECT_EQ(dec.get_point().value(), g.generator());
  EXPECT_TRUE(dec.get_point().value().infinity);
  EXPECT_TRUE(dec.exhausted());
}

TEST_F(CodecTest, VarBytesLengthLimitEnforced) {
  Encoder enc{g};
  enc.put_var_bytes(Bytes(100, 0x77));
  const Bytes wire = std::move(enc).take();
  Decoder dec{g, wire};
  EXPECT_FALSE(dec.get_var_bytes(/*max_len=*/50).has_value());
}

}  // namespace
}  // namespace seccloud::core

// --- allocation-bounded malformed-input regressions ------------------------
//
// A handful of header bytes must not be able to force the decoders into
// multi-megabyte reserve() calls: capacity growth has to stay proportional
// to the bytes actually supplied. The global operator new is instrumented
// (binary-wide; gtest's own bookkeeping allocations are negligible next to
// the megabytes a regression would show).

namespace {
std::atomic<std::size_t> g_bytes_allocated{0};
}  // namespace

void* operator new(std::size_t size) {
  g_bytes_allocated.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seccloud::core {
namespace {

constexpr std::size_t kAllocationBound = 64u * 1024;  // far below the ~MBs a bug costs

TEST_F(CodecTest, DecodeTaskHugeCountHeaderRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u32(1u << 20);  // claims a million requests...
  enc.put_u8(0);          // ...but supplies one byte
  const Bytes wire = std::move(enc).take();
  ASSERT_EQ(wire.size(), 5u);
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_task(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound)
      << "decoder reserved capacity for a count the input cannot contain";
}

TEST_F(CodecTest, DecodeTaskHugePositionCountRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u32(1);         // one request
  enc.put_u8(0);          // kind
  enc.put_u32(1u << 20);  // a million positions, zero bytes behind them
  const Bytes wire = std::move(enc).take();
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_task(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
}

TEST_F(CodecTest, DecodeCommitmentHugeCountRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u32(1u << 24);  // claims 16M results in a 4-byte message
  const Bytes wire = std::move(enc).take();
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_commitment(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
}

TEST_F(CodecTest, DecodeChallengeHugeCountRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u32(1u << 20);
  const Bytes wire = std::move(enc).take();
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_challenge(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
}

TEST_F(CodecTest, DecodeResponseHugeItemCountRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u8(1);          // warrant accepted
  enc.put_u32(1u << 20);  // a million items in a 5-byte message
  const Bytes wire = std::move(enc).take();
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_response(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
}

TEST_F(CodecTest, DecodeResponseHugeInputCountRejectedWithoutAllocation) {
  Encoder enc{g};
  enc.put_u8(1);
  enc.put_u32(1);         // one item
  enc.put_u64(0);         // request index
  enc.put_u64(0);         // result
  enc.put_u32(1u << 16);  // 65536 input blocks, zero bytes behind them
  const Bytes wire = std::move(enc).take();
  const std::size_t before = g_bytes_allocated.load();
  EXPECT_FALSE(decode_response(g, wire).has_value());
  EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
}

TEST_F(CodecTest, PlausibleCountsStillDecode) {
  // The fail-fast bound must not reject honest encodings: re-run a round
  // trip whose counts sit exactly at what the remaining bytes can encode.
  const Bytes wire = encode_task(g, task);
  const auto back = decode_task(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->requests.size(), task.requests.size());
}

}  // namespace
}  // namespace seccloud::core
