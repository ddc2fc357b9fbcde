// Protocol value-type tests: function evaluation semantics, leaf encodings,
// block message binding, warrant body encoding, transport size consistency.
#include <gtest/gtest.h>

#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "seccloud/types.h"
#include "sim/transport.h"

namespace seccloud::core {
namespace {

TEST(DataBlock, ValueRoundTrip) {
  for (const std::uint64_t v : {0ull, 1ull, 0xFFull, 0x0123456789ABCDEFull,
                                0xFFFFFFFFFFFFFFFFull}) {
    const DataBlock b = DataBlock::from_value(7, v);
    EXPECT_EQ(b.value(), v);
    EXPECT_EQ(b.index, 7u);
    EXPECT_EQ(b.payload.size(), 8u);
  }
}

TEST(DataBlock, ShortPayloadZeroPads) {
  DataBlock b;
  b.payload = {0x01, 0x02};
  EXPECT_EQ(b.value(), 0x0201u);
  DataBlock empty;
  EXPECT_EQ(empty.value(), 0u);
}

TEST(DataBlock, LongPayloadUsesFirstEightBytes) {
  DataBlock b;
  b.payload.assign(32, 0xFF);
  b.payload[8] = 0x00;  // beyond the 8-byte window
  EXPECT_EQ(b.value(), 0xFFFFFFFFFFFFFFFFull);
}

TEST(Evaluate, SumWrapsModulo64) {
  const std::uint64_t values[] = {0xFFFFFFFFFFFFFFFFull, 2};
  EXPECT_EQ(evaluate(FuncKind::kSum, values), 1u);
}

TEST(Evaluate, AverageIsExactOverWideSums) {
  // Two maximal values: the 128-bit accumulator must not overflow.
  const std::uint64_t values[] = {0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
  EXPECT_EQ(evaluate(FuncKind::kAverage, values), 0xFFFFFFFFFFFFFFFFull);
  const std::uint64_t uneven[] = {1, 2};
  EXPECT_EQ(evaluate(FuncKind::kAverage, uneven), 1u);  // floor
}

TEST(Evaluate, MinMax) {
  const std::uint64_t values[] = {5, 9, 3, 9, 1};
  EXPECT_EQ(evaluate(FuncKind::kMax, values), 9u);
  EXPECT_EQ(evaluate(FuncKind::kMin, values), 1u);
}

TEST(Evaluate, DotSelfMatchesManualSquares) {
  const std::uint64_t values[] = {3, 4};
  EXPECT_EQ(evaluate(FuncKind::kDotSelf, values), 25u);
}

TEST(Evaluate, PolyEvalIsOrderSensitive) {
  const std::uint64_t ab[] = {1, 2};
  const std::uint64_t ba[] = {2, 1};
  EXPECT_NE(evaluate(FuncKind::kPolyEval, ab), evaluate(FuncKind::kPolyEval, ba));
}

TEST(Evaluate, EmptyOperandsThrow) {
  EXPECT_THROW(evaluate(FuncKind::kSum, {}), std::invalid_argument);
}

TEST(Evaluate, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(FuncKind::kPolyEval); ++k) {
    EXPECT_STRNE(to_string(static_cast<FuncKind>(k)), "unknown");
  }
}

TEST(ResultLeafBytes, BindsKindPositionsAndResult) {
  ComputeRequest req;
  req.kind = FuncKind::kSum;
  req.positions = {1, 2, 3};

  const Bytes base = result_leaf_bytes(req, 100);
  EXPECT_NE(base, result_leaf_bytes(req, 101));  // result bound

  ComputeRequest other_kind = req;
  other_kind.kind = FuncKind::kMax;
  EXPECT_NE(base, result_leaf_bytes(other_kind, 100));  // kind bound

  ComputeRequest other_positions = req;
  other_positions.positions = {1, 2, 4};
  EXPECT_NE(base, result_leaf_bytes(other_positions, 100));  // positions bound

  ComputeRequest reordered = req;
  reordered.positions = {3, 2, 1};
  EXPECT_NE(base, result_leaf_bytes(reordered, 100));  // order bound
}

TEST(BlockMessage, BindsIndexAndPayload) {
  const DataBlock a = DataBlock::from_value(1, 42);
  DataBlock b = a;
  b.index = 2;
  EXPECT_NE(block_message_bytes(a), block_message_bytes(b));
  DataBlock c = a;
  c.payload[0] ^= 1;
  EXPECT_NE(block_message_bytes(a), block_message_bytes(c));
}

TEST(WarrantBody, UnambiguousEncoding) {
  // Length-prefixed fields: moving a character across the id boundary must
  // change the encoding.
  Warrant w1;
  w1.delegator_id = "ab";
  w1.delegatee_id = "c";
  w1.expiry_epoch = 5;
  Warrant w2;
  w2.delegator_id = "a";
  w2.delegatee_id = "bc";
  w2.expiry_epoch = 5;
  EXPECT_NE(w1.body_bytes(), w2.body_bytes());
}

TEST(Transport, SizesMatchRealEncodings) {
  const auto& g = pairing::tiny_group();
  num::Xoshiro256 rng{4242};
  const ibc::Sio sio{g, rng};
  const auto user = sio.extract("u");
  const auto server = sio.extract("s");
  const auto da = sio.extract("d");
  const UserClient client{g, sio.params(), user, server.q_id, da.q_id};

  const SignedBlock sb = client.sign_blocks({DataBlock::from_value(0, 9)}, rng).at(0);
  EXPECT_EQ(sim::wire_size_signed_block(g, sb), encode_signed_block(g, sb).size());

  const Warrant warrant = client.make_warrant(da.id, 9, rng);
  AuditChallenge challenge;
  challenge.sample_indices = {0, 1, 2};
  challenge.warrant = warrant;
  EXPECT_EQ(sim::wire_size_challenge(g, challenge), encode_challenge(g, challenge).size());
}

}  // namespace
}  // namespace seccloud::core
