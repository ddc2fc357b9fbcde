// Property tests for the wire codecs (ctest label `property`).
//
// Seeded generators produce random protocol values — tasks, commitments,
// challenges, responses, signed-block lists — and the suite checks, for
// every type:
//   * decode(encode(x)) == x (the codecs are lossless);
//   * every single-byte mutation of a valid encoding either decodes cleanly
//     (to something — benign payload flips are legal) or fails, and in both
//     cases without pathological allocation;
//   * every strict prefix fails without pathological allocation.
// Iteration counts obey SECCLOUD_PROPERTY_ITERS (see property_support.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "property_support.h"
#include "seccloud/codec.h"
#include "seccloud/session.h"

// Binary-wide allocation meter (same technique as codec_test.cpp): a decoder
// tricked by a mutated length/count header into a huge reserve() shows up as
// megabytes here.
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

using num::Xoshiro256;
using pairing::tiny_group;
using testsupport::property_iters;

// One mutated decode may legitimately build a large-ish value (a flipped
// payload length can claim up to the remaining bytes), but never orders of
// magnitude more than the input itself.
constexpr std::size_t kAllocationBound = 64u * 1024;

// --- seeded generators -----------------------------------------------------

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : g_(tiny_group()), rng_(seed) {}

  const pairing::PairingGroup& group() const { return g_; }

  std::uint64_t u64() { return rng_.next_u64(); }
  std::size_t size(std::size_t max) { return static_cast<std::size_t>(rng_.next_u64() % (max + 1)); }

  Point point() {
    if (rng_.next_u64() % 8 == 0) return Point::at_infinity();
    return g_.mul(g_.random_scalar(rng_), g_.generator());
  }

  Gt gt() {
    // Any pair of residues < p is a decodable GT encoding; scalars mod q
    // are a convenient uniform-ish subset.
    const num::BigUint real = g_.random_scalar(rng_);
    return g_.fp2().element(real, g_.random_scalar(rng_));
  }

  ibc::DvSignature dv_signature() { return {point(), gt()}; }

  merkle::Digest digest() {
    merkle::Digest d;
    rng_.fill(d);
    return d;
  }

  Bytes bytes(std::size_t max_len) {
    Bytes out(size(max_len));
    rng_.fill(out);
    return out;
  }

  std::string identity() {
    static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789@.-";
    std::string out;
    const std::size_t len = size(20);
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      out.push_back(kAlphabet[rng_.next_u64() % (sizeof(kAlphabet) - 1)]);
    }
    return out;
  }

  SignedBlock signed_block() {
    SignedBlock sb;
    sb.block.index = u64();
    sb.block.payload = bytes(40);
    sb.sig.u = point();
    sb.sig.sigma_cs = gt();
    sb.sig.sigma_da = gt();
    return sb;
  }

  ComputationTask task() {
    ComputationTask t;
    const std::size_t n = size(6);
    for (std::size_t i = 0; i < n; ++i) {
      ComputeRequest req;
      req.kind = static_cast<FuncKind>(rng_.next_u64() % 6);
      const std::size_t ops = size(5);
      for (std::size_t j = 0; j < ops; ++j) req.positions.push_back(u64());
      t.requests.push_back(std::move(req));
    }
    return t;
  }

  Commitment commitment() {
    Commitment c;
    const std::size_t n = size(8);
    for (std::size_t i = 0; i < n; ++i) c.results.push_back(u64());
    c.root = digest();
    c.root_sig_da = dv_signature();
    c.root_sig_user = dv_signature();
    return c;
  }

  Warrant warrant() {
    Warrant w;
    w.delegator_id = identity();
    w.delegatee_id = identity();
    w.expiry_epoch = u64();
    w.authorization = dv_signature();
    return w;
  }

  AuditChallenge challenge() {
    AuditChallenge ch;
    const std::size_t n = size(10);
    for (std::size_t i = 0; i < n; ++i) ch.sample_indices.push_back(u64());
    ch.warrant = warrant();
    return ch;
  }

  AuditResponse response() {
    AuditResponse r;
    r.warrant_accepted = (rng_.next_u64() & 1) != 0;
    const std::size_t n = size(3);
    for (std::size_t i = 0; i < n; ++i) {
      AuditResponseItem item;
      item.request_index = u64();
      const std::size_t inputs = size(2);
      for (std::size_t j = 0; j < inputs; ++j) item.inputs.push_back(signed_block());
      item.result = u64();
      const std::size_t depth = size(5);
      for (std::size_t d = 0; d < depth; ++d) {
        item.path.push_back({digest(), (rng_.next_u64() & 1) != 0});
      }
      r.items.push_back(std::move(item));
    }
    return r;
  }

  std::vector<SignedBlock> block_list() {
    std::vector<SignedBlock> out;
    const std::size_t n = size(4);
    for (std::size_t i = 0; i < n; ++i) out.push_back(signed_block());
    return out;
  }

 private:
  const pairing::PairingGroup& g_;
  Xoshiro256 rng_;
};

// Runs the three properties for one (value, codec) pairing.
template <typename T, typename Encode, typename Decode>
void check_properties(const pairing::PairingGroup& g, const T& value, Encode&& encode,
                      Decode&& decode, bool mutate) {
  const Bytes wire = encode(g, value);
  const auto back = decode(g, wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, value);

  if (!mutate) return;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      Bytes mutated = wire;
      mutated[i] ^= mask;
      const std::size_t before = g_bytes_allocated.load();
      (void)decode(g, mutated);  // must not crash; result may be anything
      EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound)
          << "mutating byte " << i << " with mask " << int(mask)
          << " triggered a pathological allocation";
    }
  }
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::size_t before = g_bytes_allocated.load();
    EXPECT_FALSE(decode(g, Bytes(wire.begin(), wire.begin() + cut)).has_value());
    EXPECT_LT(g_bytes_allocated.load() - before, kAllocationBound);
  }
}

// The byte-level mutation sweep is quadratic-ish in the encoding size, so it
// runs on a few instances; the pure round trip runs on all of them.
template <typename MakeValue, typename Encode, typename Decode>
void run_suite(MakeValue&& make, Encode&& encode, Decode&& decode) {
  const std::size_t iters = property_iters(64);
  const std::size_t mutate_iters = std::min<std::size_t>(iters, 4);
  for (std::size_t i = 0; i < iters; ++i) {
    Gen gen{0x5EED0000 + i};
    const auto value = make(gen);
    check_properties(gen.group(), value, encode, decode, i < mutate_iters);
  }
}

TEST(CodecPropertyTest, SignedBlockRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.signed_block(); }, encode_signed_block,
            decode_signed_block);
}

TEST(CodecPropertyTest, TaskRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.task(); }, encode_task, decode_task);
}

TEST(CodecPropertyTest, CommitmentRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.commitment(); }, encode_commitment,
            decode_commitment);
}

TEST(CodecPropertyTest, WarrantRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.warrant(); }, encode_warrant, decode_warrant);
}

TEST(CodecPropertyTest, ChallengeRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.challenge(); }, encode_challenge, decode_challenge);
}

TEST(CodecPropertyTest, ResponseRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.response(); }, encode_response, decode_response);
}

TEST(CodecPropertyTest, BlockListRoundTripAndMutation) {
  run_suite([](Gen& gen) { return gen.block_list(); },
            [](const pairing::PairingGroup& g, const std::vector<SignedBlock>& blocks) {
              return encode_block_list(g, blocks);
            },
            decode_block_list);
}

// Session frames ride the same channel: the whole frame codec must satisfy
// the same totality property (here every mutation MUST fail — the checksum
// covers every byte).
TEST(CodecPropertyTest, FrameRoundTripAndMutation) {
  const std::size_t iters = property_iters(64);
  for (std::size_t i = 0; i < iters; ++i) {
    Gen gen{0xF4A3E000 + i};
    const auto type = static_cast<MessageType>(1 + gen.size(kMessageTypeCount - 1));
    const auto session_id = static_cast<std::uint32_t>(gen.u64());
    const auto seq = static_cast<std::uint32_t>(gen.u64());
    const Bytes payload = gen.bytes(64);
    const Bytes wire = encode_frame(type, session_id, seq, payload);
    const auto frame = decode_frame(wire);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->stream_id, session_id);
    EXPECT_EQ(frame->seq, seq);
    EXPECT_EQ(frame->payload, payload);
    if (i >= 2) continue;  // byte sweep on a couple of instances
    for (std::size_t b = 0; b < wire.size(); ++b) {
      Bytes mutated = wire;
      mutated[b] ^= 0xFF;
      EXPECT_FALSE(decode_frame(mutated).has_value());
    }
  }
}

// Every codec above bottoms out in BigUint::to_bytes/from_bytes; the zero
// and fixed-width corners must round-trip (zero once serialized as an empty
// buffer at the default width, indistinguishable from "absent" on the wire).
TEST(CodecPropertyTest, BigUintByteRoundTripCorners) {
  using num::BigUint;

  // Width-0 zero serializes as exactly one zero byte and round-trips.
  const BigUint zero;
  const auto zero_bytes = zero.to_bytes();
  ASSERT_EQ(zero_bytes.size(), 1u);
  EXPECT_EQ(zero_bytes[0], 0x00);
  EXPECT_EQ(BigUint::from_bytes(zero_bytes), zero);

  // from_bytes of an empty buffer is still zero (leading zeros allowed).
  EXPECT_EQ(BigUint::from_bytes({}), zero);

  // Fixed widths: zero and boundary values pad to exactly `width` bytes and
  // round-trip through from_bytes.
  for (const std::size_t width : {1u, 7u, 8u, 9u, 64u}) {
    const BigUint max = (BigUint{1} << (8 * width)) - BigUint{1};
    for (const BigUint& v : {zero, BigUint{1}, BigUint{0xFF}, max}) {
      const auto bytes = v.to_bytes(width);
      EXPECT_EQ(bytes.size(), width);
      EXPECT_EQ(BigUint::from_bytes(bytes), v);
    }
    // One past the width must be rejected, not truncated.
    EXPECT_THROW((max + BigUint{1}).to_bytes(width), std::length_error);
  }

  // Random values: minimal-width serialization never emits a leading zero
  // byte (except the canonical zero encoding) and always round-trips.
  Xoshiro256 rng{0xB17E5};
  const std::size_t iters = property_iters(64);
  for (std::size_t i = 0; i < iters; ++i) {
    const BigUint v = rng.next_bits(1 + (rng.next_u64() % 520));
    const auto bytes = v.to_bytes();
    ASSERT_FALSE(bytes.empty());
    if (!v.is_zero()) EXPECT_NE(bytes[0], 0x00);
    EXPECT_EQ(BigUint::from_bytes(bytes), v);
  }
}

}  // namespace
}  // namespace seccloud::core
