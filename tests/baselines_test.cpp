// Baseline-scheme tests: RSA-FDH, ECDSA/P-256, BGLS aggregate signatures,
// and the Wang-et-al.-style public auditing comparator.
#include <gtest/gtest.h>

#include "baselines/bgls.h"
#include "baselines/ecdsa.h"
#include "baselines/rsa.h"
#include "baselines/wang_auditing.h"
#include "hash/hash_to.h"

namespace seccloud::baselines {
namespace {

using hash::as_bytes;
using num::BigUint;
using num::Xoshiro256;
using pairing::tiny_group;

// --- RSA ----------------------------------------------------------------

class RsaTest : public ::testing::Test {
 protected:
  RsaTest() : rng(101), key(rsa_generate(512, rng)) {}
  Xoshiro256 rng;
  RsaKeyPair key;
};

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const auto msg = as_bytes(std::string_view{"pay bob 100"});
  const BigUint sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.n, key.e, msg, sig));
}

TEST_F(RsaTest, RejectsWrongMessage) {
  const BigUint sig = rsa_sign(key, as_bytes(std::string_view{"m1"}));
  EXPECT_FALSE(rsa_verify(key.n, key.e, as_bytes(std::string_view{"m2"}), sig));
}

TEST_F(RsaTest, RejectsTamperedSignature) {
  const auto msg = as_bytes(std::string_view{"m"});
  BigUint sig = rsa_sign(key, msg);
  sig += 1u;
  EXPECT_FALSE(rsa_verify(key.n, key.e, msg, sig));
  EXPECT_FALSE(rsa_verify(key.n, key.e, msg, key.n + BigUint{1}));  // out of range
}

TEST_F(RsaTest, KeyInvariants) {
  EXPECT_EQ(key.n.bit_length(), 512u);
  // e·d ≡ 1 (mod λ | φ): check via a random message exponentiation identity.
  const BigUint x{123456789};
  EXPECT_EQ(num::pow_mod(num::pow_mod(x, key.d, key.n), key.e, key.n), x % key.n);
}

TEST(Rsa, GenerateRejectsTinyModulus) {
  Xoshiro256 rng{1};
  EXPECT_THROW(rsa_generate(32, rng), std::invalid_argument);
}

// --- ECDSA ---------------------------------------------------------------

class EcdsaTest : public ::testing::Test {
 protected:
  EcdsaTest() : rng(202), key(ecdsa_generate(curve, rng)) {}
  ec::P256 curve;
  Xoshiro256 rng;
  EcdsaKeyPair key;
};

TEST_F(EcdsaTest, SignVerifyRoundTrip) {
  const auto msg = as_bytes(std::string_view{"transfer 42"});
  const EcdsaSignature sig = ecdsa_sign(curve, key, msg, rng);
  EXPECT_TRUE(ecdsa_verify(curve, key.q, msg, sig));
}

TEST_F(EcdsaTest, RejectsWrongMessageKeyOrTamper) {
  const auto msg = as_bytes(std::string_view{"m"});
  const EcdsaSignature sig = ecdsa_sign(curve, key, msg, rng);
  EXPECT_FALSE(ecdsa_verify(curve, key.q, as_bytes(std::string_view{"n"}), sig));

  const EcdsaKeyPair other = ecdsa_generate(curve, rng);
  EXPECT_FALSE(ecdsa_verify(curve, other.q, msg, sig));

  EcdsaSignature bad = sig;
  bad.s += 1u;
  if (bad.s >= curve.order()) bad.s -= curve.order();
  EXPECT_FALSE(ecdsa_verify(curve, key.q, msg, bad));
}

TEST_F(EcdsaTest, RejectsDegenerateComponents) {
  const auto msg = as_bytes(std::string_view{"m"});
  EXPECT_FALSE(ecdsa_verify(curve, key.q, msg, {BigUint{}, BigUint{1}}));
  EXPECT_FALSE(ecdsa_verify(curve, key.q, msg, {BigUint{1}, BigUint{}}));
  EXPECT_FALSE(ecdsa_verify(curve, key.q, msg, {curve.order(), BigUint{1}}));
}

TEST_F(EcdsaTest, SignaturesAreRandomized) {
  const auto msg = as_bytes(std::string_view{"m"});
  const EcdsaSignature s1 = ecdsa_sign(curve, key, msg, rng);
  const EcdsaSignature s2 = ecdsa_sign(curve, key, msg, rng);
  EXPECT_NE(s1.r, s2.r);
}

// --- BGLS ------------------------------------------------------------------

class BglsTest : public ::testing::Test {
 protected:
  BglsTest() : g(tiny_group()), rng(303) {}
  const pairing::PairingGroup& g;
  Xoshiro256 rng;
};

TEST_F(BglsTest, SignVerifyRoundTrip) {
  const BglsKeyPair key = bgls_generate(g, rng);
  const auto msg = as_bytes(std::string_view{"hello"});
  const auto sig = bgls_sign(g, key, msg);
  EXPECT_TRUE(bgls_verify(g, key.v, msg, sig));
  EXPECT_FALSE(bgls_verify(g, key.v, as_bytes(std::string_view{"bye"}), sig));
}

TEST_F(BglsTest, AggregateOfDistinctSignersVerifies) {
  std::vector<BglsKeyPair> keys;
  std::vector<std::string> messages;
  std::vector<pairing::Point> sigs;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(bgls_generate(g, rng));
    messages.push_back("msg-" + std::to_string(i));
    sigs.push_back(bgls_sign(g, keys.back(), as_bytes(messages.back())));
  }
  const auto aggregate = bgls_aggregate(g, sigs);
  std::vector<BglsItem> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back({keys[static_cast<std::size_t>(i)].v,
                     as_bytes(messages[static_cast<std::size_t>(i)])});
  }
  EXPECT_TRUE(bgls_aggregate_verify(g, items, aggregate));
}

TEST_F(BglsTest, AggregateEqualsTheAffineFold) {
  // The aggregate is one Jacobian fold; it must equal the signature-by-
  // signature affine sum on the doubling branch (a repeated signature), on
  // a signature plus its negation (which reaches O), on the empty list, and
  // count no op either way.
  const BglsKeyPair key = bgls_generate(g, rng);
  const pairing::Point s = bgls_sign(g, key, as_bytes(std::string_view{"s"}));
  const pairing::Point t = bgls_sign(g, key, as_bytes(std::string_view{"t"}));
  const auto affine_fold = [&](std::span<const pairing::Point> sigs) {
    pairing::Point acc = pairing::Point::at_infinity();
    for (const pairing::Point& sig : sigs) acc = g.add(acc, sig);
    return acc;
  };
  const std::vector<std::vector<pairing::Point>> cases = {
      {s, s}, {s, g.neg(s)}, {}, {s, t, s, g.neg(t)}, {t}};
  for (const std::vector<pairing::Point>& sigs : cases) {
    g.reset_counters();
    const pairing::Point aggregate = bgls_aggregate(g, sigs);
    EXPECT_EQ(g.counters(), pairing::OpCounters{}) << sigs.size() << " signatures";
    EXPECT_EQ(aggregate, affine_fold(sigs)) << sigs.size() << " signatures";
  }
  EXPECT_EQ(bgls_aggregate(g, cases[0]), g.curve().dbl(s));
  EXPECT_TRUE(bgls_aggregate(g, cases[1]).infinity);
  EXPECT_TRUE(bgls_aggregate(g, cases[2]).infinity);
}

TEST_F(BglsTest, AggregateRejectsForgedComponent) {
  std::vector<BglsKeyPair> keys;
  std::vector<std::string> messages;
  std::vector<pairing::Point> sigs;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(bgls_generate(g, rng));
    messages.push_back("w-" + std::to_string(i));
    sigs.push_back(bgls_sign(g, keys.back(), as_bytes(messages.back())));
  }
  sigs[2] = g.add(sigs[2], g.generator());  // tamper one component
  const auto aggregate = bgls_aggregate(g, sigs);
  std::vector<BglsItem> items;
  for (int i = 0; i < 4; ++i) {
    items.push_back({keys[static_cast<std::size_t>(i)].v,
                     as_bytes(messages[static_cast<std::size_t>(i)])});
  }
  EXPECT_FALSE(bgls_aggregate_verify(g, items, aggregate));
}

TEST_F(BglsTest, AggregateRejectsDuplicateMessages) {
  const BglsKeyPair k1 = bgls_generate(g, rng);
  const BglsKeyPair k2 = bgls_generate(g, rng);
  const auto msg = as_bytes(std::string_view{"same"});
  const auto aggregate =
      bgls_aggregate(g, std::vector{bgls_sign(g, k1, msg), bgls_sign(g, k2, msg)});
  const std::vector<BglsItem> items{{k1.v, msg}, {k2.v, msg}};
  EXPECT_FALSE(bgls_aggregate_verify(g, items, aggregate));
}

TEST_F(BglsTest, AggregateVerifyPairingCount) {
  // Table II: BGLS aggregate verification = n+1 Miller loops.
  std::vector<BglsKeyPair> keys;
  std::vector<std::string> messages;
  std::vector<pairing::Point> sigs;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(bgls_generate(g, rng));
    messages.push_back("c-" + std::to_string(i));
    sigs.push_back(bgls_sign(g, keys.back(), as_bytes(messages.back())));
  }
  const auto aggregate = bgls_aggregate(g, sigs);
  std::vector<BglsItem> items;
  for (std::size_t i = 0; i < n; ++i) items.push_back({keys[i].v, as_bytes(messages[i])});
  g.reset_counters();
  EXPECT_TRUE(bgls_aggregate_verify(g, items, aggregate));
  EXPECT_EQ(g.counters().miller_loops, n + 1);
}

// --- Wang et al. auditing ----------------------------------------------------

class WangTest : public ::testing::Test {
 protected:
  WangTest() : g(tiny_group()), scheme(g), rng(404) {
    key = scheme.keygen("file-1", rng);
    for (std::uint64_t i = 0; i < 32; ++i) {
      blocks.push_back(BigUint{1000 + i * 17});
      tags.push_back(scheme.tag_block(key, i, blocks.back()));
    }
  }
  const pairing::PairingGroup& g;
  WangScheme scheme;
  Xoshiro256 rng;
  WangUserKey key;
  std::vector<BigUint> blocks;
  std::vector<pairing::Point> tags;
};

TEST_F(WangTest, HonestProofVerifies) {
  const auto challenge = scheme.make_challenge(32, 10, rng);
  const auto proof = scheme.prove(challenge, blocks, tags);
  EXPECT_TRUE(scheme.verify(scheme.public_info(key), challenge, proof));
}

TEST_F(WangTest, ModifiedBlockFailsProof) {
  const auto challenge = scheme.make_challenge(32, 32, rng);  // hit everything
  auto corrupt = blocks;
  corrupt[5] += 1u;
  const auto proof = scheme.prove(challenge, corrupt, tags);
  EXPECT_FALSE(scheme.verify(scheme.public_info(key), challenge, proof));
}

TEST_F(WangTest, WrongTagFailsProof) {
  const auto challenge = scheme.make_challenge(32, 32, rng);
  auto bad_tags = tags;
  bad_tags[7] = g.add(bad_tags[7], g.generator());
  const auto proof = scheme.prove(challenge, blocks, bad_tags);
  EXPECT_FALSE(scheme.verify(scheme.public_info(key), challenge, proof));
}

TEST_F(WangTest, VerificationCostsTwoPairingsPerUser) {
  const auto challenge = scheme.make_challenge(32, 10, rng);
  const auto proof = scheme.prove(challenge, blocks, tags);
  g.reset_counters();
  EXPECT_TRUE(scheme.verify(scheme.public_info(key), challenge, proof));
  EXPECT_EQ(g.counters().pairings, 2u);
}

TEST_F(WangTest, ChallengeOutOfRangeThrows) {
  std::vector<WangChallengeItem> challenge{{100, BigUint{1}}};
  EXPECT_THROW(scheme.prove(challenge, blocks, tags), std::out_of_range);
}

}  // namespace
}  // namespace seccloud::baselines
