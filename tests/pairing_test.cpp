// Pairing-engine tests: parameter sanity, G1 group structure, hash-to-G1,
// and the algebraic laws of the modified Tate pairing (bilinearity,
// non-degeneracy, symmetry).
#include <gtest/gtest.h>

#include "bigint/primality.h"
#include "pairing/group.h"

namespace seccloud::pairing {
namespace {

using num::BigUint;
using num::Xoshiro256;

class PairingTest : public ::testing::Test {
 protected:
  const PairingGroup& g = tiny_group();
  Xoshiro256 rng{7};
};

TEST(PairingParams, PinnedDefaultSetValidates) {
  Xoshiro256 rng{1};
  EXPECT_TRUE(default_params().validate(rng));
}

TEST(PairingParams, PinnedTinySetValidates) {
  Xoshiro256 rng{2};
  EXPECT_TRUE(tiny_params().validate(rng));
}

TEST(PairingParams, GenerateProducesValidSet) {
  Xoshiro256 rng{99};
  const TypeAParams params = generate_type_a_params(96, 40, rng);
  Xoshiro256 check_rng{100};
  EXPECT_TRUE(params.validate(check_rng));
  EXPECT_EQ(params.p.bit_length(), 96u);
  EXPECT_EQ(params.q.bit_length(), 40u);
}

TEST_F(PairingTest, GeneratorHasOrderQ) {
  EXPECT_FALSE(g.generator().infinity);
  EXPECT_TRUE(g.curve().is_on_curve(g.generator()));
  EXPECT_TRUE(g.mul(g.order(), g.generator()).infinity);
  // Order is exactly q (q prime, generator not identity).
  EXPECT_FALSE(g.mul(BigUint{1}, g.generator()).infinity);
}

TEST_F(PairingTest, HashToG1LandsInSubgroup) {
  for (int i = 0; i < 10; ++i) {
    const Point pt = g.hash_to_g1("test", std::string{"id-"} + std::to_string(i));
    EXPECT_TRUE(g.in_g1(pt));
    EXPECT_FALSE(pt.infinity);
  }
}

TEST_F(PairingTest, HashToG1Deterministic) {
  const Point a = g.hash_to_g1("test", std::string_view{"alice"});
  const Point b = g.hash_to_g1("test", std::string_view{"alice"});
  const Point c = g.hash_to_g1("test", std::string_view{"bob"});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(PairingTest, PairingNonDegenerate) {
  const Gt e = g.pair(g.generator(), g.generator());
  EXPECT_FALSE(g.gt_is_one(e));
  // ê(P,P) has order q: ê(P,P)^q = 1.
  EXPECT_TRUE(g.gt_is_one(g.gt_pow(e, g.order())));
}

TEST_F(PairingTest, PairingBilinearInFirstArgument) {
  const Point p = g.generator();
  for (int i = 0; i < 5; ++i) {
    const BigUint a = g.random_scalar(rng);
    const Gt lhs = g.pair(g.mul(a, p), p);
    const Gt rhs = g.gt_pow(g.pair(p, p), a);
    EXPECT_EQ(lhs, rhs) << "a=" << a.to_hex();
  }
}

TEST_F(PairingTest, PairingBilinearInSecondArgument) {
  const Point p = g.generator();
  for (int i = 0; i < 5; ++i) {
    const BigUint b = g.random_scalar(rng);
    const Gt lhs = g.pair(p, g.mul(b, p));
    const Gt rhs = g.gt_pow(g.pair(p, p), b);
    EXPECT_EQ(lhs, rhs) << "b=" << b.to_hex();
  }
}

TEST_F(PairingTest, PairingFullBilinearity) {
  const Point p = g.generator();
  const Gt base = g.pair(p, p);
  for (int i = 0; i < 5; ++i) {
    const BigUint a = g.random_scalar(rng);
    const BigUint b = g.random_scalar(rng);
    const BigUint ab = (a * b) % g.order();
    EXPECT_EQ(g.pair(g.mul(a, p), g.mul(b, p)), g.gt_pow(base, ab));
  }
}

TEST_F(PairingTest, PairingSymmetricOnG1) {
  const Point p = g.generator();
  const Point q = g.hash_to_g1("test", std::string_view{"other"});
  EXPECT_EQ(g.pair(p, q), g.pair(q, p));
}

TEST_F(PairingTest, PairingAdditiveInFirstArgument) {
  const Point p = g.generator();
  const Point q = g.hash_to_g1("test", std::string_view{"other"});
  const Point r = g.hash_to_g1("test", std::string_view{"third"});
  EXPECT_EQ(g.pair(g.add(p, q), r), g.gt_mul(g.pair(p, r), g.pair(q, r)));
}

TEST_F(PairingTest, IdentityPairsToOne) {
  EXPECT_TRUE(g.gt_is_one(g.pair(Point::at_infinity(), g.generator())));
  EXPECT_TRUE(g.gt_is_one(g.pair(g.generator(), Point::at_infinity())));
}

TEST_F(PairingTest, PairProductMatchesIndividualProduct) {
  const Point p = g.generator();
  std::vector<std::pair<Point, Point>> pairs;
  Gt expected = g.gt_one();
  for (int i = 0; i < 4; ++i) {
    const Point a = g.mul(g.random_scalar(rng), p);
    const Point b = g.mul(g.random_scalar(rng), p);
    expected = g.gt_mul(expected, g.pair(a, b));
    pairs.emplace_back(a, b);
  }
  EXPECT_EQ(g.pair_product(pairs), expected);
}

TEST_F(PairingTest, GtInverseIsConjugate) {
  const Gt e = g.pair(g.generator(), g.generator());
  EXPECT_TRUE(g.gt_is_one(g.gt_mul(e, g.gt_inv(e))));
}

TEST_F(PairingTest, DefaultGroupPairingBilinear) {
  // One bilinearity check on the production-size (512-bit) group.
  const PairingGroup& big = default_group();
  Xoshiro256 big_rng{11};
  const BigUint a = big.random_scalar(big_rng);
  const BigUint b = big.random_scalar(big_rng);
  const BigUint ab = (a * b) % big.order();
  const Point p = big.generator();
  EXPECT_EQ(big.pair(big.mul(a, p), big.mul(b, p)),
            big.gt_pow(big.pair(p, p), ab));
}


// --- GT multi-exponentiation -------------------------------------------------

/// gt_multi_pow over unitary bases — two pairing values, the identity and a
/// repeat of the first — equals the product of plain gt_pow results for zero
/// exponents, 1, q − 1, q, 161-bit sums of two q-sized values and random
/// mixes, and counts one gt_msm_term per nonzero exponent.
void expect_multi_pow_matches_product(const PairingGroup& group, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  const Point p = group.generator();
  const Gt v = group.pair(p, group.mul(group.random_scalar(rng), p));
  const Gt w = group.pair(group.mul(group.random_scalar(rng), p), p);
  const std::vector<Gt> bases{v, w, group.gt_one(), v};
  const GtPowTable table{group, bases};
  ASSERT_EQ(table.size(), bases.size());

  const BigUint q = group.order();
  const BigUint zero;
  const BigUint one{1};
  const BigUint wide = (q - one) + (q - BigUint{2});  // two h-sized terms summed
  ASSERT_EQ(wide.bit_length(), q.bit_length() + 1);
  std::vector<std::vector<BigUint>> cases = {
      {zero, zero, zero, zero},
      {one, zero, zero, zero},
      {one, one, one, one},
      {q - one, q, zero, one},
      {q, q - one, q, q - one},
      {wide, wide, wide, zero},
      {zero, wide, one, q - one},
  };
  for (int draw = 0; draw < 3; ++draw) {
    std::vector<BigUint> mix;
    for (std::size_t j = 0; j < bases.size(); ++j) {
      mix.push_back(group.random_scalar(rng) + group.random_scalar(rng));
    }
    cases.push_back(std::move(mix));
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<BigUint>& exps = cases[c];
    Gt expected = group.gt_one();
    std::uint64_t nonzero = 0;
    for (std::size_t j = 0; j < bases.size(); ++j) {
      expected = group.gt_mul(expected, group.gt_pow(bases[j], exps[j]));
      if (!exps[j].is_zero()) ++nonzero;
    }
    const OpCounters before = group.counters();
    EXPECT_EQ(group.gt_multi_pow(table, exps), expected) << "case " << c;
    EXPECT_EQ(group.counters() - before, OpCounters{.gt_msm_terms = nonzero}) << "case " << c;
  }
  // One base, alone: the attestation check's shape.
  const GtPowTable single{group, {&w, 1}};
  EXPECT_EQ(group.gt_multi_pow(single, {&wide, 1}), group.gt_pow(w, wide));
  EXPECT_THROW(group.gt_multi_pow(single, cases.front()), std::invalid_argument);
  EXPECT_TRUE(group.gt_is_one(group.gt_multi_pow(GtPowTable{group, {}}, {})));
}

TEST(GtMultiPowTest, MatchesProductOfPowersOnTinyGroup) {
  expect_multi_pow_matches_product(tiny_group(), 21);
}

TEST(GtMultiPowTest, MatchesProductOfPowersOnDefaultGroup) {
  expect_multi_pow_matches_product(default_group(), 22);
}

// --- GT comb (fixed-base exponentiation) --------------------------------------

/// gt_pow over a comb equals plain gt_pow at e = 0, 1, the chunk boundaries
/// 2^c − 1, 2^c, 2^c + 1 and 2^(2c) − 1, q − 1, q, the widest exponent the
/// comb spans and random e, for a pairing value and the identity, and counts
/// one gt_exp like gt_pow.
void expect_comb_matches_gt_pow(const PairingGroup& group, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  const Point p = group.generator();
  constexpr std::size_t kC = GtComb::kChunkBits;
  const BigUint one{1};
  const BigUint q = group.order();
  for (const Gt& base : {group.pair(p, group.mul(group.random_scalar(rng), p)), group.gt_one()}) {
    const GtComb comb{group, base};
    ASSERT_GE(comb.span_bits(), q.bit_length());
    ASSERT_LT(comb.span_bits(), q.bit_length() + kC);
    EXPECT_EQ(comb.bytes(), comb.span_bits() / kC * GtPowTable::kEntries * sizeof(Gt));
    const BigUint widest = (one << comb.span_bits()) - one;
    std::vector<BigUint> exps{BigUint{},          one,         (one << kC) - one,
                              one << kC,          (one << kC) + one,
                              q - one,            q,           widest};
    if (comb.span_bits() > 2 * kC) exps.push_back((one << (2 * kC)) - one);
    for (int draw = 0; draw < 6; ++draw) exps.push_back(rng.next_below(q));
    for (const BigUint& e : exps) {
      const Gt expected = group.gt_pow(base, e);
      const OpCounters before = group.counters();
      EXPECT_EQ(group.gt_pow(comb, e), expected) << "e=" << e.to_hex();
      EXPECT_EQ(group.counters() - before, OpCounters{.gt_exps = 1}) << "e=" << e.to_hex();
    }
    EXPECT_THROW(group.gt_pow(comb, widest + one), std::invalid_argument);
  }
}

TEST(GtCombTest, MatchesGtPowOnTinyGroup) { expect_comb_matches_gt_pow(tiny_group(), 23); }

TEST(GtCombTest, MatchesGtPowOnDefaultGroup) { expect_comb_matches_gt_pow(default_group(), 24); }

TEST(GtCombTest, RejectsACombFromAnotherGroup) {
  const GtComb foreign{default_group(), default_group().gt_one()};
  EXPECT_THROW(tiny_group().gt_pow(foreign, BigUint{1}), std::invalid_argument);
}

TEST(GtSerializeTest, RoundTripsAndRejectsMalformedBytes) {
  const PairingGroup& g = tiny_group();
  const Gt e = g.pair(g.generator(), g.generator());
  const std::vector<std::uint8_t> bytes = g.gt_serialize(e);
  ASSERT_EQ(g.gt_deserialize(bytes), e);
  EXPECT_FALSE(g.gt_deserialize(std::span{bytes}.first(bytes.size() - 1)).has_value());
  std::vector<std::uint8_t> too_big(bytes.size(), 0xff);  // both coordinates ≥ p
  EXPECT_FALSE(g.gt_deserialize(too_big).has_value());
}

// --- property sweep over freshly generated parameter sizes -----------------

class GeneratedParams : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(GeneratedParams, PairingLawsHoldOnFreshCurves) {
  const auto [p_bits, q_bits] = GetParam();
  Xoshiro256 rng{p_bits * 31 + q_bits};
  const TypeAParams params = generate_type_a_params(p_bits, q_bits, rng);
  const PairingGroup group{params};

  const Point p = group.generator();
  ASSERT_TRUE(group.in_g1(p));
  const Gt base = group.pair(p, p);
  EXPECT_FALSE(group.gt_is_one(base));
  EXPECT_TRUE(group.gt_is_one(group.gt_pow(base, group.order())));

  const num::BigUint a = group.random_scalar(rng);
  const num::BigUint b = group.random_scalar(rng);
  const num::BigUint ab = (a * b) % group.order();
  EXPECT_EQ(group.pair(group.mul(a, p), group.mul(b, p)), group.gt_pow(base, ab));

  const Point q = group.hash_to_g1("fresh", std::string_view{"x"});
  EXPECT_EQ(group.pair(p, q), group.pair(q, p));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratedParams,
                         ::testing::Values(std::make_pair(96u, 40u),
                                           std::make_pair(128u, 48u),
                                           std::make_pair(160u, 64u)));

}  // namespace
}  // namespace seccloud::pairing
