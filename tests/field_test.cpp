// Prime-field and quadratic-extension tests: field axioms as property
// sweeps, Barrett-reduction edge cases, square roots.
#include <gtest/gtest.h>

#include "field/fp.h"
#include "field/fp2.h"
#include "pairing/params.h"

namespace seccloud::field {
namespace {

using num::BigUint;
using num::Xoshiro256;

class FpProperty : public ::testing::TestWithParam<const char*> {
 protected:
  FpProperty() : fp(BigUint::from_hex(GetParam())), rng(99) {}
  PrimeField fp;
  Xoshiro256 rng;
};

TEST_P(FpProperty, AdditionGroupLaws) {
  for (int i = 0; i < 30; ++i) {
    const BigUint a = fp.random(rng);
    const BigUint b = fp.random(rng);
    const BigUint c = fp.random(rng);
    EXPECT_EQ(fp.add(a, b), fp.add(b, a));
    EXPECT_EQ(fp.add(fp.add(a, b), c), fp.add(a, fp.add(b, c)));
    EXPECT_EQ(fp.add(a, fp.neg(a)), BigUint{});
  }
}

TEST_P(FpProperty, MultiplicationLaws) {
  for (int i = 0; i < 30; ++i) {
    const BigUint a = fp.random(rng);
    const BigUint b = fp.random(rng);
    const BigUint c = fp.random(rng);
    EXPECT_EQ(fp.mul(a, b), fp.mul(b, a));
    EXPECT_EQ(fp.mul(fp.mul(a, b), c), fp.mul(a, fp.mul(b, c)));
    EXPECT_EQ(fp.mul(a, fp.add(b, c)), fp.add(fp.mul(a, b), fp.mul(a, c)));
    EXPECT_EQ(fp.sqr(a), fp.mul(a, a));
  }
}

TEST_P(FpProperty, BarrettMatchesNaiveReduction) {
  for (int i = 0; i < 100; ++i) {
    const BigUint a = fp.random(rng);
    const BigUint b = fp.random(rng);
    EXPECT_EQ(fp.mul(a, b), (a * b) % fp.modulus());
  }
}

TEST_P(FpProperty, BarrettEdgeCases) {
  const BigUint p = fp.modulus();
  const BigUint p_1 = p - BigUint{1};
  EXPECT_EQ(fp.mul(p_1, p_1), (p_1 * p_1) % p);  // largest product
  EXPECT_EQ(fp.mul(BigUint{}, p_1), BigUint{});
  EXPECT_EQ(fp.mul(BigUint{1}, p_1), p_1);
  EXPECT_EQ(fp.reduce(p), BigUint{});
  EXPECT_EQ(fp.reduce(p + BigUint{1}), BigUint{1});
  // reduce() beyond p^2 falls back to full division.
  EXPECT_EQ(fp.reduce(p * p * p + BigUint{5}), BigUint{5});
}

TEST_P(FpProperty, InverseRoundTrip) {
  for (int i = 0; i < 30; ++i) {
    BigUint a = fp.random(rng);
    if (a.is_zero()) a += 1u;
    const auto inv = fp.inv(a);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(fp.mul(a, *inv), BigUint{1});
  }
  EXPECT_FALSE(fp.inv(BigUint{}).has_value());
}

TEST_P(FpProperty, PowMatchesRepeatedMul) {
  const BigUint a = fp.random(rng);
  BigUint acc{1};
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(fp.pow(a, BigUint{e}), acc);
    acc = fp.mul(acc, a);
  }
}

TEST_P(FpProperty, SqrtOfSquares) {
  for (int i = 0; i < 30; ++i) {
    const BigUint a = fp.random(rng);
    const BigUint square = fp.sqr(a);
    const auto root = fp.sqrt(square);
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == fp.neg(a));
  }
}

TEST_P(FpProperty, SqrtRejectsNonResidues) {
  // Exactly half the nonzero elements are QRs; count over a sample.
  int residues = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    BigUint a = fp.random(rng);
    if (a.is_zero()) continue;
    if (fp.sqrt(a).has_value()) ++residues;
  }
  EXPECT_GT(residues, trials / 4);
  EXPECT_LT(residues, 3 * trials / 4);
}


TEST_P(FpProperty, BatchInversionMatchesSingle) {
  // Montgomery's trick on the limb kernel against the single BigUint inverse.
  const fixed::MontCtx& m = fp.mont();
  std::vector<BigUint> values;
  std::vector<fixed::Fe> resident;
  for (int i = 0; i < 17; ++i) {
    BigUint v = fp.random(rng);
    if (v.is_zero()) v += 1u;
    resident.push_back(fp.to_mont(v));
    values.push_back(std::move(v));
  }
  const auto batch = m.inv_batch_mont(resident);
  ASSERT_EQ(batch.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(fp.from_mont(batch[i]), *fp.inv(values[i]));
  }
}

TEST_P(FpProperty, BatchInversionEdges) {
  const fixed::MontCtx& m = fp.mont();
  EXPECT_TRUE(m.inv_batch_mont({}).empty());
  const std::vector<fixed::Fe> one{m.one_mont()};
  EXPECT_EQ(m.inv_batch_mont(one).at(0), m.one_mont());
  const std::vector<fixed::Fe> with_zero{m.one_mont(), fixed::Fe{}};
  EXPECT_THROW(m.inv_batch_mont(with_zero), std::domain_error);
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, FpProperty,
    ::testing::Values(
        "7",
        "fffffffb",                          // 32-bit prime ≡ 3 (mod 4)
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",  // P-256
        "b7310e862efdfa3df84ca43f1e167c67802b80efc019a0f6ee55a30059ccffb4"
        "4e02bfe78b9182024ef8b78563010f4d6eaa581df379f1e9fcd912a61fa26b6f",   // SS512
        // p ≡ 1 (mod 4): sqrt runs Tonelli–Shanks instead of the
        // a^((p+1)/4) shortcut.
        "d",                                 // 13
        "ffffffffffffffc5",                  // 2^64 − 59
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"));  // 2^255 − 19

TEST(PrimeField, RejectsBadModulus) {
  EXPECT_THROW(PrimeField{BigUint{1}}, std::invalid_argument);
  EXPECT_THROW(PrimeField{BigUint{8}}, std::invalid_argument);
}

TEST(PrimeFieldSqrt, TonelliShanksKnownRoots) {
  // p = 13 ≡ 1 (mod 4): QRs are {1, 3, 4, 9, 10, 12}.
  const PrimeField f13{BigUint{13}};
  EXPECT_EQ(f13.sqrt(BigUint{}), BigUint{});  // sqrt(0) = 0
  for (const std::uint64_t qr : {1ull, 3ull, 4ull, 9ull, 10ull, 12ull}) {
    const auto root = f13.sqrt(BigUint{qr});
    ASSERT_TRUE(root.has_value()) << qr;
    EXPECT_EQ(f13.sqr(*root), BigUint{qr});
  }
  for (const std::uint64_t nqr : {2ull, 5ull, 6ull, 7ull, 8ull, 11ull}) {
    EXPECT_FALSE(f13.sqrt(BigUint{nqr}).has_value()) << nqr;
  }

  // Large p ≡ 1 (mod 4) with a deep 2-adic tower: 2^64 − 59 has
  // p − 1 = q·2^s with s > 1, exercising the order-reduction loop.
  const PrimeField f64{BigUint::from_hex("ffffffffffffffc5")};
  num::Xoshiro256 rng{11};
  int residues = 0;
  for (int i = 0; i < 40; ++i) {
    const BigUint a = f64.random(rng);
    const BigUint sq = f64.sqr(a);
    const auto root = f64.sqrt(sq);
    ASSERT_TRUE(root.has_value());
    EXPECT_EQ(f64.sqr(*root), sq);
    if (f64.sqrt(a).has_value()) ++residues;
  }
  EXPECT_GT(residues, 5);   // non-residues → nullopt, not a wrong root
  EXPECT_LT(residues, 35);
}

TEST(PrimeFieldSqrt, CompositeModulusWithoutNonResidueThrows) {
  // 9 ≡ 1 (mod 4) but (Z/9)* has no element of order 2 under Euler's
  // criterion (z^4 mod 9 never equals 8), so construction finds no
  // non-residue and sqrt must report that instead of looping forever.
  const PrimeField f9{BigUint{9}};
  EXPECT_THROW(f9.sqrt(BigUint{7}), std::logic_error);
}

class Fp2Test : public ::testing::Test {
 protected:
  Fp2Test() : fp(pairing::tiny_params().p), f2(fp), rng(7) {}
  PrimeField fp;
  Fp2Field f2;
  Xoshiro256 rng;
};

TEST_F(Fp2Test, FieldLaws) {
  for (int i = 0; i < 30; ++i) {
    const Fp2 a = f2.random(rng);
    const Fp2 b = f2.random(rng);
    const Fp2 c = f2.random(rng);
    EXPECT_EQ(f2.mul(a, b), f2.mul(b, a));
    EXPECT_EQ(f2.mul(f2.mul(a, b), c), f2.mul(a, f2.mul(b, c)));
    EXPECT_EQ(f2.mul(a, f2.add(b, c)), f2.add(f2.mul(a, b), f2.mul(a, c)));
    EXPECT_EQ(f2.sqr(a), f2.mul(a, a));
    EXPECT_EQ(f2.add(a, f2.neg(a)), f2.zero());
  }
}

TEST_F(Fp2Test, ImaginaryUnitSquaresToMinusOne) {
  const Fp2 i = f2.element(num::BigUint{}, num::BigUint{1});
  const Fp2 minus_one = f2.element(fp.neg(num::BigUint{1}), num::BigUint{});
  EXPECT_EQ(f2.sqr(i), minus_one);
}

TEST_F(Fp2Test, InverseRoundTrip) {
  for (int i = 0; i < 30; ++i) {
    Fp2 a = f2.random(rng);
    if (f2.is_zero(a)) a = f2.one();
    const auto inv = f2.inv(a);
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE(f2.is_one(f2.mul(a, *inv)));
  }
  EXPECT_FALSE(f2.inv(f2.zero()).has_value());
}

TEST_F(Fp2Test, ConjugateIsFrobenius) {
  // x^p == conj(x) in F_{p^2}.
  for (int i = 0; i < 5; ++i) {
    const Fp2 a = f2.random(rng);
    EXPECT_EQ(f2.pow(a, fp.modulus()), f2.conj(a));
  }
}

TEST_F(Fp2Test, PowAddsExponents) {
  const Fp2 a = f2.random(rng);
  const num::BigUint e1{123};
  const num::BigUint e2{456};
  EXPECT_EQ(f2.mul(f2.pow(a, e1), f2.pow(a, e2)), f2.pow(a, e1 + e2));
}

TEST_F(Fp2Test, RequiresThreeModFour) {
  PrimeField bad{num::BigUint{5}};  // 5 ≡ 1 (mod 4)
  EXPECT_THROW(Fp2Field{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace seccloud::field
