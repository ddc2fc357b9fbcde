// Differential harness for the fixed-limb Montgomery core (ctest label
// `differential`).
//
// Every fixed-core operation is checked against the textbook oracle
// (tests/textbook_oracle.h: plain BigUint with `%`, affine formulas) on
// random and adversarial inputs: 0, 1, p−1, p−2, the Montgomery constants
// R mod p and R² mod p (the values that straddle the R/p boundary), and full
// Montgomery-domain round-trips. The layers above get the same treatment:
// PrimeField ops and curve points must match the oracle bit for bit, and
// pairings must match it in GT, including on the degenerate points
// (2-torsion, order-3 points that force the T = P addition step, negated Q,
// infinity) that the random suites essentially never hit. Raw Miller values
// are compared only between PairingGroup::miller and FixedPairing, which walk
// the same schedule.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ec/curve.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "field/fp_fixed.h"
#include "pairing/group.h"
#include "pairing/precompute.h"
#include "property_support.h"
#include "textbook_oracle.h"

namespace seccloud {
namespace {

using field::PrimeField;
using field::fixed::Fe;
using field::fixed::MontCtx;
using num::BigUint;
using num::Xoshiro256;
using pairing::PairingGroup;
using pairing::Point;
using testsupport::property_iters;

// ---------------------------------------------------------------------------
// MontCtx vs the textbook oracle
// ---------------------------------------------------------------------------

class MontCtxDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  MontCtxDifferential() : p(BigUint::from_hex(GetParam())), ctx(p), rng(2024) {}

  /// Adversarial residues plus seeded random ones.
  std::vector<BigUint> interesting_values() {
    std::vector<BigUint> vals{
        BigUint{},                                 // 0
        BigUint{1},                                // 1
        BigUint{2},                                //
        p - BigUint{1},                            // p − 1
        p - BigUint{2},                            // p − 2
        (p + BigUint{1}) >> 1,                     // (p+1)/2
        (BigUint{1} << (64 * p.limb_count())) % p, // R mod p
        (BigUint{1} << (128 * p.limb_count())) % p // R² mod p
    };
    const std::size_t iters = property_iters(24);
    for (std::size_t i = 0; i < iters; ++i) vals.push_back(rng.next_below(p));
    return vals;
  }

  BigUint p;
  MontCtx ctx;
  Xoshiro256 rng;
};

TEST_P(MontCtxDifferential, RoundTripsAndDomainConversions) {
  for (const BigUint& a : interesting_values()) {
    const Fe fe = ctx.from_biguint(a);
    EXPECT_EQ(ctx.to_biguint(fe), a);
    // to_mont/from_mont must be mutually inverse on every residue.
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.to_mont(fe))), a);
    // And the Montgomery representative must equal a·R mod p.
    const BigUint r = (BigUint{1} << (64 * p.limb_count())) % p;
    EXPECT_EQ(ctx.to_biguint(ctx.to_mont(fe)), (a * r) % p);
  }
}

TEST_P(MontCtxDifferential, AddSubNegMatchReference) {
  const auto vals = interesting_values();
  for (const BigUint& a : vals) {
    const Fe fa = ctx.load(a);
    EXPECT_EQ(ctx.to_biguint(ctx.neg(fa)), a.is_zero() ? BigUint{} : p - a);
    for (const BigUint& b : vals) {
      const Fe fb = ctx.load(b);
      EXPECT_EQ(ctx.to_biguint(ctx.add(fa, fb)), (a + b) % p);
      const BigUint expect_sub = a >= b ? a - b : a + p - b;
      EXPECT_EQ(ctx.to_biguint(ctx.sub(fa, fb)), expect_sub);
    }
  }
}

TEST_P(MontCtxDifferential, MulAndSqrMatchReference) {
  const auto vals = interesting_values();
  for (const BigUint& a : vals) {
    const Fe fa = ctx.load(a);
    EXPECT_EQ(ctx.to_biguint(ctx.sqr_canonical(fa)), a.squared() % p);
    // Montgomery-domain closure: mont_mul(ã, b̃) = (a·b)~.
    const Fe ma = ctx.to_mont(fa);
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_sqr(ma))), a.squared() % p);
    for (const BigUint& b : vals) {
      const Fe fb = ctx.load(b);
      EXPECT_EQ(ctx.to_biguint(ctx.mul_canonical(fa, fb)), (a * b) % p);
      const Fe mb = ctx.to_mont(fb);
      EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_mul(ma, mb))), (a * b) % p);
    }
  }
}

TEST_P(MontCtxDifferential, MulWordMatchesReference) {
  const std::uint64_t words[] = {0, 1, 2, 3, 4, 8, 0xFFFFFFFFFFFFFFFFull};
  for (const BigUint& a : interesting_values()) {
    const Fe fa = ctx.load(a);
    for (const std::uint64_t k : words) {
      BigUint expect = a;
      expect *= k;
      EXPECT_EQ(ctx.to_biguint(ctx.mul_word(fa, k)), expect % p);
    }
  }
}

TEST_P(MontCtxDifferential, PowMatchesReference) {
  const oracle::Fp reference{p};
  const std::vector<BigUint> exponents{BigUint{},          BigUint{1},
                                       BigUint{2},         BigUint{16},
                                       p - BigUint{1},     p - BigUint{2},
                                       rng.next_below(p)};
  for (const BigUint& a : interesting_values()) {
    const Fe ma = ctx.to_mont(ctx.load(a));
    for (const BigUint& e : exponents) {
      EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.pow_mont(ma, e))),
                reference.pow(a, e));
    }
  }
}

TEST_P(MontCtxDifferential, InverseMatchesReferenceAndVerifies) {
  const oracle::Fp reference{p};
  EXPECT_FALSE(ctx.inv_mont(Fe{}).has_value());
  for (const BigUint& a : interesting_values()) {
    if (a.is_zero()) continue;
    const Fe ma = ctx.to_mont(ctx.load(a));
    const auto iv = ctx.inv_mont(ma);
    ASSERT_TRUE(iv.has_value()) << a.to_hex();
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(*iv)), *reference.inv(a));
    // a·a⁻¹ = 1 in-domain.
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(ctx.mont_mul(ma, *iv))), BigUint{1});
  }
}

TEST_P(MontCtxDifferential, BatchInversionMatchesSingles) {
  std::vector<Fe> xs;
  std::vector<BigUint> raw;
  for (const BigUint& a : interesting_values()) {
    if (a.is_zero()) continue;
    raw.push_back(a);
    xs.push_back(ctx.to_mont(ctx.load(a)));
  }
  const std::vector<Fe> inv = ctx.inv_batch_mont(xs);
  ASSERT_EQ(inv.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(ctx.to_biguint(ctx.from_mont(inv[i])),
              ctx.to_biguint(ctx.from_mont(*ctx.inv_mont(xs[i]))));
  }
  EXPECT_THROW(ctx.inv_batch_mont(std::vector<Fe>{Fe{}}), std::domain_error);
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, MontCtxDifferential,
    ::testing::Values(
        // The pinned 512-bit SS512 prime (8 limbs — the production width).
        "b7310e862efdfa3df84ca43f1e167c67802b80efc019a0f6ee55a30059ccffb44e02bfe"
        "78b9182024ef8b78563010f4d6eaa581df379f1e9fcd912a61fa26b6f",
        // The tiny 96-bit test prime (2 limbs).
        "a1d1466b6a6152952b0112f3",
        // One-limb primes: 2^64 − 59 and a small one (Tonelli–Shanks class).
        "ffffffffffffffc5", "d"));

// MontCtx must refuse what it cannot represent, and so must PrimeField, which
// has no other arithmetic to fall back on.
TEST(MontCtxGuards, RejectsUnsupportedModuli) {
  EXPECT_FALSE(MontCtx::fits(BigUint{4}));          // even
  EXPECT_FALSE(MontCtx::fits(BigUint{1}));          // < 3
  EXPECT_FALSE(MontCtx::fits(BigUint{1} << 520));   // > 8 limbs (and even)
  const BigUint wide = (BigUint{1} << 520) + BigUint{21};
  EXPECT_FALSE(MontCtx::fits(wide));                // > 8 limbs, odd
  EXPECT_THROW(MontCtx{wide}, std::invalid_argument);
  EXPECT_THROW(PrimeField{wide}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PrimeField vs the oracle, including inputs ≥ p (reduced on import)
// ---------------------------------------------------------------------------

class PrimeFieldOracleDifferential : public ::testing::TestWithParam<const char*> {
 protected:
  PrimeFieldOracleDifferential()
      : p(BigUint::from_hex(GetParam())), field(p), reference{p}, rng(77) {}

  BigUint p;
  PrimeField field;
  oracle::Fp reference;
  Xoshiro256 rng;
};

TEST_P(PrimeFieldOracleDifferential, AllOperationsBitIdentical) {
  std::vector<BigUint> vals{BigUint{},          BigUint{1},      p - BigUint{1},
                            p - BigUint{2},     p,               p + BigUint{1},
                            p * p - BigUint{1}, (BigUint{1} << 1100) + BigUint{7}};
  const std::size_t iters = property_iters(16);
  for (std::size_t i = 0; i < iters; ++i) vals.push_back(rng.next_below(p));

  std::vector<BigUint> invertible;
  for (const BigUint& a : vals) {
    if (!(a % p).is_zero()) invertible.push_back(a);
    EXPECT_EQ(field.sqr(a), reference.mul(a, a));
    EXPECT_EQ(field.mul_small(a, 8), reference.mul(a, BigUint{8}));
    EXPECT_EQ(field.pow(a, p - BigUint{2}), reference.pow(a, p - BigUint{2}));
    EXPECT_EQ(field.inv(a), reference.inv(a));
    const auto root = field.sqrt(a);
    EXPECT_EQ(root.has_value(), reference.is_square(a)) << a.to_hex();
    if (root) {
      EXPECT_EQ(reference.mul(*root, *root), a % p) << a.to_hex();
    }
    EXPECT_EQ(field.from_mont(field.to_mont(a)), a % p);
    for (const BigUint& b : vals) {
      EXPECT_EQ(field.mul(a, b), reference.mul(a, b));
    }
  }
  const std::vector<BigUint> batch = field.inv_batch(invertible);
  ASSERT_EQ(batch.size(), invertible.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], *reference.inv(invertible[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, PrimeFieldOracleDifferential,
    ::testing::Values(
        "b7310e862efdfa3df84ca43f1e167c67802b80efc019a0f6ee55a30059ccffb44e02bfe"
        "78b9182024ef8b78563010f4d6eaa581df379f1e9fcd912a61fa26b6f",
        "a1d1466b6a6152952b0112f3",
        // p ≡ 1 (mod 4): exercises the Tonelli–Shanks sqrt.
        "ffffffffffffffc5"));

// ---------------------------------------------------------------------------
// Curve arithmetic and pairings on both pinned groups vs the oracle
// ---------------------------------------------------------------------------

struct GroupCase {
  const PairingGroup& g;
  oracle::Curve ref;  ///< y² = x³ + x over the same p
};

std::vector<GroupCase> group_cases() {
  std::vector<GroupCase> cases;
  for (const PairingGroup* g : {&pairing::tiny_group(), &pairing::default_group()}) {
    cases.push_back({*g, oracle::Curve{oracle::Fp{g->params().p}, BigUint{1}}});
  }
  return cases;
}

TEST(CurveBackendDifferential, ScalarMultiplicationBitIdentical) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(5150);
    const Point& gen = g.generator();
    const BigUint& q = g.order();
    std::vector<BigUint> scalars{BigUint{1}, BigUint{2},  BigUint{3},
                                 BigUint{7}, BigUint{255}, BigUint{256},
                                 q - BigUint{1}, q};
    const std::size_t iters = property_iters(8);
    for (std::size_t i = 0; i < iters; ++i) scalars.push_back(g.random_scalar(rng));

    for (const BigUint& k : scalars) {
      EXPECT_EQ(g.curve().mul(k, gen), ref.mul(k, gen)) << "k=" << k.to_hex();
    }
    // multi_mul walks a different (interleaved) ladder — compare it too.
    const Point g2 = ref.dbl(gen);
    const Point neg = g.curve().neg(gen);
    const std::vector<Point> pts{gen, g2, neg};
    const std::vector<BigUint> ks{scalars[0], scalars.back(), q - BigUint{1}};
    Point sum = Point::at_infinity();
    for (std::size_t i = 0; i < pts.size(); ++i) sum = ref.add(sum, ref.mul(ks[i], pts[i]));
    EXPECT_EQ(g.curve().multi_mul(ks, pts), sum);

    // Affine add/dbl, including P + P, P + (−P) and the identity.
    const Point a = ref.mul(scalars.back(), gen);
    const Point inf = Point::at_infinity();
    for (const auto& [lhs, rhs] : std::vector<std::pair<Point, Point>>{
             {gen, a}, {a, gen}, {a, a}, {a, g.curve().neg(a)}, {a, inf}, {inf, a}}) {
      EXPECT_EQ(g.curve().add(lhs, rhs), ref.add(lhs, rhs));
    }
    EXPECT_EQ(g.curve().dbl(a), ref.dbl(a));
    EXPECT_EQ(g.curve().dbl(inf), inf);
  }
}

TEST(CurveBackendDifferential, UnreducedCoordinatesReduceOnImport) {
  // A coordinate ≥ p is reduced on import: every operation on such a point
  // equals the same operation on the reduced point.
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(1618);
    const BigUint& p = g.params().p;
    const Point a = g.mul(g.random_scalar(rng), g.generator());
    const Point b = g.mul(g.random_scalar(rng), g.generator());
    const BigUint k = g.random_scalar(rng);
    // p << 64 adds a limb: such a coordinate does not even fit the limb array.
    for (const Point& wide : {Point::affine(a.x + p, a.y), Point::affine(a.x, a.y + p),
                              Point::affine(a.x + (p << 64), a.y + (p << 128))}) {
      EXPECT_EQ(g.curve().mul(k, wide), g.curve().mul(k, a));
      EXPECT_EQ(g.curve().mul(BigUint{5}, wide), g.curve().mul(BigUint{5}, a));
      EXPECT_EQ(g.curve().add(wide, b), g.curve().add(a, b));
      EXPECT_EQ(g.curve().add(b, wide), g.curve().add(b, a));
      EXPECT_EQ(g.curve().add(wide, Point::at_infinity()), a);
      EXPECT_EQ(g.curve().dbl(wide), g.curve().dbl(a));
      const std::vector<BigUint> ks{k, BigUint{3}};
      EXPECT_EQ(g.curve().multi_mul(ks, std::vector<Point>{wide, b}),
                g.curve().multi_mul(ks, std::vector<Point>{a, b}));
      EXPECT_EQ(g.miller(wide, b), g.miller(a, b));
      EXPECT_EQ(g.miller(b, wide), g.miller(b, a));
      EXPECT_EQ(pairing::FixedPairing(g, wide).miller_with(b), g.miller(a, b));
      EXPECT_EQ(pairing::FixedPairing(g, b).miller_with(wide), g.miller(b, a));
    }
  }
}

Point small_order_point(const PairingGroup& g, std::uint64_t d, Xoshiro256& rng);

TEST(CurveBackendDifferential, SmallOrderBasePointsSurviveWnafTable) {
  // Regression: the wNAF precompute table holds the odd multiples 3P, 5P,
  // 7P, and a base point of order 3 collapses 3P to O mid-table — the
  // scalar ladder used to throw domain_error out of the batch affine
  // conversion for any scalar wide enough to leave the tiny double-and-add
  // path.
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(271828);
    const BigUint& q = g.order();
    for (const std::uint64_t d : {2ull, 3ull, 4ull}) {
      const Point pt = small_order_point(g, d, rng);
      for (const BigUint& k :
           {BigUint{256}, BigUint{1000}, q, q + BigUint{12345}}) {
        const Point got = g.curve().mul(k, pt);
        EXPECT_EQ(got, ref.mul(k, pt)) << "d=" << d << " k=" << k.to_hex();
        // k·P depends only on k mod ord(P), and ord(P) | d, so reducing the
        // scalar mod d (which stays on the tiny double-and-add path) must
        // land on the same point.
        EXPECT_EQ(got, g.curve().mul(k % BigUint{d}, pt))
            << "d=" << d << " k=" << k.to_hex();
      }
    }
  }
}

TEST(PairingBackendDifferential, PairingsBitIdentical) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(31337);
    const Point& gen = g.generator();
    for (std::size_t i = 0; i < property_iters(4); ++i) {
      const Point a = g.mul(g.random_scalar(rng), gen);
      const Point b = g.mul(g.random_scalar(rng), gen);
      EXPECT_EQ(g.pair(a, b), ref.pair(g.order(), a, b));
      EXPECT_EQ(g.miller(a, b), pairing::FixedPairing(g, a).miller_with(b));
    }
    // Bilinearity still holds.
    const Point a = g.mul(BigUint{5}, gen);
    EXPECT_EQ(g.pair(a, gen), g.gt_pow(g.pair(gen, gen), BigUint{5}));
  }
}

TEST(PairingBackendDifferential, FixedPairingMatchesDirectPairing) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(404);
    const Point& gen = g.generator();
    const Point fixed_arg = g.mul(g.random_scalar(rng), gen);
    const pairing::FixedPairing fixed(g, fixed_arg);
    for (std::size_t i = 0; i < property_iters(4); ++i) {
      const Point q = g.mul(g.random_scalar(rng), gen);
      const auto direct = g.pair(fixed_arg, q);
      EXPECT_EQ(fixed.pair_with(q), direct);
      EXPECT_EQ(direct, ref.pair(g.order(), fixed_arg, q));
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate-point differential: small-torsion points drive the Miller loop
// through the T = P tangent step, the y = 0 doubling, and T = −P vertical
// line — paths random subgroup points never reach. The loop, FixedPairing
// replay and the oracle must agree in GT, and the loop and the replay on the
// raw Miller value.
// ---------------------------------------------------------------------------

/// Points of order dividing d on the full curve (order p + 1), via the
/// cofactor map ((p+1)/d)·R for random R. Requires d | p + 1.
Point small_order_point(const PairingGroup& g, std::uint64_t d, Xoshiro256& rng) {
  const BigUint full_order = g.params().p + BigUint{1};
  EXPECT_TRUE((full_order % BigUint{d}).is_zero());
  const BigUint cof = full_order / BigUint{d};
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Point r = g.curve().random_point(rng);
    const Point s = g.curve().mul(cof, r);
    if (!s.infinity) return s;
  }
  ADD_FAILURE() << "no point of order dividing " << d << " found";
  return Point::at_infinity();
}

TEST(PairingEdgePointDifferential, DegeneratePathsBitIdentical) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(8086);
    const Point& gen = g.generator();
    const Point q1 = g.mul(g.random_scalar(rng), gen);

    // (0, 0) is the canonical 2-torsion point of y² = x³ + x; order-3 and
    // order-4 points come from cofactor maps (3 | p+1 and 4 | p+1 on both
    // pinned curves).
    const Point two_torsion = Point::affine(BigUint{}, BigUint{});
    ASSERT_TRUE(g.curve().is_on_curve(two_torsion));
    ASSERT_TRUE(g.curve().mul(BigUint{2}, two_torsion).infinity);
    const Point order3 = small_order_point(g, 3, rng);
    const Point order4 = small_order_point(g, 4, rng);

    const std::vector<std::pair<Point, Point>> cases{
        {two_torsion, q1},                    // y = 0 doubling → infinity
        {two_torsion, two_torsion},           //
        {order3, q1},                         // forces T = P addition steps
        {order3, order3},                     //
        {order4, q1},                         // hits 2-torsion mid-ladder
        {q1, two_torsion},                    // degenerate evaluation side
        {q1, g.neg(q1)},                      // negated Q
        {gen, q1},                            // sanity: generic pair
    };
    for (const auto& [a, b] : cases) {
      const auto expect = ref.pair(g.order(), a, b);
      EXPECT_EQ(g.pair(a, b), expect) << a.x.to_hex() << "," << a.y.to_hex();
      const pairing::FixedPairing fixed(g, a);
      EXPECT_EQ(fixed.pair_with(b), expect);
      EXPECT_EQ(fixed.miller_with(b), g.miller(a, b));
    }

    // Infinity on either side short-circuits to 1 everywhere.
    const Point inf = Point::at_infinity();
    EXPECT_EQ(g.pair(inf, q1), g.gt_one());
    EXPECT_EQ(g.pair(q1, inf), g.gt_one());
    EXPECT_EQ(pairing::FixedPairing(g, inf).pair_with(q1), g.gt_one());
    EXPECT_EQ(pairing::FixedPairing(g, q1).pair_with(inf), g.gt_one());
  }
}

}  // namespace
}  // namespace seccloud
