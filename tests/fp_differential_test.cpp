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

#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ec/curve.h"
#include "ec/p256.h"
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
    const Fe fe = ctx.load(a);
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

  for (const BigUint& a : vals) {
    EXPECT_EQ(field.sqr(a), reference.mul(a, a));
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

/// The textbook curve on production values: every argument leaves through
/// the canonical export (Curve::coordinates) and every point comes back
/// through the canonical import (Curve::point).
class Reference {
 public:
  explicit Reference(const ec::Curve& curve)
      : curve_(&curve), ref_{oracle::Fp{curve.fp().modulus()}, curve.a()} {}

  Point add(const Point& lhs, const Point& rhs) const {
    return in(ref_.add(out(lhs), out(rhs)));
  }
  Point dbl(const Point& pt) const { return in(ref_.dbl(out(pt))); }
  Point mul(const BigUint& k, const Point& pt) const { return in(ref_.mul(k, out(pt))); }
  /// The modified Tate pairing of order n, with canonical components.
  oracle::Fp2 pair(const BigUint& n, const Point& p, const Point& q) const {
    return ref_.pair(n, out(p), out(q));
  }

 private:
  oracle::Point out(const Point& pt) const {
    if (pt.infinity) return oracle::Point::at_infinity();
    auto [x, y] = curve_->coordinates(pt);
    return oracle::Point::affine(std::move(x), std::move(y));
  }
  Point in(const oracle::Point& pt) const {
    return pt.infinity ? Point::at_infinity() : curve_->point(pt.x, pt.y);
  }

  const ec::Curve* curve_;
  oracle::Curve ref_;
};

/// A GT value's canonical components, for comparison with the oracle.
oracle::Fp2 canonical(const PairingGroup& g, const pairing::Gt& x) {
  auto [a, b] = g.fp2().coordinates(x);
  return {std::move(a), std::move(b)};
}

struct GroupCase {
  const PairingGroup& g;
  Reference ref;  ///< y² = x³ + x over the same p
};

std::vector<GroupCase> group_cases() {
  std::vector<GroupCase> cases;
  for (const PairingGroup* g : {&pairing::tiny_group(), &pairing::default_group()}) {
    cases.push_back({*g, Reference{g->curve()}});
  }
  return cases;
}

TEST(CurveBackendDifferential, ScalarMultiplicationBitIdentical) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(5150);
    const Point& gen = g.generator();
    const BigUint& q = g.order();
    // All-ones scalars run a carry across whole limbs in the wNAF recoding.
    std::vector<BigUint> scalars{BigUint{1}, BigUint{2},  BigUint{3},
                                 BigUint{7}, BigUint{255}, BigUint{256},
                                 (BigUint{1} << 64) - BigUint{1},
                                 (BigUint{1} << 128) - BigUint{1},
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
    const auto [x, y] = g.curve().coordinates(a);
    // p << 64 adds a limb: such a coordinate does not even fit the limb array.
    for (const Point& wide : {g.curve().point(x + p, y), g.curve().point(x, y + p),
                              g.curve().point(x + (p << 64), y + (p << 128))}) {
      EXPECT_EQ(wide, a);
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

// ---------------------------------------------------------------------------
// Multi-scalar multiplication vs the oracle's Σ k_i·P_i
// ---------------------------------------------------------------------------

/// Σ k_i·P_i by the oracle's double-and-add, one term at a time.
Point oracle_sum(const Reference& ref, std::span<const BigUint> ks,
                 std::span<const Point> pts) {
  Point sum = Point::at_infinity();
  for (std::size_t i = 0; i < ks.size(); ++i) sum = ref.add(sum, ref.mul(ks[i], pts[i]));
  return sum;
}

TEST(MultiMulDifferential, EveryTermCountMatchesOracle) {
  // n = 0…70 terms on both pairing curves (a = 1) and on P-256 (a = −3),
  // with zero scalars, O, repeated points, P next to −P, and scalars of 1,
  // q − 1, q and wider than q mixed into the random ones. Points come from
  // the whole curve, not just the order-q subgroup.
  const ec::P256 p256;
  struct Case {
    const ec::Curve& curve;
    Reference ref;
  };
  std::vector<Case> cases;
  for (const PairingGroup* g : {&pairing::tiny_group(), &pairing::default_group()}) {
    cases.push_back({g->curve(), Reference{g->curve()}});
  }
  cases.push_back({p256.curve(), Reference{p256.curve()}});
  constexpr std::size_t kMaxTerms = 70;
  for (const auto& [curve, ref] : cases) {
    Xoshiro256 rng(6174);
    const BigUint& q = curve.order();
    std::vector<BigUint> ks;
    std::vector<Point> pts;
    for (std::size_t i = 0; i < kMaxTerms; ++i) {
      BigUint k = rng.next_below(q);
      if (i % 7 == 3) k = BigUint{};
      if (i == 1) k = BigUint{1};
      if (i == 2) k = q - BigUint{1};
      if (i == 4) k = q;
      if (i == 8) k = (q << 3) + BigUint{5};
      Point pt = curve.random_point(rng);
      if (i % 11 == 5) pt = Point::at_infinity();
      if (i % 13 == 6) pt = pts[i - 1];              // repeated point
      if (i % 13 == 7) {
        pt = curve.neg(pts[i - 1]);                  // P next to −P …
        if (i % 2 == 1) k = ks[i - 1];               // … sometimes cancelling
      }
      ks.push_back(std::move(k));
      pts.push_back(std::move(pt));
    }
    Point expected = Point::at_infinity();
    for (std::size_t n = 0; n <= kMaxTerms; ++n) {
      const std::span<const BigUint> k_n{ks.data(), n};
      const std::span<const Point> p_n{pts.data(), n};
      EXPECT_EQ(curve.multi_mul(k_n, p_n), expected) << "n=" << n;
      if (n < kMaxTerms) expected = ref.add(expected, ref.mul(ks[n], pts[n]));
    }
  }
}

TEST(MultiMulDifferential, PreparedTableWithAddendsMatchesOracle) {
  // One table serves many multi_muls (the batch check and every bisection
  // range share one), and addends fold in with scalar 1.
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(1729);
    std::vector<Point> bases;
    for (std::size_t i = 0; i < 6; ++i) bases.push_back(g.curve().random_point(rng));
    const ec::MsmTable table{g.curve(), bases};
    ASSERT_EQ(table.size(), bases.size());
    std::vector<Point> addends{g.curve().random_point(rng), Point::at_infinity()};
    addends.push_back(g.curve().neg(addends[0]));
    addends.push_back(bases[2]);
    for (std::size_t round = 0; round < 4; ++round) {
      std::vector<BigUint> ks;
      for (std::size_t i = 0; i < bases.size(); ++i) {
        ks.push_back((i + round) % 3 == 0 ? BigUint{} : rng.next_below(g.order() << 8));
      }
      const std::span<const Point> adds = std::span<const Point>{addends}.first(round);
      Point expected = oracle_sum(ref, ks, bases);
      for (const Point& a : adds) expected = ref.add(expected, a);
      EXPECT_EQ(g.curve().multi_mul(table, ks, adds), expected) << "round " << round;
    }
    const std::vector<BigUint> too_few(bases.size() - 1, BigUint{1});
    EXPECT_THROW(g.curve().multi_mul(table, too_few), std::invalid_argument);
  }
  const PairingGroup& tiny = pairing::tiny_group();
  const ec::MsmTable foreign{pairing::default_group().curve(), {}};
  EXPECT_THROW(tiny.curve().multi_mul(foreign, {}), std::invalid_argument);
}

TEST(MultiMulDifferential, SmallOrderBasesHitInfinityInsideTheTables) {
  // y² = x³ + 2x + 19 over F_1013 has 1050 = 2·3·5²·7 points, so it has
  // bases of order 2, 3, 5 and 7 — exactly the orders whose odd multiples
  // 3P, 5P or 7P (or 2P while building them) are O. mul and multi_mul must
  // stay exact and must not throw.
  const BigUint p{1013};
  const PrimeField f{p};
  const ec::Curve curve{f, BigUint{2}, BigUint{19}, BigUint{1050}, BigUint{1}};
  const Reference ref{curve};
  Xoshiro256 rng(4711);
  const Point generic = curve.random_point(rng);
  for (const std::uint64_t d : {2ull, 3ull, 5ull, 7ull}) {
    Point base = Point::at_infinity();
    while (base.infinity) base = ref.mul(BigUint{1050 / d}, curve.random_point(rng));
    ASSERT_TRUE(ref.mul(BigUint{d}, base).infinity) << "d=" << d;
    for (const BigUint& k : {BigUint{1}, BigUint{d}, BigUint{d + 1}, BigUint{255},
                             BigUint{256}, BigUint{1000}, (BigUint{1} << 100) + BigUint{3}}) {
      EXPECT_EQ(curve.mul(k, base), ref.mul(k, base)) << "d=" << d << " k=" << k.to_hex();
      const std::vector<Point> pts{base, curve.neg(base), base, generic, Point::at_infinity()};
      const std::vector<BigUint> ks{k, k + BigUint{1}, BigUint{2} * k, k, k};
      EXPECT_EQ(curve.multi_mul(ks, pts), oracle_sum(ref, ks, pts))
          << "d=" << d << " k=" << k.to_hex();
    }
  }
}

// ---------------------------------------------------------------------------
// Fixed-base tables (32-bit chunks over one Straus pass) vs the oracle
// ---------------------------------------------------------------------------

TEST(FixedBaseDifferential, MatchesOracleOnEveryGroup) {
  // The tiny and 512-bit pairing groups (a = 1) and P-256 (a = −3, 256-bit
  // order): k = 0, 1, q − 1, the widest scalar the table spans, every chunk
  // boundary 2^(c·j) − 1, 2^(c·j), 2^(c·j) + 1 below it, and random scalars,
  // on a generic base and on O.
  const ec::P256 p256;
  struct Case {
    const ec::Curve& curve;
    Reference ref;
  };
  std::vector<Case> cases;
  for (const PairingGroup* g : {&pairing::tiny_group(), &pairing::default_group()}) {
    cases.push_back({g->curve(), Reference{g->curve()}});
  }
  cases.push_back({p256.curve(), Reference{p256.curve()}});
  for (const auto& [curve, ref] : cases) {
    Xoshiro256 rng(9001);
    const BigUint& q = curve.order();
    const Point base = curve.random_point(rng);
    const ec::FixedBaseTable table{curve, base};
    const ec::FixedBaseTable table_inf{curve, Point::at_infinity()};
    ASSERT_GE(table.span_bits(), q.bit_length());
    ASSERT_LT(table.span_bits(), q.bit_length() + ec::FixedBaseTable::kChunkBits);
    const BigUint widest = (BigUint{1} << table.span_bits()) - BigUint{1};
    std::vector<BigUint> scalars{BigUint{}, BigUint{1}, q - BigUint{1}, widest};
    constexpr std::size_t kC = ec::FixedBaseTable::kChunkBits;
    for (std::size_t bit = kC; bit < table.span_bits(); bit += kC) {
      const BigUint edge = BigUint{1} << bit;
      scalars.insert(scalars.end(), {edge - BigUint{1}, edge, edge + BigUint{1}});
    }
    for (std::size_t i = 0; i < property_iters(8); ++i) scalars.push_back(rng.next_below(q));
    for (const BigUint& k : scalars) {
      EXPECT_EQ(curve.mul(table, k), ref.mul(k, base)) << "k=" << k.to_hex();
      EXPECT_EQ(curve.mul(table_inf, k), Point::at_infinity()) << "k=" << k.to_hex();
    }
    EXPECT_THROW(curve.mul(table, BigUint{1} << table.span_bits()), std::invalid_argument);
    EXPECT_THROW(curve.mul(table_inf, widest + BigUint{1}), std::invalid_argument);
  }
  const PairingGroup& tiny = pairing::tiny_group();
  const ec::FixedBaseTable foreign{pairing::default_group().curve(),
                                   pairing::default_group().generator()};
  EXPECT_THROW(tiny.curve().mul(foreign, BigUint{1}), std::invalid_argument);
}

TEST(FixedBaseDifferential, SmallOrderBasesMatchCurveMul) {
  // The F_1013 curve of the MSM test above (1050 = 2·3·5²·7 points): the odd
  // multiples of a small-order P hit O inside the table, and k's wNAF digits
  // reach the top of the one 32-bit chunk (up to its carry digit). mul over
  // the table must equal Curve::mul and the oracle, and must not throw.
  const BigUint p{1013};
  const PrimeField f{p};
  const ec::Curve curve{f, BigUint{2}, BigUint{19}, BigUint{1050}, BigUint{1}};
  const Reference ref{curve};
  Xoshiro256 rng(4712);
  for (const std::uint64_t d : {2ull, 3ull, 5ull, 7ull}) {
    Point base = Point::at_infinity();
    while (base.infinity) base = ref.mul(BigUint{1050 / d}, curve.random_point(rng));
    ASSERT_TRUE(ref.mul(BigUint{d}, base).infinity) << "d=" << d;
    std::unique_ptr<ec::FixedBaseTable> table;
    ASSERT_NO_THROW(table = std::make_unique<ec::FixedBaseTable>(curve, base)) << "d=" << d;
    ASSERT_EQ(table->span_bits(), ec::FixedBaseTable::kChunkBits);
    for (const BigUint& k :
         {BigUint{}, BigUint{1}, BigUint{d}, BigUint{d + 1}, BigUint{255}, BigUint{256},
          BigUint{1049}, BigUint{0x7fffffff}, BigUint{0x80000000}, BigUint{0xfffffffe},
          BigUint{0xffffffff}, rng.next_below(BigUint{1050})}) {
      Point got;
      ASSERT_NO_THROW(got = curve.mul(*table, k)) << "d=" << d << " k=" << k.to_hex();
      EXPECT_EQ(got, curve.mul(k, base)) << "d=" << d << " k=" << k.to_hex();
      EXPECT_EQ(got, ref.mul(k, base)) << "d=" << d << " k=" << k.to_hex();
    }
    EXPECT_THROW(curve.mul(*table, BigUint{1} << table->span_bits()), std::invalid_argument);
  }
}

TEST(PairingBackendDifferential, PairingsBitIdentical) {
  for (const auto& [g, ref] : group_cases()) {
    Xoshiro256 rng(31337);
    const Point& gen = g.generator();
    for (std::size_t i = 0; i < property_iters(4); ++i) {
      const Point a = g.mul(g.random_scalar(rng), gen);
      const Point b = g.mul(g.random_scalar(rng), gen);
      EXPECT_EQ(canonical(g, g.pair(a, b)), ref.pair(g.order(), a, b));
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
      EXPECT_EQ(canonical(g, direct), ref.pair(g.order(), fixed_arg, q));
    }
  }
}

TEST(FinalExpDifferential, UnitaryChainMatchesTheBinaryLadder) {
  // finalize() takes one norm inversion and the signed chain over h's
  // digits; Fp2Field's norm inverse and binary-ladder pow are the oracle:
  // f^((p²−1)/q) = (conj(f)·f⁻¹)^h. Random f are non-unitary, so the easy
  // part's division is exercised, not skipped.
  for (const auto& [g, ref] : group_cases()) {
    const field::Fp2Field& f2 = g.fp2();
    const BigUint& p = g.params().p;
    Xoshiro256 rng(1729);
    const auto oracle = [&](const field::Fp2& f) {
      return f2.pow(f2.mul(f2.conj(f), *f2.inv(f)), g.params().h);
    };
    for (std::size_t i = 0; i < property_iters(8); ++i) {
      const field::Fp2 f = f2.random(rng);
      ASSERT_FALSE(f2.is_zero(f));
      EXPECT_NE(f2.mul(f, f2.conj(f)), f2.one()) << "f must be non-unitary";
      const auto [a, b] = f2.coordinates(f);
      EXPECT_EQ(g.finalize(f), oracle(f)) << a.to_hex() << "+" << b.to_hex() << "*i";
      // Unreduced coordinates reduce on import.
      EXPECT_EQ(g.finalize(f2.element(a + p, b + p + p)), g.finalize(f));
    }
    // A Miller value, as the pairings hand it over.
    const Point a = g.mul(g.random_scalar(rng), g.generator());
    const field::Fp2 m = g.miller(a, g.generator());
    EXPECT_EQ(g.finalize(m), oracle(m));

    // f = 0 has no easy part and gives 1; so does every f ∈ F_p*, which the
    // Frobenius fixes (conj(f)/f = 1).
    EXPECT_EQ(g.finalize(f2.zero()), g.gt_one());
    for (const BigUint& k : {BigUint{1}, BigUint{2}, p - BigUint{1}, g.fp().random(rng)}) {
      EXPECT_EQ(g.finalize(f2.element(k, BigUint{})), g.gt_one()) << k.to_hex();
    }

    // One final_exp and nothing else: the chain is internal, not gt_multi_pow.
    g.reset_counters();
    (void)g.finalize(m);
    EXPECT_EQ(g.counters(), pairing::OpCounters{.final_exps = 1});
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
    const Point two_torsion = g.curve().point(BigUint{}, BigUint{});
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
      const auto [x, y] = g.curve().coordinates(a);
      EXPECT_EQ(canonical(g, g.pair(a, b)), expect) << x.to_hex() << "," << y.to_hex();
      const pairing::FixedPairing fixed(g, a);
      EXPECT_EQ(canonical(g, fixed.pair_with(b)), expect);
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
