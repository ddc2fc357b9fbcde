// Representation invariants of the resident value types: ec::Point and
// pairing::Gt hold Montgomery-domain limbs, so equal values must be equal
// limb for limb — and serialize to the same bytes — whichever path made
// them. Covers the point at infinity from every producer, the byte round
// trips of both point encodings and of GT, the canonical import's reduction
// mod p, and the zero limbs above the field width.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "ec/curve.h"
#include "ec/p256.h"
#include "field/fp2.h"
#include "pairing/group.h"
#include "pairing/precompute.h"

namespace seccloud {
namespace {

using field::fixed::Fe;
using field::fixed::kMaxLimbs;
using num::BigUint;
using num::Xoshiro256;
using pairing::Gt;
using pairing::PairingGroup;
using pairing::Point;

std::vector<const PairingGroup*> groups() {
  return {&pairing::tiny_group(), &pairing::default_group()};
}

bool limbs_above_zero(const Fe& x, std::size_t width) {
  for (std::size_t i = width; i < kMaxLimbs; ++i) {
    if (x.w[i] != 0) return false;
  }
  return true;
}

TEST(RepresentationInvariant, InfinityIsOneValueFromEveryPath) {
  for (const PairingGroup* g : groups()) {
    const ec::Curve& curve = g->curve();
    const Point& p = g->generator();
    const Point minus_p = curve.neg(p);
    const ec::FixedBaseTable table{curve, p};
    const ec::MsmTable bases{curve, std::vector<Point>{p, minus_p}};
    const std::vector<BigUint> same{BigUint{5}, BigUint{5}};
    const std::vector<BigUint> zeros{BigUint{}, BigUint{}};
    const std::vector<Point> cancelling{p, minus_p};

    const std::vector<Point> infinities{
        Point::at_infinity(),
        Point{},
        curve.add(p, minus_p),
        curve.add(Point::at_infinity(), Point::at_infinity()),
        curve.dbl(Point::at_infinity()),
        curve.dbl(curve.point(BigUint{}, BigUint{})),  // 2-torsion doubles to O
        curve.mul(g->order(), p),
        curve.mul(BigUint{}, p),
        curve.neg(Point::at_infinity()),
        *curve.deserialize(std::vector<std::uint8_t>{0x00}),
        *curve.deserialize_compressed(std::vector<std::uint8_t>{0x00}),
        curve.mul(table, BigUint{}),
        curve.mul(table, g->order()),
        curve.multi_mul(bases, same),
        curve.multi_mul(bases, zeros),
        curve.multi_mul(bases, zeros, cancelling),
        curve.multi_mul(same, cancelling),
    };
    for (std::size_t i = 0; i < infinities.size(); ++i) {
      const Point& inf = infinities[i];
      EXPECT_EQ(inf, Point::at_infinity()) << "path " << i;
      EXPECT_TRUE(inf.infinity) << "path " << i;
      EXPECT_EQ(inf.x, Fe{}) << "path " << i;
      EXPECT_EQ(inf.y, Fe{}) << "path " << i;
      EXPECT_EQ(curve.serialize(inf), std::vector<std::uint8_t>{0x00}) << "path " << i;
      EXPECT_EQ(curve.serialize_compressed(inf), std::vector<std::uint8_t>{0x00}) << "path " << i;
    }
  }
}

TEST(RepresentationInvariant, SerializeDeserializeIsTheIdentity) {
  const ec::P256 p256;
  std::vector<const ec::Curve*> curves{&p256.curve()};
  for (const PairingGroup* g : groups()) curves.push_back(&g->curve());
  for (const ec::Curve* curve : curves) {
    Xoshiro256 rng{2718};
    std::vector<Point> points{Point::at_infinity()};
    for (int i = 0; i < 8; ++i) points.push_back(curve->random_point(rng));
    points.push_back(curve->neg(points.back()));
    for (const Point& pt : points) {
      const auto bytes = curve->serialize(pt);
      const auto back = curve->deserialize(bytes);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, pt);
      EXPECT_EQ(curve->serialize(*back), bytes);
      const auto packed = curve->serialize_compressed(pt);
      const auto unpacked = curve->deserialize_compressed(packed);
      ASSERT_TRUE(unpacked.has_value());
      EXPECT_EQ(*unpacked, pt);
      EXPECT_EQ(curve->serialize_compressed(*unpacked), packed);
    }
  }
  for (const PairingGroup* g : groups()) {
    Xoshiro256 rng{3141};
    const Point a = g->mul(g->random_scalar(rng), g->generator());
    std::vector<Gt> values{g->gt_one(), g->fp2().zero(), g->pair(a, g->generator()),
                           g->miller(a, g->generator())};
    for (int i = 0; i < 8; ++i) values.push_back(g->fp2().random(rng));
    for (const Gt& x : values) {
      const auto bytes = g->gt_serialize(x);
      ASSERT_EQ(bytes.size(), 2 * g->fp().byte_width());
      const auto back = g->gt_deserialize(bytes);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, x);
      EXPECT_EQ(g->gt_serialize(*back), bytes);
    }
  }
}

TEST(RepresentationInvariant, DecodersRejectResiduesAtOrAboveP) {
  // The byte decoders read limbs directly: p itself is the first value they
  // must refuse, p − 1 the last they accept.
  for (const PairingGroup* g : groups()) {
    const BigUint& p = g->params().p;
    const std::size_t width = g->fp().byte_width();
    const auto be = [&](const BigUint& v) { return v.to_bytes(width); };
    const auto concat = [](std::vector<std::uint8_t> a, const std::vector<std::uint8_t>& b) {
      a.insert(a.end(), b.begin(), b.end());
      return a;
    };
    const BigUint top = p - BigUint{1};
    const auto edge = g->gt_deserialize(concat(be(top), be(BigUint{})));
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(g->fp2().coordinates(*edge), std::make_pair(top, BigUint{}));
    EXPECT_FALSE(g->gt_deserialize(concat(be(p), be(BigUint{}))).has_value());
    EXPECT_FALSE(g->gt_deserialize(concat(be(BigUint{}), be(p))).has_value());

    // (0, 0) is on y² = x³ + x; x = p would reduce onto it.
    const std::vector<std::uint8_t> tag{0x04};
    const BigUint zero{};
    EXPECT_TRUE(g->curve().deserialize(concat(concat(tag, be(zero)), be(zero))).has_value());
    EXPECT_FALSE(g->curve().deserialize(concat(concat(tag, be(p)), be(zero))).has_value());
    EXPECT_FALSE(g->curve().deserialize(concat(concat(tag, be(zero)), be(p))).has_value());
  }
}

TEST(RepresentationInvariant, ImportReducesModP) {
  for (const PairingGroup* g : groups()) {
    Xoshiro256 rng{1618};
    const BigUint& p = g->params().p;
    const ec::Curve& curve = g->curve();
    const field::Fp2Field& f2 = g->fp2();
    for (int i = 0; i < 8; ++i) {
      const BigUint x = g->fp().random(rng);
      const BigUint y = g->fp().random(rng);
      const Point pt = curve.point(x, y);
      EXPECT_EQ(curve.point(x + p, y), pt);
      EXPECT_EQ(curve.point(x, y + p + p), pt);
      EXPECT_EQ(curve.point(x + (p << 64), y + (p << 128)), pt);
      EXPECT_EQ(curve.coordinates(pt), std::make_pair(x, y));
      const Gt e = f2.element(x, y);
      EXPECT_EQ(f2.element(x + p, y), e);
      EXPECT_EQ(f2.element(x + (p << 64), y + p), e);
      EXPECT_EQ(f2.coordinates(e), std::make_pair(x, y));
    }
    EXPECT_EQ(curve.point(p, p), curve.point(BigUint{}, BigUint{}));
    EXPECT_EQ(f2.element(p, BigUint{}), f2.zero());
    EXPECT_EQ(f2.element(p + BigUint{1}, p), f2.one());
  }
}

TEST(RepresentationInvariant, LimbsAboveTheFieldWidthAreZero) {
  const ec::P256 p256;
  {
    const ec::Curve& curve = p256.curve();
    const std::size_t width = curve.fp().limb_count();
    Xoshiro256 rng{99};
    const Point a = curve.random_point(rng);
    const Point b = curve.mul(BigUint{12345}, a);
    for (const Point& pt : {a, b, curve.add(a, b), curve.dbl(a), curve.neg(b),
                            curve.point(BigUint{1} << 400, BigUint{7})}) {
      EXPECT_TRUE(limbs_above_zero(pt.x, width));
      EXPECT_TRUE(limbs_above_zero(pt.y, width));
    }
  }
  for (const PairingGroup* g : groups()) {
    const std::size_t width = g->fp().limb_count();
    Xoshiro256 rng{42};
    const Point& gen = g->generator();
    const Point a = g->mul(g->random_scalar(rng), gen);
    const std::vector<BigUint> ks{g->random_scalar(rng), g->random_scalar(rng)};
    const std::vector<Point> pts{a, gen};
    const ec::FixedBaseTable table{g->curve(), a};
    for (const Point& pt : {a, g->add(a, gen), g->curve().dbl(a), g->neg(a),
                            g->curve().multi_mul(ks, pts), g->curve().mul(table, ks[0]),
                            g->hash_to_g1("representation", std::string_view{"limbs"}),
                            *g->curve().deserialize(g->curve().serialize(a))}) {
      EXPECT_TRUE(limbs_above_zero(pt.x, width));
      EXPECT_TRUE(limbs_above_zero(pt.y, width));
    }
    const Gt v = g->pair(a, gen);
    const pairing::GtComb comb{*g, v};
    const pairing::GtPowTable bases{*g, std::vector<Gt>{v, g->gt_inv(v)}};
    const pairing::FixedPairing fixed{*g, gen};
    for (const Gt& x : {v, g->miller(a, gen), g->finalize(g->fp2().random(rng)),
                        g->gt_mul(v, v), g->gt_inv(v), g->gt_pow(v, ks[0]),
                        g->gt_pow(comb, ks[1]), g->gt_multi_pow(bases, ks),
                        fixed.pair_with(a), fixed.miller_with(a),
                        g->fp2().element(BigUint{1} << 600, BigUint{3}),
                        *g->gt_deserialize(g->gt_serialize(v))}) {
      EXPECT_TRUE(limbs_above_zero(x.a, width));
      EXPECT_TRUE(limbs_above_zero(x.b, width));
    }
  }
}

}  // namespace
}  // namespace seccloud
