// Elliptic-curve group tests: group laws, scalar-multiplication properties,
// serialization, NIST P-256 known-answer vectors.
#include <gtest/gtest.h>

#include "ec/curve.h"
#include "ec/p256.h"
#include "pairing/group.h"

namespace seccloud::ec {
namespace {

using num::BigUint;
using num::Xoshiro256;

class CurveTest : public ::testing::Test {
 protected:
  // Use the tiny pairing curve (y^2 = x^3 + x) as a generic test subject.
  CurveTest() : g(pairing::tiny_group()), curve(g.curve()), rng(21) {}
  const pairing::PairingGroup& g;
  const Curve& curve;
  Xoshiro256 rng;
};

TEST_F(CurveTest, InfinityIsIdentity) {
  const Point p = g.generator();
  EXPECT_EQ(curve.add(p, Point::at_infinity()), p);
  EXPECT_EQ(curve.add(Point::at_infinity(), p), p);
  EXPECT_TRUE(curve.add(p, curve.neg(p)).infinity);
}

TEST_F(CurveTest, AdditionCommutesAndAssociates) {
  for (int i = 0; i < 10; ++i) {
    const Point a = curve.random_point(rng);
    const Point b = curve.random_point(rng);
    const Point c = curve.random_point(rng);
    EXPECT_EQ(curve.add(a, b), curve.add(b, a));
    EXPECT_EQ(curve.add(curve.add(a, b), c), curve.add(a, curve.add(b, c)));
  }
}

TEST_F(CurveTest, DoublingMatchesAddition) {
  for (int i = 0; i < 10; ++i) {
    const Point a = curve.random_point(rng);
    EXPECT_EQ(curve.dbl(a), curve.add(a, a));
  }
}

TEST_F(CurveTest, ResultsStayOnCurve) {
  for (int i = 0; i < 10; ++i) {
    const Point a = curve.random_point(rng);
    const Point b = curve.random_point(rng);
    EXPECT_TRUE(curve.is_on_curve(curve.add(a, b)));
    EXPECT_TRUE(curve.is_on_curve(curve.dbl(a)));
    EXPECT_TRUE(curve.is_on_curve(curve.mul(BigUint{12345}, a)));
  }
}

TEST_F(CurveTest, ScalarMulMatchesRepeatedAddition) {
  const Point p = g.generator();
  Point acc = Point::at_infinity();
  for (std::uint64_t k = 0; k <= 16; ++k) {
    EXPECT_EQ(curve.mul(BigUint{k}, p), acc) << "k=" << k;
    acc = curve.add(acc, p);
  }
}

TEST_F(CurveTest, ScalarMulDistributes) {
  const Point p = g.generator();
  for (int i = 0; i < 10; ++i) {
    const BigUint a = g.random_scalar(rng);
    const BigUint b = g.random_scalar(rng);
    // (a+b)P = aP + bP
    EXPECT_EQ(curve.mul(a + b, p), curve.add(curve.mul(a, p), curve.mul(b, p)));
    // a(bP) = (ab mod q)P  for p of order q
    EXPECT_EQ(curve.mul(a, curve.mul(b, p)), curve.mul((a * b) % g.order(), p));
  }
}

TEST_F(CurveTest, MultiMulMatchesSumOfMuls) {
  const Point p = g.generator();
  for (int i = 0; i < 5; ++i) {
    std::vector<BigUint> scalars;
    std::vector<Point> points;
    Point expected = Point::at_infinity();
    for (int j = 0; j < 4; ++j) {
      scalars.push_back(g.random_scalar(rng));
      points.push_back(curve.mul(g.random_scalar(rng), p));
      expected = curve.add(expected, curve.mul(scalars.back(), points.back()));
    }
    EXPECT_EQ(curve.multi_mul(scalars, points), expected);
  }
}

TEST_F(CurveTest, MultiMulSizeMismatchThrows) {
  const std::vector<BigUint> scalars(2, BigUint{1});
  const std::vector<Point> points(3, g.generator());
  EXPECT_THROW(curve.multi_mul(scalars, points), std::invalid_argument);
}

TEST_F(CurveTest, SerializeRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const Point a = curve.random_point(rng);
    const auto bytes = curve.serialize(a);
    const auto back = curve.deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
  const auto inf = curve.deserialize(curve.serialize(Point::at_infinity()));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->infinity);
}

TEST_F(CurveTest, DeserializeRejectsOffCurveAndMalformed) {
  auto bytes = curve.serialize(g.generator());
  bytes[1] ^= 1;  // perturb X
  // Either off-curve (reject) or by luck on-curve; flip Y too to force reject.
  auto bytes2 = curve.serialize(g.generator());
  bytes2.back() ^= 1;
  EXPECT_FALSE(curve.deserialize(bytes2).has_value());
  EXPECT_FALSE(curve.deserialize(std::vector<std::uint8_t>{0x02, 0x01}).has_value());
  EXPECT_FALSE(curve.deserialize(std::vector<std::uint8_t>{}).has_value());
}

TEST_F(CurveTest, LiftXRespectsParity) {
  for (int i = 0; i < 20; ++i) {
    const Point a = curve.random_point(rng);
    const BigUint x = curve.coordinates(a).first;
    const auto even = curve.lift_x(x, true);
    const auto odd = curve.lift_x(x, false);
    ASSERT_TRUE(even.has_value());
    ASSERT_TRUE(odd.has_value());
    EXPECT_TRUE(curve.coordinates(*even).second.is_even());
    EXPECT_TRUE(curve.coordinates(*odd).second.is_odd());
    EXPECT_TRUE(*even == a || *odd == a);
  }
}


TEST_F(CurveTest, CompressedSerializationRoundTrip) {
  for (int i = 0; i < 20; ++i) {
    const Point a = curve.random_point(rng);
    const auto bytes = curve.serialize_compressed(a);
    EXPECT_EQ(bytes.size(), 1 + (g.params().p.bit_length() + 7) / 8);
    const auto back = curve.deserialize_compressed(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
  const auto inf = curve.deserialize_compressed(curve.serialize_compressed(Point::at_infinity()));
  ASSERT_TRUE(inf.has_value());
  EXPECT_TRUE(inf->infinity);
}

TEST_F(CurveTest, CompressedRejectsMalformed) {
  auto bytes = curve.serialize_compressed(g.generator());
  bytes[0] = 0x05;
  EXPECT_FALSE(curve.deserialize_compressed(bytes).has_value());
  EXPECT_FALSE(curve.deserialize_compressed(std::vector<std::uint8_t>{0x02}).has_value());
}

TEST_F(CurveTest, CompressedIsHalfTheSizeOfUncompressed) {
  const Point a = curve.random_point(rng);
  EXPECT_LT(curve.serialize_compressed(a).size(), curve.serialize(a).size());
}

TEST_F(CurveTest, WnafMatchesBinaryForManyScalars) {
  // mul() switches to wNAF above 8 bits; cross-check against the additive
  // chain identity k.P = (k-1).P + P across the switch boundary.
  const Point p = g.generator();
  Point acc = Point::at_infinity();
  for (std::uint64_t k = 0; k < 600; ++k) {
    ASSERT_EQ(curve.mul(BigUint{k}, p), acc) << "k=" << k;
    acc = curve.add(acc, p);
  }
}

TEST_F(CurveTest, WnafHandlesFullWidthScalars) {
  for (int i = 0; i < 10; ++i) {
    const BigUint a = g.random_scalar(rng);
    const BigUint b = g.random_scalar(rng);
    const Point pt = curve.random_point(rng);
    // Homomorphism check exercises every digit pattern.
    EXPECT_EQ(curve.mul(a + b, pt), curve.add(curve.mul(a, pt), curve.mul(b, pt)));
  }
}

// --- NIST P-256 known-answer tests -----------------------------------------

class P256Test : public ::testing::Test {
 protected:
  P256 p256;
};

TEST_F(P256Test, GeneratorOnCurveWithCorrectOrder) {
  EXPECT_TRUE(p256.curve().is_on_curve(p256.generator()));
  EXPECT_TRUE(p256.curve().mul(p256.order(), p256.generator()).infinity);
}

TEST_F(P256Test, KnownScalarMultiples) {
  // 2G from the standard test vectors.
  const auto [x2, y2] = p256.curve().coordinates(p256.curve().mul(BigUint{2}, p256.generator()));
  EXPECT_EQ(x2.to_hex(), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(y2.to_hex(), "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
  // 5G.
  const auto [x5, y5] = p256.curve().coordinates(p256.curve().mul(BigUint{5}, p256.generator()));
  EXPECT_EQ(x5.to_hex(), "51590b7a515140d2d784c85608668fdfef8c82fd1f5be52421554a0dc3d033ed");
}

TEST_F(P256Test, LargeKnownScalar) {
  // k = order - 1 gives -G.
  const Point minus_g = p256.curve().mul(p256.order() - BigUint{1}, p256.generator());
  EXPECT_EQ(minus_g.x, p256.generator().x);
  EXPECT_EQ(minus_g, p256.curve().neg(p256.generator()));
}

}  // namespace
}  // namespace seccloud::ec
