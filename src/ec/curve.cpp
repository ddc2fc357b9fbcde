#include "ec/curve.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace seccloud::ec {
namespace {

using field::fixed::Fe;
using field::fixed::MontCtx;

// Affine and Jacobian points with Montgomery-domain coordinates: every curve
// operation imports its inputs once, runs on these, and exports once.
struct FeAff {
  Fe x;
  Fe y;
  bool inf = false;
};

struct FeJac {
  Fe x;
  Fe y;
  Fe z;  // z == 0 ⇒ infinity
};

FeJac fe_jac_infinity(const MontCtx& m) { return {m.one_mont(), m.one_mont(), Fe{}}; }

FeAff fe_import(const PrimeField& f, const Point& pt) {
  if (pt.infinity) return {Fe{}, Fe{}, true};
  return {f.to_mont(pt.x), f.to_mont(pt.y), false};
}

Point fe_export(const PrimeField& f, const FeAff& pt) {
  if (pt.inf) return Point::at_infinity();
  return Point::affine(f.from_mont(pt.x), f.from_mont(pt.y));
}

FeAff fe_neg(const MontCtx& m, const FeAff& pt) {
  if (pt.inf) return pt;
  return {pt.x, m.neg(pt.y), false};
}

FeJac fe_jac_dbl(const MontCtx& m, const Fe& a_mont, const FeJac& pt) {
  if (m.is_zero(pt.z) || m.is_zero(pt.y)) return fe_jac_infinity(m);
  const Fe y2 = m.mont_sqr(pt.y);
  const Fe s = m.mul_word(m.mont_mul(pt.x, y2), 4);                // S = 4XY^2
  const Fe z2 = m.mont_sqr(pt.z);
  const Fe z4 = m.mont_sqr(z2);
  // Both pinned curves are y^2 = x^3 + x, so a·Z^4 degenerates to Z^4;
  // an eight-limb compare is free next to the 8×8 multiply it avoids.
  const Fe az4 = (a_mont == m.one_mont()) ? z4 : m.mont_mul(a_mont, z4);
  const Fe mm = m.add(m.mul_word(m.mont_sqr(pt.x), 3), az4);       // M = 3X^2 + aZ^4
  const Fe x3 = m.sub(m.mont_sqr(mm), m.add(s, s));
  const Fe y3 = m.sub(m.mont_mul(mm, m.sub(s, x3)), m.mul_word(m.mont_sqr(y2), 8));
  const Fe z3 = m.mul_word(m.mont_mul(pt.y, pt.z), 2);
  return {x3, y3, z3};
}

FeJac fe_jac_add_mixed(const MontCtx& m, const Fe& a_mont, const FeJac& lhs, const FeAff& rhs) {
  if (rhs.inf) return lhs;
  if (m.is_zero(lhs.z)) return {rhs.x, rhs.y, m.one_mont()};
  const Fe z1_sq = m.mont_sqr(lhs.z);
  const Fe u2 = m.mont_mul(rhs.x, z1_sq);
  const Fe s2 = m.mont_mul(rhs.y, m.mont_mul(z1_sq, lhs.z));
  const Fe h = m.sub(u2, lhs.x);
  const Fe r = m.sub(s2, lhs.y);
  if (m.is_zero(h)) {
    if (m.is_zero(r)) return fe_jac_dbl(m, a_mont, lhs);
    return fe_jac_infinity(m);  // P + (−P) = O
  }
  const Fe h2 = m.mont_sqr(h);
  const Fe h3 = m.mont_mul(h2, h);
  const Fe x1h2 = m.mont_mul(lhs.x, h2);
  const Fe x3 = m.sub(m.sub(m.mont_sqr(r), h3), m.add(x1h2, x1h2));
  const Fe y3 = m.sub(m.mont_mul(r, m.sub(x1h2, x3)), m.mont_mul(lhs.y, h3));
  const Fe z3 = m.mont_mul(lhs.z, h);
  return {x3, y3, z3};
}

FeAff fe_to_affine(const MontCtx& m, const FeJac& pt) {
  if (m.is_zero(pt.z)) return {Fe{}, Fe{}, true};
  const auto z_inv = m.inv_mont(pt.z);
  if (!z_inv) throw std::domain_error("fe_to_affine: non-invertible z");
  const Fe z2_inv = m.mont_sqr(*z_inv);
  return {m.mont_mul(pt.x, z2_inv), m.mont_mul(pt.y, m.mont_mul(z2_inv, *z_inv)), false};
}

std::vector<FeAff> fe_to_affine_batch(const MontCtx& m, std::span<const FeJac> points) {
  std::vector<Fe> zs;
  zs.reserve(points.size());
  for (const auto& pt : points) {
    if (m.is_zero(pt.z)) throw std::domain_error("to_affine_batch: point at infinity");
    zs.push_back(pt.z);
  }
  const std::vector<Fe> z_invs = m.inv_batch_mont(zs);
  std::vector<FeAff> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Fe z2_inv = m.mont_sqr(z_invs[i]);
    out.push_back({m.mont_mul(points[i].x, z2_inv),
                   m.mont_mul(points[i].y, m.mont_mul(z2_inv, z_invs[i])), false});
  }
  return out;
}

// Width-4 signed-window recoding, least-significant digit first.
std::vector<int> wnaf4_digits(const BigUint& k) {
  constexpr int kWidth = 4;
  constexpr std::uint64_t kWindow = 1u << kWidth;     // 16
  constexpr std::uint64_t kHalfWindow = kWindow / 2;  // 8

  std::vector<int> digits;
  digits.reserve(k.bit_length() + 1);
  BigUint n = k;
  while (!n.is_zero()) {
    if (n.is_odd()) {
      const std::uint64_t mod = n.limb(0) & (kWindow - 1);
      int digit;
      if (mod >= kHalfWindow) {
        digit = static_cast<int>(mod) - static_cast<int>(kWindow);
        n += static_cast<std::uint64_t>(-digit);
      } else {
        digit = static_cast<int>(mod);
        n -= static_cast<std::uint64_t>(digit);
      }
      digits.push_back(digit);
    } else {
      digits.push_back(0);
    }
    n >>= 1;
  }
  return digits;
}

}  // namespace

Curve::Curve(const PrimeField& fld, BigUint a, BigUint b, BigUint order, BigUint cofactor)
    : field_(&fld),
      a_(std::move(a)),
      b_(std::move(b)),
      order_(std::move(order)),
      cofactor_(std::move(cofactor)),
      a_mont_(fld.to_mont(a_)) {}

bool Curve::is_on_curve(const Point& pt) const {
  if (pt.infinity) return true;
  const auto& f = *field_;
  const BigUint lhs = f.sqr(pt.y);
  const BigUint rhs = f.add(f.add(f.mul(f.sqr(pt.x), pt.x), f.mul(a_, pt.x)), b_);
  return lhs == rhs;
}

Point Curve::neg(const Point& pt) const {
  if (pt.infinity) return pt;
  return Point::affine(pt.x, field_->neg(pt.y));
}

Point Curve::add(const Point& lhs, const Point& rhs) const {
  if (lhs.infinity) return rhs;
  const MontCtx& m = field_->mont();
  const FeAff l = fe_import(*field_, lhs);
  const FeJac sum =
      fe_jac_add_mixed(m, a_mont_, FeJac{l.x, l.y, m.one_mont()}, fe_import(*field_, rhs));
  return fe_export(*field_, fe_to_affine(m, sum));
}

Point Curve::dbl(const Point& pt) const {
  if (pt.infinity) return Point::at_infinity();
  const MontCtx& m = field_->mont();
  const FeAff p = fe_import(*field_, pt);
  const FeJac twice = fe_jac_dbl(m, a_mont_, FeJac{p.x, p.y, m.one_mont()});
  return fe_export(*field_, fe_to_affine(m, twice));
}

Point Curve::mul(const BigUint& k, const Point& pt) const {
  if (pt.infinity || k.is_zero()) return Point::at_infinity();
  const MontCtx& m = field_->mont();
  const FeAff p = fe_import(*field_, pt);
  const auto double_and_add = [&] {
    FeJac acc = fe_jac_infinity(m);
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = fe_jac_dbl(m, a_mont_, acc);
      if (k.bit(i)) acc = fe_jac_add_mixed(m, a_mont_, acc, p);
    }
    return fe_export(*field_, fe_to_affine(m, acc));
  };
  // Tiny scalars: plain double-and-add beats table setup.
  if (k.bit_length() <= 8) return double_and_add();

  const std::vector<int> digits = wnaf4_digits(k);
  // Odd multiples 3P, 5P, 7P as 2kP + P: doublings and mixed adds only, so
  // the affine 2P (a whole extra inversion, ~30 µs at 8 limbs) is never
  // needed; one shared inversion converts the table for mixed additions.
  const FeJac p_jac{p.x, p.y, m.one_mont()};
  const FeJac t2 = fe_jac_dbl(m, a_mont_, p_jac);
  std::array<FeJac, 3> odd_jac{
      fe_jac_add_mixed(m, a_mont_, t2, p),                          // 3P
      fe_jac_add_mixed(m, a_mont_, fe_jac_dbl(m, a_mont_, t2), p),  // 5P = 4P + P
      FeJac{}};
  odd_jac[2] = fe_jac_add_mixed(m, a_mont_, fe_jac_dbl(m, a_mont_, odd_jac[0]), p);  // 7P
  // A base point of order 3, 5 or 7 collapses an odd multiple to O, which
  // the batch conversion cannot represent: fall back to plain
  // double-and-add, correct for every order.
  if (m.is_zero(odd_jac[0].z) || m.is_zero(odd_jac[1].z) || m.is_zero(odd_jac[2].z)) {
    return double_and_add();
  }
  const std::vector<FeAff> odd = fe_to_affine_batch(m, odd_jac);
  const std::array<FeAff, 4> table{p, odd[0], odd[1], odd[2]};

  FeJac acc = fe_jac_infinity(m);
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = fe_jac_dbl(m, a_mont_, acc);
    const int digit = digits[i];
    if (digit > 0) {
      acc = fe_jac_add_mixed(m, a_mont_, acc, table[static_cast<std::size_t>(digit) / 2]);
    } else if (digit < 0) {
      acc = fe_jac_add_mixed(m, a_mont_, acc,
                             fe_neg(m, table[static_cast<std::size_t>(-digit) / 2]));
    }
  }
  return fe_export(*field_, fe_to_affine(m, acc));
}

Point Curve::multi_mul(std::span<const BigUint> scalars, std::span<const Point> points) const {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("Curve::multi_mul: size mismatch");
  }
  const MontCtx& m = field_->mont();
  std::vector<FeAff> pts;
  pts.reserve(points.size());
  for (const auto& pt : points) pts.push_back(fe_import(*field_, pt));

  // Interleaved double-and-add (shared doubling chain).
  std::size_t max_bits = 0;
  for (const auto& s : scalars) max_bits = std::max(max_bits, s.bit_length());
  FeJac acc = fe_jac_infinity(m);
  for (std::size_t i = max_bits; i-- > 0;) {
    acc = fe_jac_dbl(m, a_mont_, acc);
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      if (scalars[j].bit(i)) acc = fe_jac_add_mixed(m, a_mont_, acc, pts[j]);
    }
  }
  return fe_export(*field_, fe_to_affine(m, acc));
}

std::optional<Point> Curve::lift_x(const BigUint& x, bool even_y) const {
  const auto& f = *field_;
  const BigUint xr = f.reduce(x);
  const BigUint rhs = f.add(f.add(f.mul(f.sqr(xr), xr), f.mul(a_, xr)), b_);
  const auto root = f.sqrt(rhs);
  if (!root) return std::nullopt;
  BigUint y = *root;
  if (y.is_odd() == even_y) y = f.neg(y);
  return Point::affine(xr, std::move(y));
}

std::vector<std::uint8_t> Curve::serialize(const Point& pt) const {
  if (pt.infinity) return {0x00};
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 * width);
  out.push_back(0x04);
  const auto xb = pt.x.to_bytes(width);
  const auto yb = pt.y.to_bytes(width);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<Point> Curve::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  if (bytes.size() != 1 + 2 * width || bytes[0] != 0x04) return std::nullopt;
  Point pt = Point::affine(BigUint::from_bytes(bytes.subspan(1, width)),
                           BigUint::from_bytes(bytes.subspan(1 + width, width)));
  if (pt.x >= field_->modulus() || pt.y >= field_->modulus()) return std::nullopt;
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

std::vector<std::uint8_t> Curve::serialize_compressed(const Point& pt) const {
  if (pt.infinity) return {0x00};
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  std::vector<std::uint8_t> out;
  out.reserve(1 + width);
  out.push_back(pt.y.is_odd() ? 0x03 : 0x02);
  const auto xb = pt.x.to_bytes(width);
  out.insert(out.end(), xb.begin(), xb.end());
  return out;
}

std::optional<Point> Curve::deserialize_compressed(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = (field_->modulus().bit_length() + 7) / 8;
  if (bytes.size() != 1 + width || (bytes[0] != 0x02 && bytes[0] != 0x03)) {
    return std::nullopt;
  }
  const BigUint x = BigUint::from_bytes(bytes.subspan(1));
  if (x >= field_->modulus()) return std::nullopt;
  return lift_x(x, /*even_y=*/bytes[0] == 0x02);
}

Point Curve::random_point(num::RandomSource& rng) const {
  while (true) {
    const BigUint x = field_->random(rng);
    if (auto pt = lift_x(x, rng.next_u64() & 1)) return *pt;
  }
}

}  // namespace seccloud::ec
