#include "ec/curve.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "bigint/wnaf.h"

namespace seccloud::ec {
namespace {

using field::fixed::Fe;
using field::fixed::MontCtx;

// Jacobian points on the same Montgomery-domain limbs as Point.
struct FeJac {
  Fe x;
  Fe y;
  Fe z;  // z == 0 ⇒ infinity
};

FeJac fe_jac_infinity(const MontCtx& m) { return {m.one_mont(), m.one_mont(), Fe{}}; }

FeJac fe_jac(const MontCtx& m, const Point& pt) {
  return pt.infinity ? fe_jac_infinity(m) : FeJac{pt.x, pt.y, m.one_mont()};
}

Point fe_neg(const MontCtx& m, const Point& pt) {
  if (pt.infinity) return pt;
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

FeJac fe_jac_add_mixed(const MontCtx& m, const Fe& a_mont, const FeJac& lhs,
                       const Point& rhs) {
  if (rhs.infinity) return lhs;
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

Point fe_to_affine(const MontCtx& m, const FeJac& pt) {
  if (m.is_zero(pt.z)) return Point::at_infinity();
  const auto z_inv = m.inv_mont(pt.z);
  if (!z_inv) throw std::domain_error("fe_to_affine: non-invertible z");
  const Fe z2_inv = m.mont_sqr(*z_inv);
  return {m.mont_mul(pt.x, z2_inv), m.mont_mul(pt.y, m.mont_mul(z2_inv, *z_inv)), false};
}

/// Affine forms of `points` with ONE shared inversion; points at infinity
/// (which a small-order base's odd multiples can be) stay infinity.
std::vector<Point> fe_to_affine_batch(const MontCtx& m, std::span<const FeJac> points) {
  std::vector<Fe> zs;
  zs.reserve(points.size());
  for (const auto& pt : points) {
    if (!m.is_zero(pt.z)) zs.push_back(pt.z);
  }
  const std::vector<Fe> z_invs = m.inv_batch_mont(zs);
  std::vector<Point> out;
  out.reserve(points.size());
  std::size_t next = 0;
  for (const auto& pt : points) {
    if (m.is_zero(pt.z)) {
      out.push_back(Point::at_infinity());
      continue;
    }
    const Fe& z_inv = z_invs[next++];
    const Fe z2_inv = m.mont_sqr(z_inv);
    out.push_back({m.mont_mul(pt.x, z2_inv), m.mont_mul(pt.y, m.mont_mul(z2_inv, z_inv)),
                   false});
  }
  return out;
}

/// Appends the Jacobian odd multiples 3P, 5P, 7P of `p`, built as 2kP + P
/// with doublings and mixed adds only, so the affine 2P (a whole extra
/// inversion) is never needed. A base of order 3, 5 or 7 yields O entries.
void append_odd_multiples(const MontCtx& m, const Fe& a_mont, const Point& p,
                          std::vector<FeJac>& out) {
  if (p.infinity) {
    out.insert(out.end(), 3, fe_jac_infinity(m));
    return;
  }
  const FeJac t2 = fe_jac_dbl(m, a_mont, fe_jac(m, p));
  const FeJac t3 = fe_jac_add_mixed(m, a_mont, t2, p);
  out.push_back(t3);
  out.push_back(fe_jac_add_mixed(m, a_mont, fe_jac_dbl(m, a_mont, t2), p));  // 5P = 4P + P
  out.push_back(fe_jac_add_mixed(m, a_mont, fe_jac_dbl(m, a_mont, t3), p));  // 7P = 6P + P
}

/// The Straus kernel: Σ_j (Σ_i digits[j][i]·2^i)·B_j over prepared
/// odd-multiple tables and wNAF digit rows (least-significant first), one
/// shared doubling chain, Jacobian result.
FeJac straus(const MontCtx& m, const Fe& a_mont, std::span<const Point> odd,
             const std::vector<std::vector<std::int8_t>>& digits) {
  std::size_t len = 0;
  for (const auto& row : digits) len = std::max(len, row.size());
  FeJac acc = fe_jac_infinity(m);
  for (std::size_t i = len; i-- > 0;) {
    acc = fe_jac_dbl(m, a_mont, acc);
    for (std::size_t j = 0; j < digits.size(); ++j) {
      if (i >= digits[j].size() || digits[j][i] == 0) continue;
      const int digit = digits[j][i];
      const Point& entry =
          odd[j * MsmTable::kEntries + static_cast<std::size_t>(digit > 0 ? digit : -digit) / 2];
      acc = fe_jac_add_mixed(m, a_mont, acc, digit > 0 ? entry : fe_neg(m, entry));
    }
  }
  return acc;
}

}  // namespace

Curve::Curve(const PrimeField& fld, BigUint a, BigUint b, BigUint order, BigUint cofactor)
    : field_(&fld),
      a_(std::move(a)),
      b_(std::move(b)),
      order_(std::move(order)),
      cofactor_(std::move(cofactor)),
      a_mont_(fld.to_mont(a_)),
      b_mont_(fld.to_mont(b_)) {}

bool Curve::is_on_curve(const Point& pt) const {
  if (pt.infinity) return true;
  const MontCtx& m = field_->mont();
  const Fe x2 = m.mont_sqr(pt.x);
  const Fe rhs = m.add(m.mont_mul(m.add(x2, a_mont_), pt.x), b_mont_);  // (x² + a)·x + b
  return m.mont_sqr(pt.y) == rhs;
}

Point Curve::neg(const Point& pt) const { return fe_neg(field_->mont(), pt); }

Point Curve::add(const Point& lhs, const Point& rhs) const {
  if (lhs.infinity) return rhs;
  const MontCtx& m = field_->mont();
  return fe_to_affine(m, fe_jac_add_mixed(m, a_mont_, fe_jac(m, lhs), rhs));
}

Point Curve::dbl(const Point& pt) const {
  if (pt.infinity) return pt;
  const MontCtx& m = field_->mont();
  return fe_to_affine(m, fe_jac_dbl(m, a_mont_, fe_jac(m, pt)));
}

Point Curve::mul(const BigUint& k, const Point& pt) const {
  if (pt.infinity || k.is_zero()) return Point::at_infinity();
  // Tiny scalars: plain double-and-add beats table setup.
  if (k.bit_length() <= 8) {
    const MontCtx& m = field_->mont();
    FeJac acc = fe_jac_infinity(m);
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = fe_jac_dbl(m, a_mont_, acc);
      if (k.bit(i)) acc = fe_jac_add_mixed(m, a_mont_, acc, pt);
    }
    return fe_to_affine(m, acc);
  }
  return multi_mul(MsmTable{*this, {&pt, 1}}, {&k, 1});
}

Point Curve::mul(const FixedBaseTable& base, const BigUint& k) const {
  if (base.chunks_.curve_ != this) {
    throw std::invalid_argument("Curve::mul: table prepared on another curve");
  }
  if (k.bit_length() > base.span_bits()) {
    throw std::invalid_argument("Curve::mul: scalar wider than the fixed-base table");
  }
  const MontCtx& m = field_->mont();
  return fe_to_affine(m, straus(m, a_mont_, base.chunks_.odd_,
                                num::wnaf4_rows(k, FixedBaseTable::kChunkBits,
                                                base.chunks_.size())));
}

Point Curve::multi_mul(std::span<const BigUint> scalars, std::span<const Point> points) const {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("Curve::multi_mul: size mismatch");
  }
  return multi_mul(MsmTable{*this, points}, scalars);
}

Point Curve::multi_mul(const MsmTable& bases, std::span<const BigUint> scalars,
                       std::span<const Point> addends) const {
  if (bases.curve_ != this) {
    throw std::invalid_argument("Curve::multi_mul: table prepared on another curve");
  }
  if (scalars.size() != bases.size()) {
    throw std::invalid_argument("Curve::multi_mul: size mismatch");
  }
  std::vector<std::vector<std::int8_t>> digits(scalars.size());
  for (std::size_t j = 0; j < scalars.size(); ++j) {
    if (!scalars[j].is_zero()) digits[j] = num::wnaf4_digits(scalars[j]);
  }
  const MontCtx& m = field_->mont();
  FeJac acc = straus(m, a_mont_, bases.odd_, digits);
  for (const Point& pt : addends) acc = fe_jac_add_mixed(m, a_mont_, acc, pt);
  return fe_to_affine(m, acc);
}

MsmTable::MsmTable(const Curve& curve, std::span<const Point> bases) : curve_(&curve) {
  const MontCtx& m = curve.fp().mont();
  std::vector<FeJac> odd_jac;  // 3P, 5P, 7P of every base
  odd_jac.reserve(3 * bases.size());
  odd_.reserve(kEntries * bases.size());
  for (const Point& pt : bases) {
    odd_.push_back(pt);
    append_odd_multiples(m, curve.a_mont_, pt, odd_jac);
    odd_.resize(odd_.size() + 3);  // filled after the shared inversion
  }
  const std::vector<Point> odd = fe_to_affine_batch(m, odd_jac);
  for (std::size_t i = 0; i < odd.size(); ++i) odd_[i / 3 * kEntries + 1 + i % 3] = odd[i];
}

FixedBaseTable::FixedBaseTable(const Curve& curve, const Point& base)
    : chunks_(curve, chunk_bases(curve, base)) {}

std::vector<Point> FixedBaseTable::chunk_bases(const Curve& curve, const Point& base) {
  const MontCtx& m = curve.fp().mont();
  const std::size_t count = (curve.order().bit_length() + kChunkBits - 1) / kChunkBits;
  FeJac acc = fe_jac(m, base);
  std::vector<FeJac> jac;
  jac.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    if (j > 0) {
      for (std::size_t d = 0; d < kChunkBits; ++d) acc = fe_jac_dbl(m, curve.a_mont_, acc);
    }
    jac.push_back(acc);
  }
  return fe_to_affine_batch(m, jac);
}

std::optional<Point> Curve::lift_x(const BigUint& x, bool even_y) const {
  const auto& f = *field_;
  const BigUint xr = f.reduce(x);
  const BigUint rhs = f.add(f.add(f.mul(f.sqr(xr), xr), f.mul(a_, xr)), b_);
  const auto root = f.sqrt(rhs);
  if (!root) return std::nullopt;
  BigUint y = *root;
  if (y.is_odd() == even_y) y = f.neg(y);
  return point(xr, y);
}

std::vector<std::uint8_t> Curve::serialize(const Point& pt) const {
  if (pt.infinity) return {0x00};
  std::vector<std::uint8_t> out;
  out.reserve(1 + 2 * field_->byte_width());
  out.push_back(0x04);
  field_->encode(pt.x, out);
  field_->encode(pt.y, out);
  return out;
}

std::optional<Point> Curve::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = field_->byte_width();
  if (bytes.size() != 1 + 2 * width || bytes[0] != 0x04) return std::nullopt;
  const auto x = field_->decode(bytes.subspan(1, width));
  const auto y = field_->decode(bytes.subspan(1 + width, width));
  if (!x || !y) return std::nullopt;
  const Point pt{*x, *y, false};
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

std::vector<std::uint8_t> Curve::serialize_compressed(const Point& pt) const {
  if (pt.infinity) return {0x00};
  const bool odd_y = (field_->mont().from_mont(pt.y).w[0] & 1u) != 0;
  std::vector<std::uint8_t> out;
  out.reserve(1 + field_->byte_width());
  out.push_back(odd_y ? 0x03 : 0x02);
  field_->encode(pt.x, out);
  return out;
}

std::optional<Point> Curve::deserialize_compressed(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() == 1 && bytes[0] == 0x00) return Point::at_infinity();
  const std::size_t width = field_->byte_width();
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
