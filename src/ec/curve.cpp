#include "ec/curve.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "bigint/wnaf.h"

namespace seccloud::ec {
namespace {

using field::fixed::Fe;
using field::fixed::MontCtx;

// Jacobian points with Montgomery-domain coordinates: every curve operation
// imports its affine inputs once (MontAffine), runs on these, and exports
// once.
struct FeJac {
  Fe x;
  Fe y;
  Fe z;  // z == 0 ⇒ infinity
};

FeJac fe_jac_infinity(const MontCtx& m) { return {m.one_mont(), m.one_mont(), Fe{}}; }

MontAffine fe_import(const PrimeField& f, const Point& pt) {
  if (pt.infinity) return {Fe{}, Fe{}, true};
  return {f.to_mont(pt.x), f.to_mont(pt.y), false};
}

Point fe_export(const PrimeField& f, const MontAffine& pt) {
  if (pt.inf) return Point::at_infinity();
  return Point::affine(f.from_mont(pt.x), f.from_mont(pt.y));
}

MontAffine fe_neg(const MontCtx& m, const MontAffine& pt) {
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

FeJac fe_jac_add_mixed(const MontCtx& m, const Fe& a_mont, const FeJac& lhs,
                       const MontAffine& rhs) {
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

MontAffine fe_to_affine(const MontCtx& m, const FeJac& pt) {
  if (m.is_zero(pt.z)) return {Fe{}, Fe{}, true};
  const auto z_inv = m.inv_mont(pt.z);
  if (!z_inv) throw std::domain_error("fe_to_affine: non-invertible z");
  const Fe z2_inv = m.mont_sqr(*z_inv);
  return {m.mont_mul(pt.x, z2_inv), m.mont_mul(pt.y, m.mont_mul(z2_inv, *z_inv)), false};
}

/// Affine forms of `points` with ONE shared inversion; points at infinity
/// (which a small-order base's odd multiples can be) stay infinity.
std::vector<MontAffine> fe_to_affine_batch(const MontCtx& m, std::span<const FeJac> points) {
  std::vector<Fe> zs;
  zs.reserve(points.size());
  for (const auto& pt : points) {
    if (!m.is_zero(pt.z)) zs.push_back(pt.z);
  }
  const std::vector<Fe> z_invs = m.inv_batch_mont(zs);
  std::vector<MontAffine> out;
  out.reserve(points.size());
  std::size_t next = 0;
  for (const auto& pt : points) {
    if (m.is_zero(pt.z)) {
      out.push_back({Fe{}, Fe{}, true});
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
void append_odd_multiples(const MontCtx& m, const Fe& a_mont, const MontAffine& p,
                          std::vector<FeJac>& out) {
  if (p.inf) {
    out.insert(out.end(), 3, fe_jac_infinity(m));
    return;
  }
  const FeJac t2 = fe_jac_dbl(m, a_mont, FeJac{p.x, p.y, m.one_mont()});
  const FeJac t3 = fe_jac_add_mixed(m, a_mont, t2, p);
  out.push_back(t3);
  out.push_back(fe_jac_add_mixed(m, a_mont, fe_jac_dbl(m, a_mont, t2), p));  // 5P = 4P + P
  out.push_back(fe_jac_add_mixed(m, a_mont, fe_jac_dbl(m, a_mont, t3), p));  // 7P = 6P + P
}

/// The Straus kernel: Σ_j (Σ_i digits[j][i]·2^i)·B_j over prepared
/// odd-multiple tables and wNAF digit rows (least-significant first), one
/// shared doubling chain, Jacobian result.
FeJac straus(const MontCtx& m, const Fe& a_mont, std::span<const MontAffine> odd,
             const std::vector<std::vector<std::int8_t>>& digits) {
  std::size_t len = 0;
  for (const auto& row : digits) len = std::max(len, row.size());
  FeJac acc = fe_jac_infinity(m);
  for (std::size_t i = len; i-- > 0;) {
    acc = fe_jac_dbl(m, a_mont, acc);
    for (std::size_t j = 0; j < digits.size(); ++j) {
      if (i >= digits[j].size() || digits[j][i] == 0) continue;
      const int digit = digits[j][i];
      const MontAffine& entry =
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
  const MontAffine l = fe_import(*field_, lhs);
  const FeJac sum =
      fe_jac_add_mixed(m, a_mont_, FeJac{l.x, l.y, m.one_mont()}, fe_import(*field_, rhs));
  return fe_export(*field_, fe_to_affine(m, sum));
}

Point Curve::dbl(const Point& pt) const {
  if (pt.infinity) return Point::at_infinity();
  const MontCtx& m = field_->mont();
  const MontAffine p = fe_import(*field_, pt);
  const FeJac twice = fe_jac_dbl(m, a_mont_, FeJac{p.x, p.y, m.one_mont()});
  return fe_export(*field_, fe_to_affine(m, twice));
}

Point Curve::mul(const BigUint& k, const Point& pt) const {
  if (pt.infinity || k.is_zero()) return Point::at_infinity();
  // Tiny scalars: plain double-and-add beats table setup.
  if (k.bit_length() <= 8) {
    const MontCtx& m = field_->mont();
    const MontAffine p = fe_import(*field_, pt);
    FeJac acc = fe_jac_infinity(m);
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = fe_jac_dbl(m, a_mont_, acc);
      if (k.bit(i)) acc = fe_jac_add_mixed(m, a_mont_, acc, p);
    }
    return fe_export(*field_, fe_to_affine(m, acc));
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
  const FeJac acc = straus(m, a_mont_, base.chunks_.odd_,
                           num::wnaf4_rows(k, FixedBaseTable::kChunkBits, base.chunks_.size()));
  return fe_export(*field_, fe_to_affine(m, acc));
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
  for (const Point& pt : addends) acc = fe_jac_add_mixed(m, a_mont_, acc, fe_import(*field_, pt));
  return fe_export(*field_, fe_to_affine(m, acc));
}

MsmTable::MsmTable(const Curve& curve, std::span<const Point> bases)
    : MsmTable(&curve, [&] {
        std::vector<MontAffine> imported;
        imported.reserve(bases.size());
        for (const Point& pt : bases) imported.push_back(fe_import(curve.fp(), pt));
        return imported;
      }()) {}

MsmTable::MsmTable(const Curve* curve, std::span<const MontAffine> bases) : curve_(curve) {
  const MontCtx& m = curve->fp().mont();
  std::vector<FeJac> odd_jac;  // 3P, 5P, 7P of every base
  odd_jac.reserve(3 * bases.size());
  odd_.reserve(kEntries * bases.size());
  for (const MontAffine& pt : bases) {
    odd_.push_back(pt);
    append_odd_multiples(m, curve->a_mont_, pt, odd_jac);
    odd_.resize(odd_.size() + 3);  // filled after the shared inversion
  }
  const std::vector<MontAffine> odd = fe_to_affine_batch(m, odd_jac);
  for (std::size_t i = 0; i < odd.size(); ++i) odd_[i / 3 * kEntries + 1 + i % 3] = odd[i];
}

FixedBaseTable::FixedBaseTable(const Curve& curve, const Point& base)
    : chunks_(&curve, chunk_bases(curve, base)) {}

std::vector<MontAffine> FixedBaseTable::chunk_bases(const Curve& curve, const Point& base) {
  const MontCtx& m = curve.fp().mont();
  const std::size_t count = (curve.order().bit_length() + kChunkBits - 1) / kChunkBits;
  const MontAffine p = fe_import(curve.fp(), base);
  FeJac acc = p.inf ? fe_jac_infinity(m) : FeJac{p.x, p.y, m.one_mont()};
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
