// Short-Weierstrass elliptic curves y^2 = x^3 + a·x + b over F_p.
//
// Used in two roles:
//   * the pairing group G1 (supersingular y^2 = x^3 + x, see src/pairing);
//   * the ECDSA baseline (NIST P-256, see ec/p256.h).
//
// Affine points are the public value type, with Montgomery-domain
// coordinates on the base field's fixed-limb core; add, dbl and scalar
// multiplication run in Jacobian coordinates on the same limbs. A point
// leaves the domain only as bytes (serialize/deserialize) or through the
// canonical import/export pair Curve::point/coordinates; the import reduces
// coordinates ≥ p.
//
// Every operation is exact for every on-curve input: O, zero scalars,
// repeated points, P with −P, and points outside the prime-order subgroup
// (small multiples of a base of order 2–7 hit O inside the window tables).
//
// Scalar multiplication is not constant-time (wNAF digits steer the adds);
// FixedBaseTable multiplication shares the same kernel and the same caveat.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "field/fp.h"

namespace seccloud::ec {

using field::BigUint;
using field::PrimeField;

/// Affine point with Montgomery-domain coordinates. The point at infinity is
/// {infinity = true} with zero coordinates, so == is value equality.
struct Point {
  field::fixed::Fe x;
  field::fixed::Fe y;
  bool infinity = true;

  static Point at_infinity() { return {}; }

  bool operator==(const Point&) const = default;
};

class Curve;

/// Base points prepared for Curve::multi_mul: each base's odd multiples
/// P, 3P, 5P, 7P in affine form, normalised with one shared inversion.
/// Prepare a set of bases once, then run any number of multi-scalar
/// multiplications over it.
class MsmTable {
 public:
  static constexpr std::size_t kEntries = 4;  ///< P, 3P, 5P, 7P per base

  /// `curve` must outlive the table.
  MsmTable(const Curve& curve, std::span<const Point> bases);
  std::size_t size() const noexcept { return odd_.size() / kEntries; }

 private:
  friend class Curve;

  const Curve* curve_;
  std::vector<Point> odd_;
};

/// A long-lived base prepared for repeated k·P: one MsmTable over the
/// chunk bases {2^(kChunkBits·j)·P : j < ⌈bits(order)/kChunkBits⌉}, so
/// k·P = Σ_j k_j·(2^(kChunkBits·j)·P), with k's wNAF digits dealt into one
/// row k_j per chunk, runs as one Straus pass whose shared doubling chain is
/// a chunk long instead of bits(order) long. Built with one doubling chain
/// and two shared inversions. The chunk width is sized for memory: a 160-bit
/// order needs 5 bases (2.7 KiB) at 32 bits against 20 at 8 bits (DESIGN.md
/// "Fixed-base signing").
class FixedBaseTable {
 public:
  static constexpr std::size_t kChunkBits = 32;

  /// `curve` must outlive the table.
  FixedBaseTable(const Curve& curve, const Point& base);
  /// Widest scalar Curve::mul accepts with this table, in bits.
  std::size_t span_bits() const noexcept { return kChunkBits * chunks_.size(); }
  /// Heap bytes of the prepared chunk bases.
  std::size_t bytes() const noexcept {
    return chunks_.size() * MsmTable::kEntries * sizeof(Point);
  }

 private:
  friend class Curve;
  static std::vector<Point> chunk_bases(const Curve& curve, const Point& base);

  MsmTable chunks_;
};

/// A curve instance: field, coefficients, subgroup order and cofactor.
class Curve {
 public:
  /// `field` must outlive the curve. `order` is the order of the subgroup of
  /// interest (prime q); `cofactor` is #E / order (may be large for the
  /// supersingular pairing curve).
  Curve(const PrimeField& fld, BigUint a, BigUint b, BigUint order, BigUint cofactor);

  const PrimeField& fp() const noexcept { return *field_; }
  const BigUint& a() const noexcept { return a_; }
  const BigUint& b() const noexcept { return b_; }
  const BigUint& order() const noexcept { return order_; }
  const BigUint& cofactor() const noexcept { return cofactor_; }

  /// The canonical import: the affine point (x mod p, y mod p), for any
  /// non-negative x, y. Not checked against the curve equation.
  Point point(const BigUint& x, const BigUint& y) const {
    return {field_->to_mont(x), field_->to_mont(y), false};
  }
  /// The canonical export: the affine coordinates in [0, p); (0, 0) for O.
  std::pair<BigUint, BigUint> coordinates(const Point& pt) const {
    return {field_->from_mont(pt.x), field_->from_mont(pt.y)};
  }

  /// Is the affine point on the curve (infinity counts as on-curve)?
  bool is_on_curve(const Point& pt) const;

  Point add(const Point& lhs, const Point& rhs) const;
  Point dbl(const Point& pt) const;
  Point neg(const Point& pt) const;
  /// Scalar multiplication k·P (width-4 wNAF over Jacobian coordinates).
  Point mul(const BigUint& k, const Point& pt) const;
  /// k·P over a prepared fixed base, equal to mul(k, P). Throws
  /// std::invalid_argument if k is wider than the table's span_bits().
  Point mul(const FixedBaseTable& base, const BigUint& k) const;

  /// Σ k_i·P_i (prepares the points, then the prepared-table overload).
  Point multi_mul(std::span<const BigUint> scalars, std::span<const Point> points) const;

  /// Σ k_i·B_i + Σ addends over prepared bases: one interleaved width-4
  /// wNAF (Straus) pass with a shared Jacobian doubling chain, the addends
  /// folded in by mixed additions, and one final inversion. scalars.size()
  /// must equal bases.size(); a zero scalar skips its base.
  Point multi_mul(const MsmTable& bases, std::span<const BigUint> scalars,
                  std::span<const Point> addends = {}) const;

  /// y^2 = x^3 + a·x + b solved for y (the lexicographically smaller root is
  /// returned if `even_y` else the other). nullopt if x is not on the curve.
  std::optional<Point> lift_x(const BigUint& x, bool even_y) const;

  /// Uncompressed serialization: 0x00 for infinity, else 0x04 ‖ X ‖ Y with
  /// fixed-width big-endian coordinates (two Montgomery reductions, no heap
  /// beyond the output).
  std::vector<std::uint8_t> serialize(const Point& pt) const;
  /// Inverse of serialize(); std::nullopt on malformed or off-curve input.
  std::optional<Point> deserialize(std::span<const std::uint8_t> bytes) const;

  /// SEC1-style compressed serialization: 0x00 for infinity, else
  /// (0x02 | y-parity) ‖ X — roughly halves signature transmission cost.
  std::vector<std::uint8_t> serialize_compressed(const Point& pt) const;
  std::optional<Point> deserialize_compressed(std::span<const std::uint8_t> bytes) const;

  /// Uniform random point in the full curve (hash-free; for tests).
  Point random_point(num::RandomSource& rng) const;

 private:
  friend class MsmTable;
  friend class FixedBaseTable;

  const PrimeField* field_;
  BigUint a_;
  BigUint b_;
  BigUint order_;
  BigUint cofactor_;
  field::fixed::Fe a_mont_;  ///< a in the Montgomery domain
  field::fixed::Fe b_mont_;  ///< b in the Montgomery domain
};

}  // namespace seccloud::ec
