// Quadratic extension F_{p^2} = F_p[i] / (i^2 + 1), valid for p ≡ 3 (mod 4)
// (−1 is then a quadratic non-residue).  This is the target field of the
// modified Tate pairing: GT is the order-q subgroup of F_{p^2}^*.
#pragma once

#include <utility>

#include "field/fp.h"

namespace seccloud::field {

/// Element a + b·i of F_{p^2}: both components are Montgomery-domain
/// fixed::Fe residues, so == is value equality. Plain value type; all
/// arithmetic goes through the Fp2Field context. Build one from canonical
/// components with Fp2Field::element and read them back with
/// Fp2Field::coordinates.
struct Fp2 {
  fixed::Fe a;  ///< real part
  fixed::Fe b;  ///< imaginary part

  bool operator==(const Fp2&) const = default;
};

class Fp2Field {
 public:
  /// `base` must outlive this object; requires p ≡ 3 (mod 4).
  explicit Fp2Field(const PrimeField& base);

  const PrimeField& base() const noexcept { return *fp_; }

  Fp2 zero() const noexcept { return {}; }
  Fp2 one() const noexcept { return {fp_->mont().one_mont(), fixed::Fe{}}; }

  bool is_zero(const Fp2& x) const noexcept { return x == zero(); }
  bool is_one(const Fp2& x) const noexcept { return x == one(); }

  /// The canonical import: (a mod p) + (b mod p)·i for any non-negative a, b.
  Fp2 element(const BigUint& a, const BigUint& b) const {
    return {fp_->to_mont(a), fp_->to_mont(b)};
  }
  /// The canonical export: the residues (a, b) in [0, p).
  std::pair<BigUint, BigUint> coordinates(const Fp2& x) const {
    return {fp_->from_mont(x.a), fp_->from_mont(x.b)};
  }

  Fp2 add(const Fp2& x, const Fp2& y) const noexcept;
  Fp2 sub(const Fp2& x, const Fp2& y) const noexcept;
  Fp2 neg(const Fp2& x) const noexcept;
  /// Karatsuba: 3 base-field multiplications.
  Fp2 mul(const Fp2& x, const Fp2& y) const noexcept;
  /// (a+bi)^2 = (a+b)(a−b) + 2ab·i: 2 base-field multiplications.
  Fp2 sqr(const Fp2& x) const noexcept;
  /// Conjugate: a − b·i. This is the Frobenius x ↦ x^p in F_{p^2}.
  Fp2 conj(const Fp2& x) const noexcept;
  /// Inverse via the norm: (a+bi)^-1 = (a−bi)/(a²+b²). nullopt for 0.
  std::optional<Fp2> inv(const Fp2& x) const;
  /// Binary square-and-multiply ladder (the reference the GT chains are
  /// tested against).
  Fp2 pow(const Fp2& x, const BigUint& e) const;

  /// Uniform random element.
  Fp2 random(num::RandomSource& rng) const;

 private:
  const PrimeField* fp_;
};

}  // namespace seccloud::field
