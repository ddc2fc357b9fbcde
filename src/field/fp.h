// Prime field F_p arithmetic.
//
// Context-object style: a PrimeField owns the modulus and reduction
// machinery. All multiplicative arithmetic runs on the fixed-limb Montgomery
// core (field/fp_fixed.h), so the modulus must fit in 8×64 bits.
//
// The values built on this field (ec::Point coordinates, Fp2 components) are
// Montgomery-domain fixed::Fe limbs for their whole life (DESIGN.md §11).
// They leave the domain only through encode()/decode() (big-endian bytes)
// and to_mont()/from_mont() (the canonical BigUint import/export behind
// Curve::point/coordinates and Fp2Field::element/coordinates). The BigUint
// API below serves parameter setup, lift_x and the micro-benchmarks; mul,
// sqr, pow, inv and to_mont reduce an input ≥ p on import, so they accept
// any non-negative integer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bigint/biguint.h"
#include "bigint/modular.h"
#include "bigint/rng.h"
#include "field/fp_fixed.h"

namespace seccloud::field {

using num::BigUint;

class PrimeField {
 public:
  /// `p` must be an odd prime (not verified here; callers pass verified or
  /// pinned parameters). Throws std::invalid_argument if p < 3, even, or
  /// wider than fixed::kMaxLimbs limbs.
  explicit PrimeField(BigUint p);

  const BigUint& modulus() const noexcept { return p_; }
  std::size_t limb_count() const noexcept { return k_; }

  /// The fixed-limb Montgomery core every curve and pairing value runs on.
  const fixed::MontCtx& mont() const noexcept { return mont_; }

  /// Reduces an arbitrary non-negative integer into [0, p). Uses Barrett
  /// reduction when x < p^2, a full division otherwise. (BigUint arithmetic:
  /// inputs may be arbitrarily wide.)
  BigUint reduce(const BigUint& x) const;

  /// x mod p in the Montgomery domain; x is reduced only when x ≥ p.
  fixed::Fe to_mont(const BigUint& x) const { return mont_.to_mont(load(x)); }
  /// Montgomery-domain x̃ → canonical residue.
  BigUint from_mont(const fixed::Fe& x) const { return mont_.to_biguint(mont_.from_mont(x)); }

  /// Bytes of one encoded element: ⌈bits(p)/8⌉.
  std::size_t byte_width() const noexcept { return (p_.bit_length() + 7) / 8; }
  /// Appends the canonical residue of the Montgomery-domain x̃ as
  /// byte_width() big-endian bytes.
  void encode(const fixed::Fe& x, std::vector<std::uint8_t>& out) const;
  /// byte_width() big-endian bytes → Montgomery-domain element; std::nullopt
  /// on a wrong width or a residue ≥ p.
  std::optional<fixed::Fe> decode(std::span<const std::uint8_t> bytes) const;

  BigUint add(const BigUint& a, const BigUint& b) const;
  BigUint neg(const BigUint& a) const;
  BigUint mul(const BigUint& a, const BigUint& b) const;
  BigUint sqr(const BigUint& a) const;

  /// a^e mod p.
  BigUint pow(const BigUint& a, const BigUint& e) const;

  /// Multiplicative inverse; std::nullopt for 0.
  std::optional<BigUint> inv(const BigUint& a) const;

  /// Square root of a quadratic residue; std::nullopt for non-residues.
  /// p ≡ 3 (mod 4) uses the a^((p+1)/4) shortcut; p ≡ 1 (mod 4) runs
  /// Tonelli–Shanks. Throws std::logic_error only if no quadratic
  /// non-residue could be found at construction (non-prime modulus).
  std::optional<BigUint> sqrt(const BigUint& a) const;

  /// Uniform element of [0, p).
  BigUint random(num::RandomSource& rng) const { return rng.next_below(p_); }

  bool is_three_mod_four() const noexcept { return p_three_mod_four_; }

 private:
  BigUint p_;
  BigUint mu_;             ///< Barrett constant: floor(B^{2k} / p), B = 2^64.
  BigUint sqrt_exponent_;  ///< (p+1)/4 when p ≡ 3 (mod 4).
  std::size_t k_;          ///< Limb count of p.
  bool p_three_mod_four_;
  fixed::MontCtx mont_;

  /// x mod p as a canonical-domain Fe; x is reduced only when x ≥ p.
  fixed::Fe load(const BigUint& x) const {
    return x < p_ ? mont_.load(x) : mont_.load(reduce(x));
  }

  // Tonelli–Shanks precomputation (p ≡ 1 (mod 4) only): p − 1 = q·2^s and a
  // quadratic non-residue z. ts_ready_ is false when no non-residue was
  // found (non-prime modulus); sqrt then throws.
  BigUint ts_q_;
  std::size_t ts_s_ = 0;
  BigUint ts_z_;
  bool ts_ready_ = false;
};

}  // namespace seccloud::field
