// Fixed-limb Montgomery arithmetic for F_p — the hot-path numeric core.
//
// Every SecCloud audit bottoms out in 512-bit F_p multiplications inside the
// Tate pairing. This core is the only field arithmetic behind PrimeField: it
// represents a field element as a fixed-capacity stack array of 64-bit limbs
// (N ≤ 8, N = 8 for the pinned 512-bit prime) and multiplies with CIOS
// Montgomery multiplication, so an entire Miller loop runs without touching
// the heap.
//
// Domain conventions (see DESIGN.md §11):
//   * canonical domain: a residue x in [0, p), limbs little-endian;
//   * Montgomery domain: x̃ = x·R mod p with R = 2^(64·N).
// mont_mul(ã, b̃) = a·b·R mod p keeps the domain closed; mont_mul on two
// *canonical* residues yields a·b·R⁻¹, which `mul_canonical` repairs with one
// extra multiplication by R² — that identity is what lets PrimeField serve
// its BigUint-facing API without converting operands into the domain.
//
// add/sub/neg are domain-agnostic (exact mod-p maps) and constant-shape: no
// value-dependent branches, conditional subtraction via limb masks. The core
// is *not* a hardened constant-time library — table lookups in pow are
// indexed by exponent windows — but the arithmetic itself avoids the obvious
// operand-dependent control flow.
//
// BigUint remains at the boundary: constants (R mod p, R² mod p) are derived
// from BigUint division at context construction, and conversions go through
// from_biguint/to_biguint. Moduli wider than kMaxLimbs are not fields here at
// all — RSA and parameter generation use plain BigUint arithmetic. The test
// reference lives in tests/textbook_oracle.h.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bigint/biguint.h"

namespace seccloud::field::fixed {

/// Capacity ceiling: 8×64 = 512 bits covers the pinned SS512 prime, P-256,
/// and the tiny test parameters. Wider moduli are rejected.
inline constexpr std::size_t kMaxLimbs = 8;

/// A fixed-capacity field element (little-endian limbs). Limbs at or beyond
/// the owning context's width are always zero. Plain value type — all
/// arithmetic goes through MontCtx.
struct Fe {
  std::array<std::uint64_t, kMaxLimbs> w{};

  bool operator==(const Fe&) const = default;
};

/// Montgomery context for one odd modulus p with limb_count(p) ≤ kMaxLimbs.
/// Owns the precomputed constants (R mod p, R² mod p, −p⁻¹ mod 2^64) and the
/// width-specialized multiplication kernels.
class MontCtx {
 public:
  /// Throws std::invalid_argument if p is even, < 3, or wider than kMaxLimbs.
  explicit MontCtx(const num::BigUint& p);

  /// True iff a context can be built for this modulus.
  static bool fits(const num::BigUint& p) noexcept;

  std::size_t limbs() const noexcept { return n_; }
  const num::BigUint& modulus() const noexcept { return p_big_; }

  // --- boundary conversions (BigUint is authoritative here) -------------
  /// Canonical residue → Fe. Requires x < p (checked; throws
  /// std::invalid_argument otherwise).
  Fe from_biguint(const num::BigUint& x) const;
  /// Unchecked variant for callers that already hold a residue in [0, p).
  Fe load(const num::BigUint& x) const noexcept;
  num::BigUint to_biguint(const Fe& x) const;

  /// x → x·R mod p (canonical → Montgomery).
  Fe to_mont(const Fe& x) const noexcept { return mont_mul(x, r2_); }
  /// x̃ → x̃·R⁻¹ mod p (Montgomery → canonical).
  Fe from_mont(const Fe& x) const noexcept { return mont_mul(x, one_); }

  // --- domain-agnostic ops (exact mod-p arithmetic on residues < p) -----
  Fe zero() const noexcept { return {}; }
  /// 1 in the Montgomery domain (R mod p).
  const Fe& one_mont() const noexcept { return r1_; }
  bool is_zero(const Fe& x) const noexcept;

  /// (a + b) mod p; constant shape (mask-selected conditional subtract).
  Fe add(const Fe& a, const Fe& b) const noexcept;
  /// (a − b) mod p; constant shape (mask-selected add-back of p).
  Fe sub(const Fe& a, const Fe& b) const noexcept;
  /// (−a) mod p; constant shape.
  Fe neg(const Fe& a) const noexcept;
  /// (a·k) mod p for a machine word k, via a double-and-add chain over the
  /// bits of k. Meant for the small curve constants (2, 3, 4, 8); stays in
  /// whatever domain `a` is in.
  Fe mul_word(const Fe& a, std::uint64_t k) const noexcept;

  // --- Montgomery ops ----------------------------------------------------
  /// a·b·R⁻¹ mod p (CIOS). Closed on the Montgomery domain.
  Fe mont_mul(const Fe& a, const Fe& b) const noexcept;
  /// a²·R⁻¹ mod p — specialized squaring (half the partial products).
  Fe mont_sqr(const Fe& a) const noexcept;
  /// a·b mod p for *canonical* residues: mont_mul twice (the R² repair).
  Fe mul_canonical(const Fe& a, const Fe& b) const noexcept {
    return mont_mul(mont_mul(a, b), r2_);
  }
  Fe sqr_canonical(const Fe& a) const noexcept {
    return mont_mul(mont_sqr(a), r2_);
  }

  /// x̃^e in-domain (fixed 4-bit-window exponentiation): takes and returns
  /// Montgomery-domain values; x̃^0 = 1̃.
  Fe pow_mont(const Fe& x, const num::BigUint& e) const;

  /// In-domain inverse via binary extended Euclid (HAC 14.61) on the
  /// canonical value. Zero — or any x with gcd(x, p) > 1 under a composite
  /// modulus — yields std::nullopt rather than a wrong value.
  std::optional<Fe> inv_mont(const Fe& x) const;

  /// Batched in-domain inversion (Montgomery's trick): one inv_mont plus
  /// 3(n−1) multiplications. Throws std::domain_error on any zero element.
  std::vector<Fe> inv_batch_mont(std::span<const Fe> xs) const;

 private:
  using MulKernel = void (*)(const std::uint64_t*, const std::uint64_t*,
                             const std::uint64_t*, std::uint64_t, std::uint64_t*);
  using SqrKernel = void (*)(const std::uint64_t*, const std::uint64_t*,
                             std::uint64_t, std::uint64_t*);

  std::size_t n_;                                ///< limb width of p
  std::array<std::uint64_t, kMaxLimbs> p_{};     ///< modulus limbs
  std::uint64_t n0_;                             ///< −p⁻¹ mod 2^64
  Fe r1_;                                        ///< R mod p (1 in Mont domain)
  Fe r2_;                                        ///< R² mod p
  Fe one_;                                       ///< canonical 1
  MulKernel mul_kernel_;                         ///< CIOS, unrolled for n_
  SqrKernel sqr_kernel_;                         ///< squaring, unrolled for n_
  num::BigUint p_big_;
};

// --- inline hot-path implementations -------------------------------------
// add/sub/neg and the kernel trampolines are a handful of nanoseconds each;
// keeping them header-visible lets the curve/pairing inner loops inline them
// instead of paying a cross-TU call per operation.

namespace detail {
using uint128 = unsigned __int128;
}

// The loops below run over the full kMaxLimbs width instead of n_: limbs
// beyond n_ are zero in every Fe and in p_, so the results are identical,
// and the constant trip count lets the compiler fully unroll the carry
// chains (a runtime-width loop defeats that and roughly doubles the cost).

inline bool MontCtx::is_zero(const Fe& x) const noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) acc |= x.w[i];
  return acc == 0;
}

inline Fe MontCtx::add(const Fe& a, const Fe& b) const noexcept {
  std::uint64_t t[kMaxLimbs + 1];
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const detail::uint128 cur = static_cast<detail::uint128>(a.w[i]) + b.w[i] + carry;
    t[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  t[kMaxLimbs] = carry;  // a + b < 2p, so one conditional subtraction suffices
  Fe out;
  std::uint64_t d[kMaxLimbs];
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const detail::uint128 diff = static_cast<detail::uint128>(t[i]) - p_[i] - borrow;
    d[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1u;
  }
  // Subtract iff the top limb overflowed or the low limbs did not borrow.
  const std::uint64_t need = t[kMaxLimbs] | (borrow ^ 1u);
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(need != 0);
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    out.w[i] = (d[i] & mask) | (t[i] & ~mask);
  }
  return out;
}

inline Fe MontCtx::sub(const Fe& a, const Fe& b) const noexcept {
  Fe out;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const detail::uint128 diff = static_cast<detail::uint128>(a.w[i]) - b.w[i] - borrow;
    out.w[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1u;
  }
  // Add p back iff the subtraction wrapped (mask-selected).
  const std::uint64_t mask = 0 - borrow;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const detail::uint128 cur =
        static_cast<detail::uint128>(out.w[i]) + (p_[i] & mask) + carry;
    out.w[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  return out;
}

inline Fe MontCtx::neg(const Fe& a) const noexcept {
  // p − a, masked to zero when a = 0 (p itself is not a residue).
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(!is_zero(a));
  Fe out;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const detail::uint128 diff = static_cast<detail::uint128>(p_[i]) - a.w[i] - borrow;
    out.w[i] = static_cast<std::uint64_t>(diff) & mask;
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1u;
  }
  return out;
}

inline Fe MontCtx::mul_word(const Fe& a, std::uint64_t k) const noexcept {
  if (k == 0) return {};
  Fe acc{};
  bool started = false;
  for (int i = 63 - __builtin_clzll(k); i >= 0; --i) {
    if (started) acc = add(acc, acc);
    if ((k >> i) & 1u) {
      acc = started ? add(acc, a) : a;
      started = true;
    }
  }
  return acc;
}

inline Fe MontCtx::mont_mul(const Fe& a, const Fe& b) const noexcept {
  Fe out;
  mul_kernel_(a.w.data(), b.w.data(), p_.data(), n0_, out.w.data());
  return out;
}

inline Fe MontCtx::mont_sqr(const Fe& a) const noexcept {
  Fe out;
  sqr_kernel_(a.w.data(), p_.data(), n0_, out.w.data());
  return out;
}

}  // namespace seccloud::field::fixed
