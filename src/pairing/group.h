// The pairing engine: G1 (order-q subgroup of a supersingular curve),
// GT (order-q subgroup of F_{p^2}^*), and the modified Tate pairing
// ê: G1 × G1 → GT computed with Miller's algorithm in Jacobian coordinates
// with denominator elimination (vertical lines lie in the subfield F_p and
// are annihilated by the final exponentiation (p²−1)/q = (p−1)·h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ec/curve.h"
#include "field/fp2.h"
#include "pairing/op_counters.h"
#include "pairing/params.h"

namespace seccloud::obs {
class MetricsRegistry;
}  // namespace seccloud::obs

namespace seccloud::pairing {

using ec::Point;
using field::Fp2;
using num::BigUint;

/// GT element (unitary norm-1 element of F_{p^2} of order dividing q).
using Gt = Fp2;

class PairingGroup;

/// Unitary GT bases prepared for PairingGroup::gt_multi_pow: each base's odd
/// powers g, g³, g⁵, g⁷ (one squaring and three multiplications per base).
/// Every base must be unitary (a pairing value or a product of them): the
/// multi-exponentiation takes the conjugate as the inverse. Prepare a set of
/// bases once, then run any number of multi-exponentiations over it.
class GtPowTable {
 public:
  static constexpr std::size_t kEntries = 4;  ///< g, g³, g⁵, g⁷ per base

  GtPowTable(const PairingGroup& group, std::span<const Gt> bases);
  std::size_t size() const noexcept { return odd_.size() / kEntries; }

 private:
  friend class PairingGroup;

  std::vector<Gt> odd_;
};

/// A long-lived unitary base prepared for repeated g^e, the GT counterpart
/// of ec::FixedBaseTable: one GtPowTable over the chunk bases
/// {g^(2^(kChunkBits·j)) : j < ⌈bits(q)/kChunkBits⌉}, built with one
/// squaring chain. PairingGroup::gt_pow(comb, e) deals e's wNAF digits into
/// one row per chunk base and runs gt_multi_pow's signed chain over them, so
/// the shared squaring chain is a chunk long instead of bits(e) long. The
/// base must be unitary (a pairing value), since a negative digit takes the
/// conjugate.
class GtComb {
 public:
  static constexpr std::size_t kChunkBits = 32;

  /// `group` must outlive the comb.
  GtComb(const PairingGroup& group, const Gt& base);
  /// Widest exponent PairingGroup::gt_pow accepts with this comb, in bits.
  std::size_t span_bits() const noexcept { return kChunkBits * chunks_.size(); }
  /// Heap bytes of the prepared chunk bases.
  std::size_t bytes() const noexcept {
    return chunks_.size() * GtPowTable::kEntries * sizeof(Gt);
  }

 private:
  friend class PairingGroup;
  static std::vector<Gt> chunk_bases(const PairingGroup& group, const Gt& base);

  const PairingGroup* group_;
  GtPowTable chunks_;
};

class PairingGroup {
 public:
  explicit PairingGroup(const TypeAParams& params);

  const TypeAParams& params() const noexcept { return params_; }
  const field::PrimeField& fp() const noexcept { return *fp_; }
  const field::Fp2Field& fp2() const noexcept { return *fp2_; }
  const ec::Curve& curve() const noexcept { return *curve_; }
  /// Prime group order q.
  const BigUint& order() const noexcept { return params_.q; }
  /// Deterministic system generator P of G1.
  const Point& generator() const noexcept { return generator_; }

  // --- G1 -------------------------------------------------------------
  Point add(const Point& a, const Point& b) const { return curve_->add(a, b); }
  Point neg(const Point& a) const { return curve_->neg(a); }
  Point mul(const BigUint& k, const Point& a) const {
    counters_.point_muls.fetch_add(1, std::memory_order_relaxed);
    ++tls_op_counters().point_muls;
    return curve_->mul(k, a);
  }
  /// k·P over a prepared fixed base (ec::Curve::mul); counts one point_mul,
  /// exactly like mul(k, P).
  Point mul(const ec::FixedBaseTable& base, const BigUint& k) const {
    counters_.point_muls.fetch_add(1, std::memory_order_relaxed);
    ++tls_op_counters().point_muls;
    return curve_->mul(base, k);
  }
  /// Σ k_i·B_i + Σ addends over prepared bases (one Straus pass, see
  /// ec::Curve::multi_mul). Counts one msm_term per nonzero scalar; the
  /// addends and zero scalars are free.
  Point multi_mul(const ec::MsmTable& bases, std::span<const BigUint> scalars,
                  std::span<const Point> addends = {}) const;
  /// Uniform scalar in [1, q).
  BigUint random_scalar(num::RandomSource& rng) const {
    return rng.next_nonzero_below(params_.q);
  }
  /// Hash-to-G1 (H1 in the paper): try-and-increment on x, then cofactor
  /// clearing, so the result has order dividing q (and order exactly q
  /// except with negligible probability).
  Point hash_to_g1(std::string_view tag, std::span<const std::uint8_t> data) const;
  Point hash_to_g1(std::string_view tag, std::string_view data) const;

  /// Membership test: on curve and q·P = O.
  bool in_g1(const Point& pt) const;

  // --- pairing ----------------------------------------------------------
  /// Modified Tate pairing ê(P, Q) = e(P, φ(Q))^((p²−1)/q).
  /// ê(O, Q) = ê(P, O) = 1.
  Gt pair(const Point& p, const Point& q) const;

  /// Π ê(P_i, Q_i) with a single shared final exponentiation.
  Gt pair_product(std::span<const std::pair<Point, Point>> pairs) const;

  /// Miller loop only (no final exponentiation) — the building block shared
  /// by pair_product, the fixed-argument precomputation, and the parallel
  /// engine. Inputs must be finite points. Counts one miller_loop.
  Fp2 miller(const Point& p, const Point& q) const;

  /// Final exponentiation f^((p²−1)/q): one norm inversion for the easy
  /// part, then the unitary signed chain over h's digits for the hard part.
  /// Counts one final_exp; finalize(0) is 1.
  Gt finalize(const Fp2& f) const;

  // --- GT ---------------------------------------------------------------
  Gt gt_one() const { return fp2_->one(); }
  bool gt_is_one(const Gt& x) const { return fp2_->is_one(x); }
  Gt gt_mul(const Gt& x, const Gt& y) const { return fp2_->mul(x, y); }
  /// GT elements are unitary after the final exponentiation, so the inverse
  /// is the conjugate.
  Gt gt_inv(const Gt& x) const { return fp2_->conj(x); }
  Gt gt_pow(const Gt& x, const BigUint& e) const {
    counters_.gt_exps.fetch_add(1, std::memory_order_relaxed);
    ++tls_op_counters().gt_exps;
    return fp2_->pow(x, e);
  }
  /// g^e over a prepared comb, equal to gt_pow(g, e) for the comb's unitary
  /// base g; counts one gt_exp, exactly like gt_pow(g, e). Throws
  /// std::invalid_argument if e is wider than the comb's span_bits() or the
  /// comb was prepared on another group.
  Gt gt_pow(const GtComb& comb, const BigUint& e) const;
  /// Π g_j^(e_j) over prepared unitary bases: one shared squaring chain with
  /// width-4 signed digits, a negative digit taking the conjugate. Exact for
  /// any exponent, including those ≥ q. exponents.size() must equal
  /// bases.size(). Counts one gt_msm_term per nonzero exponent.
  Gt gt_multi_pow(const GtPowTable& bases, std::span<const BigUint> exponents) const;
  /// Fixed-width serialization (2 field elements, big-endian), written from
  /// the canonical limbs.
  std::vector<std::uint8_t> gt_serialize(const Gt& x) const;
  /// Inverse of gt_serialize(); std::nullopt on a wrong width or a
  /// coordinate ≥ p. Does not check membership in GT.
  std::optional<Gt> gt_deserialize(std::span<const std::uint8_t> bytes) const;

  /// Operation accounting. Counters are accumulated with relaxed atomics, so
  /// concurrent workers contribute exact totals; reset before a measured
  /// section. counters() returns a consistent-enough snapshot for the
  /// post-quiescence readouts the benches and reports do.
  OpCounters counters() const noexcept;
  /// Rebaselines counters() to zero. The raw accumulator keeps growing —
  /// lifetime_counters() is unaffected, so registry collectors see cumulative
  /// totals even across reset-heavy measured sections.
  void reset_counters() const noexcept;
  /// Cumulative operation totals since construction (ignores resets).
  OpCounters lifetime_counters() const noexcept;

  /// Counter hook for engine layers (e.g. precomputed pairings) that
  /// evaluate Miller machinery outside pair(): adds `delta` atomically.
  void add_ops(const OpCounters& delta) const noexcept;

  /// Registers a collector on `registry` that publishes lifetime counters as
  /// "<prefix>.pairings", "<prefix>.miller_loops", ... on every snapshot.
  /// The group must outlive the registry's use of the collector.
  void publish_to(obs::MetricsRegistry& registry, std::string prefix) const;

 private:
  TypeAParams params_;
  /// wnaf4_digits(h) as signed_chain's one row, recoded once.
  std::vector<std::vector<std::int8_t>> h_digits_;
  std::unique_ptr<field::PrimeField> fp_;
  std::unique_ptr<field::Fp2Field> fp2_;
  std::unique_ptr<ec::Curve> curve_;
  Point generator_;
  mutable AtomicOpCounters counters_;  ///< raw lifetime totals
  mutable AtomicOpCounters baseline_;  ///< reset_counters() snapshot
};

/// Shared default 512-bit group (constructed once; the generator derivation
/// costs one hash-to-G1).
const PairingGroup& default_group();

/// Shared tiny group for fast property tests.
const PairingGroup& tiny_group();

}  // namespace seccloud::pairing
