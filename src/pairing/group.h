// The pairing engine: G1 (order-q subgroup of a supersingular curve),
// GT (order-q subgroup of F_{p^2}^*), and the modified Tate pairing
// ê: G1 × G1 → GT computed with Miller's algorithm in Jacobian coordinates
// with denominator elimination (vertical lines lie in the subfield F_p and
// are annihilated by the final exponentiation (p²−1)/q = (p−1)·h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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

  /// Final exponentiation f^((p²−1)/q). Counts one final_exp.
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
  /// Fixed-width serialization (2 field elements, big-endian).
  std::vector<std::uint8_t> gt_serialize(const Gt& x) const;

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
  /// The whole loop runs on Montgomery-domain stack limbs; coordinates ≥ p
  /// are reduced on import.
  Fp2 miller_loop(const Point& p, const Point& q) const;
  Fp2 final_exponentiation(const Fp2& f) const;

  TypeAParams params_;
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
