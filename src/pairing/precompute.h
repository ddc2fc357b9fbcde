// Fixed-argument pairing precomputation.
//
// The designated-verifier checks (Eq. 5/7/8/9) all evaluate ê(·, sk_B) with
// the *same* verifier secret key: the Miller loop's point arithmetic depends
// only on one argument, so the sequence of line functions through sk_B can
// be computed once and replayed against each new evaluation point. Because
// the modified Tate pairing on this supersingular curve is symmetric
// (ê(P, Q) = ê(Q, P)), fixing the second argument of pair(target, sk_B) is
// the same as fixing the first of pair(sk_B, target) — which is what this
// class stores. Replaying a precomputed loop skips every Jacobian doubling/
// addition and keeps only the two line-evaluation multiplications per step.
//
// The recording walks the same schedule as PairingGroup::miller
// (pairing/miller_schedule.h) and each replayed line equals the one the loop
// evaluates, so miller_with(Q) is bit-identical to group.miller(fixed, Q) and
// pair_with(Q) to group.pair(fixed, Q) (and, by symmetry, group.pair(Q, fixed)).
// The lines are stored as Montgomery-domain limbs, the domain Q and the
// result already live in, so a replay never touches BigUint.
#pragma once

#include "pairing/group.h"

namespace seccloud::pairing {

class FixedPairing {
 public:
  /// Precomputes the Miller line coefficients for ê(fixed, ·). Costs about
  /// one Miller loop of point arithmetic; pays for itself from the second
  /// pairing onward.
  FixedPairing(const PairingGroup& group, const Point& fixed);

  const PairingGroup& group() const noexcept { return *group_; }
  const Point& fixed() const noexcept { return fixed_; }

  /// ê(fixed, q). Counter semantics match PairingGroup::pair (one pairing,
  /// one miller_loop, one final_exp).
  Gt pair_with(const Point& q) const;

  /// Miller loop only (for product accumulation with a shared final
  /// exponentiation). Counts one miller_loop. `q` must be finite.
  Fp2 miller_with(const Point& q) const;

 private:
  /// One line function l evaluated at φ(Q) = (−x_Q, i·y_Q):
  ///   l(φ(Q)) = −(u + v·x̄_Q) + (w·y_Q)·i,  x̄_Q = −x_Q mod p,
  /// with u, v, w in the Montgomery domain. Both the tangent and the chord
  /// step reduce to this form.
  struct Line {
    field::fixed::Fe u;
    field::fixed::Fe v;
    field::fixed::Fe w;
  };

  const PairingGroup* group_;
  Point fixed_;
  std::vector<std::uint8_t> lines_per_step_;  ///< 0..2 lines per loop iteration
  std::vector<Line> lines_;                   ///< flat, in evaluation order
};

}  // namespace seccloud::pairing
