// The Miller-loop schedule for ê(P, ·): point arithmetic and edge policy,
// shared by PairingGroup::miller (evaluates each line on the spot) and
// FixedPairing (records each line once, replays it per evaluation point).
#pragma once

#include "bigint/biguint.h"
#include "field/fp_fixed.h"

namespace seccloud::pairing::detail {

using field::fixed::Fe;
using field::fixed::MontCtx;

/// Walks Miller's algorithm for f_{n,P} on y² = x³ + x (a = 1) in Jacobian
/// coordinates on Montgomery-domain limbs, with P = (xp, yp). For every loop
/// iteration it calls `step()` (where the accumulator is squared), then hands
/// over each line the iteration contributes:
///   * `tangent(x, y2, z2, mm, z3)` for the doubling of T = (X, Y, Z),
///     l = 2YZ³·y' − 2Y² − M(Z²x' − X) with y2 = Y², z2 = Z², mm = M =
///     3X² + Z⁴ and z3 = 2YZ, so that Z3·Z² = 2YZ³;
///   * `chord(r, z3)` for the addition T + P,
///     l = Z3(y' − y_P) − R(x' − x_P).
/// Edge policy: a doubling with Y = 0 sends T to O (the vertical tangent lies
/// in F_p and is eliminated by the final exponentiation); an addition bit
/// with T = O sets T = P; T = P degenerates to a tangent step; T = −P sends T
/// to O without a line.
template <class Step, class Tangent, class Chord>
void walk_miller(const MontCtx& m, const num::BigUint& n, const Fe& xp, const Fe& yp,
                 Step&& step, Tangent&& tangent, Chord&& chord) {
  struct Jac {
    Fe x;
    Fe y;
    Fe z;
  };
  Jac t{xp, yp, m.one_mont()};
  bool t_inf = false;

  const auto dbl = [&] {
    if (m.is_zero(t.y)) {
      t_inf = true;
      return;
    }
    const Fe y2 = m.mont_sqr(t.y);
    const Fe s = m.mul_word(m.mont_mul(t.x, y2), 4);                    // S = 4XY²
    const Fe z2 = m.mont_sqr(t.z);
    const Fe mm = m.add(m.mul_word(m.mont_sqr(t.x), 3), m.mont_sqr(z2));  // M = 3X² + Z⁴
    const Fe x3 = m.sub(m.mont_sqr(mm), m.add(s, s));
    const Fe y3 = m.sub(m.mont_mul(mm, m.sub(s, x3)), m.mul_word(m.mont_sqr(y2), 8));
    const Fe z3 = m.mul_word(m.mont_mul(t.y, t.z), 2);
    tangent(t.x, y2, z2, mm, z3);
    t = Jac{x3, y3, z3};
  };

  for (std::size_t i = n.bit_length() - 1; i-- > 0;) {
    step();
    if (!t_inf) dbl();

    if (!n.bit(i)) continue;

    if (t_inf) {
      t = Jac{xp, yp, m.one_mont()};
      t_inf = false;
      continue;
    }
    const Fe z1_sq = m.mont_sqr(t.z);
    const Fe u2 = m.mont_mul(xp, z1_sq);
    const Fe s2 = m.mont_mul(yp, m.mont_mul(z1_sq, t.z));
    const Fe hh = m.sub(u2, t.x);
    const Fe r = m.sub(s2, t.y);
    if (m.is_zero(hh)) {
      if (m.is_zero(r)) {
        dbl();  // T = P (small-order P): the chord degenerates to the tangent
      } else {
        t_inf = true;  // T = −P: T + P = O, vertical line eliminated
      }
      continue;
    }
    const Fe h2 = m.mont_sqr(hh);
    const Fe h3 = m.mont_mul(h2, hh);
    const Fe x1h2 = m.mont_mul(t.x, h2);
    const Fe x3 = m.sub(m.sub(m.mont_sqr(r), h3), m.add(x1h2, x1h2));
    const Fe y3 = m.sub(m.mont_mul(r, m.sub(x1h2, x3)), m.mont_mul(t.y, h3));
    const Fe z3 = m.mont_mul(t.z, hh);
    chord(r, z3);
    t = Jac{x3, y3, z3};
  }
}

}  // namespace seccloud::pairing::detail
