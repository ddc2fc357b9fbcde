#include "pairing/precompute.h"

#include "pairing/miller_schedule.h"

namespace seccloud::pairing {

using field::fixed::Fe;

FixedPairing::FixedPairing(const PairingGroup& group, const Point& fixed)
    : group_(&group), fixed_(fixed) {
  if (fixed_.infinity) return;  // ê(O, ·) = 1; no lines to record
  const auto& m = group.fp().mont();
  const Fe& xp = fixed_.x;
  const Fe& yp = fixed_.y;
  lines_per_step_.reserve(group.order().bit_length() - 1);

  // Instead of evaluating each line at φ(Q) we record its (u, v, w)
  // coefficients:
  //   tangent:  l(φQ) = −(2Y² − M·X + (M·Z²)·x̄_Q) + (Z3·Z²·y_Q)·i
  //   chord:    l(φQ) = −(Z3·y_P − R·x_P + R·x̄_Q) + (Z3·y_Q)·i
  detail::walk_miller(
      m, group.order(), xp, yp, [&] { lines_per_step_.push_back(0); },
      [&](const Fe& x, const Fe& y2, const Fe& z2, const Fe& mm, const Fe& z3) {
        lines_.push_back({m.sub(m.add(y2, y2), m.mont_mul(mm, x)), m.mont_mul(mm, z2),
                          m.mont_mul(z3, z2)});
        ++lines_per_step_.back();
      },
      [&](const Fe& r, const Fe& z3) {
        lines_.push_back({m.sub(m.mont_mul(z3, yp), m.mont_mul(r, xp)), r, z3});
        ++lines_per_step_.back();
      });
}

Fp2 FixedPairing::miller_with(const Point& q) const {
  group_->add_ops({.miller_loops = 1});
  const auto& m = group_->fp().mont();
  const auto& f2 = group_->fp2();

  const Fe xq = m.neg(q.x);  // x̄_Q: φ(Q) has x-coordinate −x_Q

  Fp2 acc = f2.one();
  std::size_t next = 0;
  for (const std::uint8_t count : lines_per_step_) {
    acc = f2.sqr(acc);
    for (std::uint8_t k = 0; k < count; ++k) {
      const Line& line = lines_[next++];
      const Fe real = m.neg(m.add(line.u, m.mont_mul(line.v, xq)));
      const Fe imag = m.mont_mul(line.w, q.y);
      acc = f2.mul(acc, Fp2{real, imag});
    }
  }
  return acc;
}

Gt FixedPairing::pair_with(const Point& q) const {
  if (fixed_.infinity || q.infinity) {
    group_->add_ops({.pairings = 1, .miller_loops = 1, .final_exps = 1});
    return group_->gt_one();
  }
  group_->add_ops({.pairings = 1});
  return group_->finalize(miller_with(q));
}

}  // namespace seccloud::pairing
