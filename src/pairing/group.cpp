#include "pairing/group.h"

#include <stdexcept>

#include "hash/hash_to.h"
#include "obs/metrics.h"
#include "pairing/miller_schedule.h"

namespace seccloud::pairing {

using field::BigUint;

PairingGroup::PairingGroup(const TypeAParams& params) : params_(params) {
  fp_ = std::make_unique<field::PrimeField>(params_.p);
  fp2_ = std::make_unique<field::Fp2Field>(*fp_);
  // E: y^2 = x^3 + x (a = 1, b = 0); subgroup order q, cofactor h.
  curve_ = std::make_unique<ec::Curve>(*fp_, BigUint{1}, BigUint{}, params_.q, params_.h);
  generator_ = hash_to_g1("seccloud.v1.generator", std::string_view{"P"});
  if (generator_.infinity) {
    throw std::logic_error("PairingGroup: generator derivation hit the identity");
  }
}

Point PairingGroup::hash_to_g1(std::string_view tag, std::string_view data) const {
  return hash_to_g1(tag, hash::as_bytes(data));
}

Point PairingGroup::hash_to_g1(std::string_view tag, std::span<const std::uint8_t> data) const {
  counters_.hash_to_points.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().hash_to_points;
  // Try-and-increment: x_ctr = H(tag ‖ data ‖ ctr) until x lies on the
  // curve, then clear the cofactor. Expected two attempts.
  std::vector<std::uint8_t> buf(data.begin(), data.end());
  buf.push_back(0);
  for (std::uint8_t ctr = 0;; ++ctr) {
    buf.back() = ctr;
    const BigUint x = hash::hash_to_int(tag, buf, params_.p);
    // Parity of the root is also derived from the hash for determinism.
    const bool even = (hash::hash_to_int("seccloud.v1.sign", buf, BigUint{2})).is_zero();
    if (auto pt = curve_->lift_x(x, even)) {
      const Point cleared = curve_->mul(params_.h, *pt);
      if (!cleared.infinity) return cleared;
    }
    if (ctr == 255) throw std::logic_error("hash_to_g1: no curve point in 256 attempts");
  }
}

bool PairingGroup::in_g1(const Point& pt) const {
  if (!curve_->is_on_curve(pt)) return false;
  return curve_->mul(params_.q, pt).infinity;
}

Fp2 PairingGroup::miller_loop(const Point& p, const Point& q) const {
  using field::Fe2;
  using field::fixed::Fe;
  const auto& m = fp_->mont();
  const auto& f2 = *fp2_;

  // Each line is evaluated at φ(Q) = (−x_Q, i·y_Q) as soon as it is walked.
  const Fe xp = fp_->to_mont(p.x);
  const Fe yp = fp_->to_mont(p.y);
  const Fe xq = m.neg(fp_->to_mont(q.x));
  const Fe yq = fp_->to_mont(q.y);
  Fe2 acc = f2.fe2_one();
  detail::walk_miller(
      m, params_.q, xp, yp, [&] { acc = f2.fe2_sqr(acc); },
      [&](const Fe& x, const Fe& y2, const Fe& z2, const Fe& mm, const Fe& z3) {
        const Fe real =
            m.neg(m.add(m.add(y2, y2), m.mont_mul(mm, m.sub(m.mont_mul(z2, xq), x))));
        const Fe imag = m.mont_mul(m.mont_mul(z3, z2), yq);
        acc = f2.fe2_mul(acc, Fe2{real, imag});
      },
      [&](const Fe& r, const Fe& z3) {
        const Fe real = m.neg(m.add(m.mont_mul(z3, yp), m.mont_mul(r, m.sub(xq, xp))));
        const Fe imag = m.mont_mul(z3, yq);
        acc = f2.fe2_mul(acc, Fe2{real, imag});
      });
  return f2.fe2_export(acc);
}

Fp2 PairingGroup::final_exponentiation(const Fp2& f) const {
  const auto& f2 = *fp2_;
  // e = (p^2 − 1)/q = (p − 1)·h.   f^(p−1) = conj(f)·f^{-1} (Frobenius).
  const auto f_inv = f2.inv(f);
  if (!f_inv) {
    // Only reachable if the Miller value is 0, which cannot happen for
    // inputs on the curve; treat as the degenerate pairing.
    return f2.one();
  }
  const Fp2 powered = f2.mul(f2.conj(f), *f_inv);
  return f2.pow(powered, params_.h);
}

Gt PairingGroup::pair(const Point& p, const Point& q) const {
  counters_.pairings.fetch_add(1, std::memory_order_relaxed);
  counters_.miller_loops.fetch_add(1, std::memory_order_relaxed);
  counters_.final_exps.fetch_add(1, std::memory_order_relaxed);
  OpCounters& tls = tls_op_counters();
  ++tls.pairings;
  ++tls.miller_loops;
  ++tls.final_exps;
  if (p.infinity || q.infinity) return fp2_->one();
  return final_exponentiation(miller_loop(p, q));
}

Gt PairingGroup::pair_product(std::span<const std::pair<Point, Point>> pairs) const {
  Fp2 acc = fp2_->one();
  for (const auto& [p, q] : pairs) {
    if (p.infinity || q.infinity) continue;
    acc = fp2_->mul(acc, miller(p, q));
  }
  return finalize(acc);
}

Fp2 PairingGroup::miller(const Point& p, const Point& q) const {
  counters_.miller_loops.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().miller_loops;
  return miller_loop(p, q);
}

Gt PairingGroup::finalize(const Fp2& f) const {
  counters_.final_exps.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().final_exps;
  return final_exponentiation(f);
}

OpCounters PairingGroup::counters() const noexcept {
  return snapshot(counters_) - snapshot(baseline_);
}

void PairingGroup::reset_counters() const noexcept {
  // Rebaseline instead of zeroing: the raw accumulator stays cumulative so
  // registry collectors (publish_to) report lifetime totals regardless of
  // how often a measured section resets.
  store(baseline_, snapshot(counters_));
}

OpCounters PairingGroup::lifetime_counters() const noexcept {
  return snapshot(counters_);
}

void PairingGroup::add_ops(const OpCounters& delta) const noexcept {
  accumulate(counters_, delta);
  // add_ops is always called on the thread that performed the work (fixed-
  // argument replays, engine bookkeeping), so the per-thread mirror stays an
  // exact attribution of the caller's own ops.
  tls_op_counters() += delta;
}

void PairingGroup::publish_to(obs::MetricsRegistry& registry, std::string prefix) const {
  registry.register_collector(
      prefix, [this, prefix](obs::MetricsSnapshot& snap) {
        const OpCounters ops = lifetime_counters();
        snap.counters[prefix + ".pairings"] = ops.pairings;
        snap.counters[prefix + ".miller_loops"] = ops.miller_loops;
        snap.counters[prefix + ".final_exps"] = ops.final_exps;
        snap.counters[prefix + ".point_muls"] = ops.point_muls;
        snap.counters[prefix + ".gt_exps"] = ops.gt_exps;
        snap.counters[prefix + ".hash_to_points"] = ops.hash_to_points;
      });
}

std::vector<std::uint8_t> PairingGroup::gt_serialize(const Gt& x) const {
  const std::size_t width = (params_.p.bit_length() + 7) / 8;
  std::vector<std::uint8_t> out = x.a.to_bytes(width);
  const auto imag = x.b.to_bytes(width);
  out.insert(out.end(), imag.begin(), imag.end());
  return out;
}

const PairingGroup& default_group() {
  static const PairingGroup group{default_params()};
  return group;
}

const PairingGroup& tiny_group() {
  static const PairingGroup group{tiny_params()};
  return group;
}

}  // namespace seccloud::pairing
