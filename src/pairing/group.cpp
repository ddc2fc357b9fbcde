#include "pairing/group.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bigint/wnaf.h"
#include "hash/hash_to.h"
#include "obs/metrics.h"
#include "pairing/miller_schedule.h"

namespace seccloud::pairing {

using field::BigUint;

namespace {

/// g, g³, g⁵, g⁷ (one squaring and three multiplications).
std::array<Gt, GtPowTable::kEntries> odd_powers(const field::Fp2Field& f2, const Gt& g) {
  const Gt g2 = f2.sqr(g);
  std::array<Gt, GtPowTable::kEntries> out;
  out[0] = g;
  for (std::size_t k = 1; k < out.size(); ++k) out[k] = f2.mul(out[k - 1], g2);
  return out;
}

/// The signed chain shared by gt_multi_pow, the comb and the final
/// exponentiation: Π_j g_j^(d_j) with d_j = Σ_i digits[j][i]·2^i over the
/// odd powers of unitary bases g_j, one shared squaring chain, a negative
/// digit taking the conjugate.
Gt signed_chain(const field::Fp2Field& f2, std::span<const Gt> odd,
                const std::vector<std::vector<std::int8_t>>& digits) {
  static_assert(GtPowTable::kEntries == std::size_t{1} << (num::kWnafWidth - 2),
                "one table entry per odd digit magnitude");
  std::size_t len = 0;
  for (const auto& row : digits) len = std::max(len, row.size());
  Gt acc = f2.one();
  for (std::size_t i = len; i-- > 0;) {
    acc = f2.sqr(acc);
    for (std::size_t j = 0; j < digits.size(); ++j) {
      if (i >= digits[j].size() || digits[j][i] == 0) continue;
      const int digit = digits[j][i];
      const Gt& entry =
          odd[j * GtPowTable::kEntries + static_cast<std::size_t>(digit > 0 ? digit : -digit) / 2];
      // Unitary: g^(−k) is the conjugate of g^k.
      acc = f2.mul(acc, digit > 0 ? entry : f2.conj(entry));
    }
  }
  return acc;
}

}  // namespace

PairingGroup::PairingGroup(const TypeAParams& params)
    : params_(params), h_digits_{num::wnaf4_digits(params_.h)} {
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

Fp2 PairingGroup::miller(const Point& p, const Point& q) const {
  counters_.miller_loops.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().miller_loops;
  using field::fixed::Fe;
  const auto& m = fp_->mont();
  const auto& f2 = *fp2_;

  // Each line is evaluated at φ(Q) = (−x_Q, i·y_Q) as soon as it is walked.
  const Fe xq = m.neg(q.x);
  Fp2 acc = f2.one();
  detail::walk_miller(
      m, params_.q, p.x, p.y, [&] { acc = f2.sqr(acc); },
      [&](const Fe& x, const Fe& y2, const Fe& z2, const Fe& mm, const Fe& z3) {
        const Fe real =
            m.neg(m.add(m.add(y2, y2), m.mont_mul(mm, m.sub(m.mont_mul(z2, xq), x))));
        const Fe imag = m.mont_mul(m.mont_mul(z3, z2), q.y);
        acc = f2.mul(acc, Fp2{real, imag});
      },
      [&](const Fe& r, const Fe& z3) {
        const Fe real = m.neg(m.add(m.mont_mul(z3, p.y), m.mont_mul(r, m.sub(xq, p.x))));
        const Fe imag = m.mont_mul(z3, q.y);
        acc = f2.mul(acc, Fp2{real, imag});
      });
  return acc;
}

Gt PairingGroup::finalize(const Fp2& f) const {
  counters_.final_exps.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().final_exps;
  const auto& m = fp_->mont();
  const auto& f2 = *fp2_;
  // e = (p² − 1)/q = (p − 1)·h. Easy part: the Frobenius is the conjugate, so
  // f^(p−1) = conj(f)/f = conj(f)²/N(f) with the norm N(f) = a² + b² ∈ F_p:
  // one base-field inversion.
  const auto norm_inv = m.inv_mont(m.add(m.mont_sqr(f.a), m.mont_sqr(f.b)));
  if (!norm_inv) {
    // N(f) = 0 only for f = 0, which the Miller loop cannot produce for
    // inputs on the curve; treat it as the degenerate pairing.
    return f2.one();
  }
  const Fp2 conj_sq = f2.sqr(f2.conj(f));
  const Fp2 g{m.mont_mul(conj_sq.a, *norm_inv), m.mont_mul(conj_sq.b, *norm_inv)};
  // Hard part: g has norm 1, so g^h runs on the signed chain over the digits
  // of h recoded at construction (not gt_multi_pow: no gt_msm_term is spent).
  return signed_chain(f2, odd_powers(f2, g), h_digits_);
}

Gt PairingGroup::pair(const Point& p, const Point& q) const {
  if (p.infinity || q.infinity) {
    add_ops({.pairings = 1, .miller_loops = 1, .final_exps = 1});
    return fp2_->one();
  }
  add_ops({.pairings = 1});
  return finalize(miller(p, q));
}

Gt PairingGroup::pair_product(std::span<const std::pair<Point, Point>> pairs) const {
  Fp2 acc = fp2_->one();
  for (const auto& [p, q] : pairs) {
    if (p.infinity || q.infinity) continue;
    acc = fp2_->mul(acc, miller(p, q));
  }
  return finalize(acc);
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

Point PairingGroup::multi_mul(const ec::MsmTable& bases, std::span<const BigUint> scalars,
                              std::span<const Point> addends) const {
  const auto terms = static_cast<std::uint64_t>(std::count_if(
      scalars.begin(), scalars.end(), [](const BigUint& k) { return !k.is_zero(); }));
  counters_.msm_terms.fetch_add(terms, std::memory_order_relaxed);
  tls_op_counters().msm_terms += terms;
  return curve_->multi_mul(bases, scalars, addends);
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
        snap.counters[prefix + ".msm_terms"] = ops.msm_terms;
        snap.counters[prefix + ".gt_msm_terms"] = ops.gt_msm_terms;
      });
}

GtPowTable::GtPowTable(const PairingGroup& group, std::span<const Gt> bases) {
  odd_.reserve(kEntries * bases.size());
  for (const Gt& base : bases) {
    const auto odd = odd_powers(group.fp2(), base);
    odd_.insert(odd_.end(), odd.begin(), odd.end());
  }
}

GtComb::GtComb(const PairingGroup& group, const Gt& base)
    : group_(&group), chunks_(group, chunk_bases(group, base)) {}

std::vector<Gt> GtComb::chunk_bases(const PairingGroup& group, const Gt& base) {
  const field::Fp2Field& f2 = group.fp2();
  const std::size_t count = (group.order().bit_length() + kChunkBits - 1) / kChunkBits;
  std::vector<Gt> out;
  out.reserve(count);
  out.push_back(base);
  while (out.size() < count) {
    Gt next = out.back();
    for (std::size_t d = 0; d < kChunkBits; ++d) next = f2.sqr(next);
    out.push_back(next);
  }
  return out;
}

Gt PairingGroup::gt_pow(const GtComb& comb, const BigUint& e) const {
  if (comb.group_ != this) {
    throw std::invalid_argument("PairingGroup::gt_pow: comb prepared on another group");
  }
  if (e.bit_length() > comb.span_bits()) {
    throw std::invalid_argument("PairingGroup::gt_pow: exponent wider than the comb");
  }
  counters_.gt_exps.fetch_add(1, std::memory_order_relaxed);
  ++tls_op_counters().gt_exps;
  return signed_chain(*fp2_, comb.chunks_.odd_,
                      num::wnaf4_rows(e, GtComb::kChunkBits, comb.chunks_.size()));
}

Gt PairingGroup::gt_multi_pow(const GtPowTable& bases,
                              std::span<const BigUint> exponents) const {
  if (exponents.size() != bases.size()) {
    throw std::invalid_argument("PairingGroup::gt_multi_pow: size mismatch");
  }
  std::vector<std::vector<std::int8_t>> digits(exponents.size());
  std::uint64_t terms = 0;
  for (std::size_t j = 0; j < exponents.size(); ++j) {
    if (exponents[j].is_zero()) continue;
    ++terms;
    digits[j] = num::wnaf4_digits(exponents[j]);
  }
  counters_.gt_msm_terms.fetch_add(terms, std::memory_order_relaxed);
  tls_op_counters().gt_msm_terms += terms;
  return signed_chain(*fp2_, bases.odd_, digits);
}

std::optional<Gt> PairingGroup::gt_deserialize(std::span<const std::uint8_t> bytes) const {
  const std::size_t width = fp_->byte_width();
  if (bytes.size() != 2 * width) return std::nullopt;
  const auto real = fp_->decode(bytes.first(width));
  const auto imag = fp_->decode(bytes.subspan(width));
  if (!real || !imag) return std::nullopt;
  return Gt{*real, *imag};
}

std::vector<std::uint8_t> PairingGroup::gt_serialize(const Gt& x) const {
  std::vector<std::uint8_t> out;
  out.reserve(2 * fp_->byte_width());
  fp_->encode(x.a, out);
  fp_->encode(x.b, out);
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
