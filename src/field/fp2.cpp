#include "field/fp2.h"

#include <stdexcept>

namespace seccloud::field {

Fp2Field::Fp2Field(const PrimeField& base) : fp_(&base) {
  if (!base.is_three_mod_four()) {
    throw std::invalid_argument("Fp2Field: requires p ≡ 3 (mod 4) so that i^2 = -1 is irreducible");
  }
}

Fp2 Fp2Field::add(const Fp2& x, const Fp2& y) const noexcept {
  const auto& m = fp_->mont();
  return {m.add(x.a, y.a), m.add(x.b, y.b)};
}

Fp2 Fp2Field::sub(const Fp2& x, const Fp2& y) const noexcept {
  const auto& m = fp_->mont();
  return {m.sub(x.a, y.a), m.sub(x.b, y.b)};
}

Fp2 Fp2Field::neg(const Fp2& x) const noexcept {
  const auto& m = fp_->mont();
  return {m.neg(x.a), m.neg(x.b)};
}

Fp2 Fp2Field::mul(const Fp2& x, const Fp2& y) const noexcept {
  // Karatsuba: t0 = x.a y.a, t1 = x.b y.b, t2 = (x.a+x.b)(y.a+y.b).
  const auto& m = fp_->mont();
  const fixed::Fe t0 = m.mont_mul(x.a, y.a);
  const fixed::Fe t1 = m.mont_mul(x.b, y.b);
  const fixed::Fe t2 = m.mont_mul(m.add(x.a, x.b), m.add(y.a, y.b));
  return {m.sub(t0, t1), m.sub(t2, m.add(t0, t1))};
}

Fp2 Fp2Field::sqr(const Fp2& x) const noexcept {
  const auto& m = fp_->mont();
  const fixed::Fe sum = m.add(x.a, x.b);
  const fixed::Fe diff = m.sub(x.a, x.b);
  const fixed::Fe cross = m.mont_mul(x.a, x.b);
  return {m.mont_mul(sum, diff), m.add(cross, cross)};
}

Fp2 Fp2Field::conj(const Fp2& x) const noexcept { return {x.a, fp_->mont().neg(x.b)}; }

std::optional<Fp2> Fp2Field::inv(const Fp2& x) const {
  const auto& m = fp_->mont();
  const auto norm_inv = m.inv_mont(m.add(m.mont_sqr(x.a), m.mont_sqr(x.b)));
  if (!norm_inv) return std::nullopt;  // x = 0 (N(x) ≠ 0 otherwise for prime p)
  return Fp2{m.mont_mul(x.a, *norm_inv), m.mont_mul(m.neg(x.b), *norm_inv)};
}

Fp2 Fp2Field::pow(const Fp2& x, const BigUint& e) const {
  Fp2 result = one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = sqr(result);
    if (e.bit(i)) result = mul(result, x);
  }
  return result;
}

Fp2 Fp2Field::random(num::RandomSource& rng) const {
  const BigUint a = fp_->random(rng);
  return element(a, fp_->random(rng));
}

}  // namespace seccloud::field
