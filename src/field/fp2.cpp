#include "field/fp2.h"

#include <stdexcept>

namespace seccloud::field {

Fp2Field::Fp2Field(const PrimeField& base) : fp_(&base) {
  if (!base.is_three_mod_four()) {
    throw std::invalid_argument("Fp2Field: requires p ≡ 3 (mod 4) so that i^2 = -1 is irreducible");
  }
}

Fp2 Fp2Field::add(const Fp2& x, const Fp2& y) const {
  return {fp_->add(x.a, y.a), fp_->add(x.b, y.b)};
}

Fp2 Fp2Field::sub(const Fp2& x, const Fp2& y) const {
  return {fp_->sub(x.a, y.a), fp_->sub(x.b, y.b)};
}

Fp2 Fp2Field::neg(const Fp2& x) const { return {fp_->neg(x.a), fp_->neg(x.b)}; }

Fp2 Fp2Field::mul(const Fp2& x, const Fp2& y) const {
  // Karatsuba: t0 = x.a y.a, t1 = x.b y.b, t2 = (x.a+x.b)(y.a+y.b).
  const BigUint t0 = fp_->mul(x.a, y.a);
  const BigUint t1 = fp_->mul(x.b, y.b);
  const BigUint t2 = fp_->mul(fp_->add(x.a, x.b), fp_->add(y.a, y.b));
  return {fp_->sub(t0, t1), fp_->sub(t2, fp_->add(t0, t1))};
}

Fp2 Fp2Field::sqr(const Fp2& x) const {
  const BigUint sum = fp_->add(x.a, x.b);
  const BigUint diff = fp_->sub(x.a, x.b);
  const BigUint cross = fp_->mul(x.a, x.b);
  return {fp_->mul(sum, diff), fp_->add(cross, cross)};
}

Fp2 Fp2Field::conj(const Fp2& x) const { return {x.a, fp_->neg(x.b)}; }

std::optional<Fp2> Fp2Field::inv(const Fp2& x) const {
  if (is_zero(x)) return std::nullopt;
  const BigUint norm = fp_->add(fp_->sqr(x.a), fp_->sqr(x.b));
  const auto norm_inv = fp_->inv(norm);
  if (!norm_inv) return std::nullopt;  // Unreachable for prime p, x != 0.
  return Fp2{fp_->mul(x.a, *norm_inv), fp_->mul(fp_->neg(x.b), *norm_inv)};
}

Fp2 Fp2Field::pow(const Fp2& x, const BigUint& e) const {
  // Square-and-multiply with the whole ladder on Montgomery-domain stack
  // limbs: two conversions in total.
  const Fe2 base = fe2_import(x);
  Fe2 result = fe2_one();
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = fe2_sqr(result);
    if (e.bit(i)) result = fe2_mul(result, base);
  }
  return fe2_export(result);
}

Fe2 Fp2Field::fe2_import(const Fp2& x) const {
  return {fp_->to_mont(x.a), fp_->to_mont(x.b)};
}

Fp2 Fp2Field::fe2_export(const Fe2& x) const {
  return {fp_->from_mont(x.a), fp_->from_mont(x.b)};
}

Fe2 Fp2Field::fe2_one() const {
  return {fp_->mont().one_mont(), fixed::Fe{}};
}

Fe2 Fp2Field::fe2_mul(const Fe2& x, const Fe2& y) const {
  // Karatsuba, mirroring mul() above term for term.
  const auto& m = fp_->mont();
  const fixed::Fe t0 = m.mont_mul(x.a, y.a);
  const fixed::Fe t1 = m.mont_mul(x.b, y.b);
  const fixed::Fe t2 = m.mont_mul(m.add(x.a, x.b), m.add(y.a, y.b));
  return {m.sub(t0, t1), m.sub(t2, m.add(t0, t1))};
}

Fe2 Fp2Field::fe2_sqr(const Fe2& x) const {
  const auto& m = fp_->mont();
  const fixed::Fe sum = m.add(x.a, x.b);
  const fixed::Fe diff = m.sub(x.a, x.b);
  const fixed::Fe cross = m.mont_mul(x.a, x.b);
  return {m.mont_mul(sum, diff), m.add(cross, cross)};
}

Fp2 Fp2Field::random(num::RandomSource& rng) const {
  return {fp_->random(rng), fp_->random(rng)};
}

std::string Fp2Field::to_string(const Fp2& x) const {
  return x.a.to_hex() + "+" + x.b.to_hex() + "*i";
}

}  // namespace seccloud::field
