#include "field/fp.h"

#include <stdexcept>

namespace seccloud::field {

namespace {

const BigUint& checked_modulus(const BigUint& p) {
  if (!fixed::MontCtx::fits(p)) {
    throw std::invalid_argument(
        "PrimeField: modulus must be an odd integer >= 3 of at most 8 limbs");
  }
  return p;
}

}  // namespace

PrimeField::PrimeField(BigUint p) : p_(std::move(p)), mont_(checked_modulus(p_)) {
  k_ = p_.limb_count();
  mu_ = (BigUint{1} << (2 * k_ * 64)) / p_;
  p_three_mod_four_ = (p_.limb(0) & 3u) == 3u;
  if (p_three_mod_four_) {
    sqrt_exponent_ = (p_ + BigUint{1}) >> 2;
  }

  if (!p_three_mod_four_) {
    // Tonelli–Shanks setup: p − 1 = q·2^s with q odd, plus a quadratic
    // non-residue z found by Euler's criterion. For prime p half of all
    // candidates are non-residues, so the bounded search only fails for
    // non-prime moduli; sqrt() then reports the failure instead of looping.
    ts_q_ = p_ - BigUint{1};
    while (ts_q_.is_even()) {
      ts_q_ >>= 1;
      ++ts_s_;
    }
    const BigUint euler = (p_ - BigUint{1}) >> 1;
    const BigUint minus_one = p_ - BigUint{1};
    for (std::uint64_t z = 2; z < 1000; ++z) {
      if (pow(BigUint{z}, euler) == minus_one) {
        ts_z_ = BigUint{z};
        ts_ready_ = true;
        break;
      }
    }
  }
}

BigUint PrimeField::reduce(const BigUint& x) const {
  if (x < p_) return x;
  if (x.limb_count() > 2 * k_) return x % p_;
  // Barrett: q = floor(floor(x / B^{k-1}) * mu / B^{k+1}); r = x - q*p.
  BigUint q = x >> ((k_ - 1) * 64);
  q *= mu_;
  q >>= (k_ + 1) * 64;
  BigUint r = x - q * p_;
  while (r >= p_) r -= p_;
  return r;
}

BigUint PrimeField::add(const BigUint& a, const BigUint& b) const {
  BigUint r = a + b;
  if (r >= p_) r -= p_;
  return r;
}

BigUint PrimeField::neg(const BigUint& a) const {
  if (a.is_zero()) return a;
  return p_ - a;
}

BigUint PrimeField::mul(const BigUint& a, const BigUint& b) const {
  return mont_.to_biguint(mont_.mul_canonical(load(a), load(b)));
}

BigUint PrimeField::sqr(const BigUint& a) const {
  return mont_.to_biguint(mont_.sqr_canonical(load(a)));
}

BigUint PrimeField::pow(const BigUint& a, const BigUint& e) const {
  // One conversion each way; the whole ladder runs in the Montgomery domain
  // on stack-allocated limbs.
  return from_mont(mont_.pow_mont(to_mont(a), e));
}

std::optional<BigUint> PrimeField::inv(const BigUint& a) const {
  // nullopt for 0 and, under a composite modulus, for any a sharing a factor
  // with p.
  const auto iv = mont_.inv_mont(to_mont(a));
  if (!iv) return std::nullopt;
  return from_mont(*iv);
}

void PrimeField::encode(const fixed::Fe& x, std::vector<std::uint8_t>& out) const {
  out.resize(out.size() + byte_width());
  mont_.to_bytes(mont_.from_mont(x), std::span<std::uint8_t>{out}.last(byte_width()));
}

std::optional<fixed::Fe> PrimeField::decode(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != byte_width()) return std::nullopt;
  const auto x = mont_.from_bytes(bytes);
  if (!x) return std::nullopt;
  return mont_.to_mont(*x);
}

std::optional<BigUint> PrimeField::sqrt(const BigUint& a) const {
  const BigUint r = reduce(a);
  if (r.is_zero()) return BigUint{};

  if (p_three_mod_four_) {
    BigUint candidate = pow(r, sqrt_exponent_);
    if (sqr(candidate) != r) return std::nullopt;
    return candidate;
  }

  if (!ts_ready_) {
    throw std::logic_error(
        "PrimeField::sqrt: no quadratic non-residue found at construction "
        "(modulus is not prime)");
  }

  // Tonelli–Shanks. Invariants: t = r^q · (products of even powers of z),
  // res² = r·t, ord(t) divides 2^m.
  BigUint c = pow(ts_z_, ts_q_);
  BigUint t = pow(r, ts_q_);
  BigUint res = pow(r, (ts_q_ + BigUint{1}) >> 1);
  const BigUint one{1};
  std::size_t m_now = ts_s_;
  while (t != one) {
    // Least i with t^(2^i) = 1; i = m_now means r is a non-residue.
    std::size_t i = 0;
    BigUint probe = t;
    while (probe != one) {
      probe = sqr(probe);
      ++i;
      if (i >= m_now) return std::nullopt;
    }
    BigUint b = c;
    for (std::size_t j = 0; j + i + 1 < m_now; ++j) b = sqr(b);
    m_now = i;
    c = sqr(b);
    t = mul(t, c);
    res = mul(res, b);
  }
  if (sqr(res) != r) return std::nullopt;  // belt and braces for odd moduli
  return res;
}

}  // namespace seccloud::field
