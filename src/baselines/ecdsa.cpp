#include "baselines/ecdsa.h"

#include "bigint/modular.h"
#include "hash/hash_to.h"

namespace seccloud::baselines {

EcdsaKeyPair ecdsa_generate(const P256& curve, num::RandomSource& rng) {
  const BigUint d = rng.next_nonzero_below(curve.order());
  return {d, curve.curve().mul(d, curve.generator())};
}

EcdsaSignature ecdsa_sign(const P256& curve, const EcdsaKeyPair& key,
                          std::span<const std::uint8_t> message, num::RandomSource& rng) {
  const BigUint& n = curve.order();
  const BigUint h = hash::hash_to_int("seccloud.baseline.ecdsa", message, n);
  while (true) {
    const BigUint k = rng.next_nonzero_below(n);
    const Point kg = curve.curve().mul(k, curve.generator());
    const BigUint r = curve.curve().coordinates(kg).first % n;
    if (r.is_zero()) continue;
    const BigUint k_inv = *num::inv_mod(k, n);
    const BigUint s = num::mul_mod(k_inv, num::add_mod(h, num::mul_mod(r, key.d, n), n), n);
    if (s.is_zero()) continue;
    return {r, s};
  }
}

bool ecdsa_verify(const P256& curve, const Point& public_key,
                  std::span<const std::uint8_t> message, const EcdsaSignature& sig) {
  const BigUint& n = curve.order();
  if (sig.r.is_zero() || sig.r >= n || sig.s.is_zero() || sig.s >= n) return false;
  const BigUint h = hash::hash_to_int("seccloud.baseline.ecdsa", message, n);
  const BigUint w = *num::inv_mod(sig.s, n);
  const BigUint u1 = num::mul_mod(h, w, n);
  const BigUint u2 = num::mul_mod(sig.r, w, n);
  const std::array<BigUint, 2> scalars{u1, u2};
  const std::array<Point, 2> points{curve.generator(), public_key};
  const Point result = curve.curve().multi_mul(scalars, points);
  if (result.infinity) return false;
  return curve.curve().coordinates(result).first % n == sig.r;
}

}  // namespace seccloud::baselines
