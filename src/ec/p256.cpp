#include "ec/p256.h"

namespace seccloud::ec {

P256::P256() {
  field_ = std::make_unique<PrimeField>(BigUint::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"));
  const BigUint a = field_->modulus() - BigUint{3};
  const BigUint b = BigUint::from_hex(
      "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
  const BigUint n = BigUint::from_hex(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  curve_ = std::make_unique<Curve>(*field_, a, b, n, BigUint{1});
  generator_ = curve_->point(
      BigUint::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
      BigUint::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"));
}

}  // namespace seccloud::ec
