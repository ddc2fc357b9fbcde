#include "ibc/ibs.h"

#include "hash/hash_to.h"

namespace seccloud::ibc {

BigUint tag_hash(const PairingGroup& group, const Point& u,
                 std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> buf = group.curve().serialize(u);
  buf.insert(buf.end(), message.begin(), message.end());
  return hash::hash_to_nonzero("seccloud.v1.tag", buf, group.order());
}

namespace {

/// The one signing body; `mul_q_id(k)` is k·Q_ID and `mul_secret(k)` k·sk_ID.
template <typename MulQId, typename MulSecret>
IbsSignature sign_with(const PairingGroup& group, const MulQId& mul_q_id,
                       const MulSecret& mul_secret, std::span<const std::uint8_t> message,
                       num::RandomSource& rng) {
  const BigUint r = group.random_scalar(rng);
  IbsSignature sig;
  sig.u = mul_q_id(r);
  const BigUint h = tag_hash(group, sig.u, message);
  BigUint exponent = r + h;
  if (exponent >= group.order()) exponent -= group.order();
  sig.v = mul_secret(exponent);
  return sig;
}

}  // namespace

IbsSignature ibs_sign(const PairingGroup& group, const IdentityKey& signer,
                      std::span<const std::uint8_t> message, num::RandomSource& rng) {
  return sign_with(
      group, [&](const BigUint& k) { return group.mul(k, signer.q_id); },
      [&](const BigUint& k) { return group.mul(k, signer.secret); }, message, rng);
}

IbsSignature ibs_sign(const PairingGroup& group, const ec::FixedBaseTable& q_id,
                      const ec::FixedBaseTable& secret,
                      std::span<const std::uint8_t> message, num::RandomSource& rng) {
  return sign_with(
      group, [&](const BigUint& k) { return group.mul(q_id, k); },
      [&](const BigUint& k) { return group.mul(secret, k); }, message, rng);
}

bool ibs_verify(const PairingGroup& group, const PublicParams& params,
                std::string_view signer_id, std::span<const std::uint8_t> message,
                const IbsSignature& sig) {
  const Point q_id = identity_point(group, signer_id);
  const BigUint h = tag_hash(group, sig.u, message);
  const Gt lhs = group.pair(sig.v, group.generator());
  const Gt rhs = group.pair(group.add(sig.u, group.mul(h, q_id)), params.p_pub);
  return lhs == rhs;
}

}  // namespace seccloud::ibc
