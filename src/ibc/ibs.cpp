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

/// Completes a nonce from r and U = r·Q_ID: e = (r + H2(U ‖ m)) mod q.
IbsNonce with_exponent(const PairingGroup& group, const BigUint& r, Point u,
                       std::span<const std::uint8_t> message) {
  BigUint exponent = r + tag_hash(group, u, message);
  if (exponent >= group.order()) exponent -= group.order();
  return {std::move(u), std::move(exponent)};
}

}  // namespace

IbsNonce ibs_nonce(const PairingGroup& group, const Point& signer_q_id,
                   std::span<const std::uint8_t> message, num::RandomSource& rng) {
  const BigUint r = group.random_scalar(rng);
  return with_exponent(group, r, group.mul(r, signer_q_id), message);
}

IbsNonce ibs_nonce(const PairingGroup& group, const ec::FixedBaseTable& signer_q_id,
                   std::span<const std::uint8_t> message, num::RandomSource& rng) {
  const BigUint r = group.random_scalar(rng);
  return with_exponent(group, r, group.mul(signer_q_id, r), message);
}

IbsSignature ibs_sign(const PairingGroup& group, const IdentityKey& signer,
                      std::span<const std::uint8_t> message, num::RandomSource& rng) {
  IbsNonce nonce = ibs_nonce(group, signer.q_id, message, rng);
  return {std::move(nonce.u), group.mul(nonce.exponent, signer.secret)};
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
