#include "seccloud/client.h"

#include "hash/framing.h"
#include "ibc/ibs.h"

namespace seccloud::core {

Bytes block_message_bytes(const DataBlock& block) {
  Bytes out;
  out.reserve(8 + block.payload.size());
  framing::put_le<std::uint64_t>(out, block.index);
  out.insert(out.end(), block.payload.begin(), block.payload.end());
  return out;
}

UserClient::UserClient(const PairingGroup& group, PublicParams params, IdentityKey user_key,
                       Point q_cs, Point q_da)
    : group_(&group),
      params_(std::move(params)),
      user_key_(std::move(user_key)),
      q_cs_(std::move(q_cs)),
      q_da_(std::move(q_da)) {}

SignedBlock UserClient::sign_block(DataBlock block, num::RandomSource& rng) const {
  const Bytes message = block_message_bytes(block);
  const ibc::IbsSignature ibs = ibc::ibs_sign(*group_, user_key_, message, rng);
  BlockSignature sig;
  sig.u = ibs.u;
  sig.sigma_cs = ibc::dv_transform(*group_, ibs, q_cs_).sigma;
  sig.sigma_da = ibc::dv_transform(*group_, ibs, q_da_).sigma;
  return {std::move(block), std::move(sig)};
}

std::vector<SignedBlock> UserClient::sign_blocks(std::vector<DataBlock> blocks,
                                                 num::RandomSource& rng) const {
  std::vector<SignedBlock> out;
  out.reserve(blocks.size());
  for (auto& block : blocks) out.push_back(sign_block(std::move(block), rng));
  return out;
}

Warrant UserClient::make_warrant(std::string_view da_id, std::uint64_t expiry_epoch,
                                 num::RandomSource& rng) const {
  Warrant warrant;
  warrant.delegator_id = user_key_.id;
  warrant.delegatee_id = std::string{da_id};
  warrant.expiry_epoch = expiry_epoch;
  const Bytes body = warrant.body_bytes();
  const ibc::IbsSignature ibs = ibc::ibs_sign(*group_, user_key_, body, rng);
  warrant.authorization = ibc::dv_transform(*group_, ibs, q_cs_);
  return warrant;
}

bool UserClient::verify_root_signature(const Point& q_server, const Commitment& commitment) const {
  const std::span<const std::uint8_t> root_bytes(commitment.root.data(), commitment.root.size());
  return ibc::dv_verify(*group_, q_server, root_bytes, commitment.root_sig_user, user_key_);
}

}  // namespace seccloud::core
