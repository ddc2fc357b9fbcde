#include "seccloud/client.h"

#include "hash/framing.h"

namespace seccloud::core {

Bytes block_message_bytes(const DataBlock& block) {
  Bytes out;
  out.reserve(8 + block.payload.size());
  framing::put_le<std::uint64_t>(out, block.index);
  out.insert(out.end(), block.payload.begin(), block.payload.end());
  return out;
}

ibc::DvSigner block_signer(const PairingGroup& group, const IdentityKey& key,
                           const Point& q_cs, const Point& q_da) {
  const Point verifiers[] = {q_cs, q_da};
  return ibc::DvSigner{group, key, verifiers};
}

BlockSignature sign_block_message(const ibc::DvSigner& signer,
                                  std::span<const std::uint8_t> message,
                                  num::RandomSource& rng) {
  ibc::DvSignatures sig = signer.sign(message, rng);
  return {std::move(sig.u), std::move(sig.sigma.at(0)), std::move(sig.sigma.at(1))};
}

UserClient::UserClient(const PairingGroup& group, PublicParams params, IdentityKey user_key,
                       Point q_cs, Point q_da)
    : group_(&group),
      params_(std::move(params)),
      user_key_(std::move(user_key)),
      q_cs_(std::move(q_cs)),
      q_da_(std::move(q_da)) {}

const ibc::DvSigner& UserClient::signer() const {
  std::call_once(signer_->built, [this] {
    signer_->signer.emplace(block_signer(*group_, user_key_, q_cs_, q_da_));
  });
  return *signer_->signer;
}

std::vector<SignedBlock> UserClient::sign_blocks(std::vector<DataBlock> blocks,
                                                 num::RandomSource& rng) const {
  std::vector<SignedBlock> out;
  if (blocks.empty()) return out;
  const ibc::DvSigner& held = signer();
  out.reserve(blocks.size());
  for (auto& block : blocks) {
    BlockSignature sig = sign_block_message(held, block_message_bytes(block), rng);
    out.push_back({std::move(block), std::move(sig)});
  }
  return out;
}

Warrant UserClient::make_warrant(std::string_view da_id, std::uint64_t expiry_epoch,
                                 num::RandomSource& rng) const {
  Warrant warrant;
  warrant.delegator_id = user_key_.id;
  warrant.delegatee_id = std::string{da_id};
  warrant.expiry_epoch = expiry_epoch;
  warrant.authorization = signer().sign(warrant.body_bytes(), rng).for_verifier(0);
  return warrant;
}

bool UserClient::verify_root_signature(const Point& q_server, const Commitment& commitment) const {
  const std::span<const std::uint8_t> root_bytes(commitment.root.data(), commitment.root.size());
  return ibc::dv_verify(*group_, q_server, root_bytes, commitment.root_sig_user, user_key_);
}

}  // namespace seccloud::core
