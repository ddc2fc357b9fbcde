// Cloud-user-side operations (Protocols II and III, user half):
// block signing with the designated-verifier transform, computation request
// construction, warrant issuance, and the user-side commitment check.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "ibc/dvs.h"
#include "seccloud/types.h"

namespace seccloud::core {

using ibc::IdentityKey;
using ibc::PublicParams;
using pairing::PairingGroup;

/// Canonical signed message for block m_i: binds index AND payload, so a
/// server substituting data from another position fails Eq. (5)/(7).
Bytes block_message_bytes(const DataBlock& block);

/// A signer designating the cloud server and the agency, in the (Σ, Σ')
/// order of BlockSignature: two pairings, paid once per signer.
ibc::DvSigner block_signer(const PairingGroup& group, const IdentityKey& key,
                           const Point& q_cs, const Point& q_da);

/// "Data Signing" (Section V-B-1) of one message through a block_signer:
/// U = r·Q_ID, Σ = ê(V, Q_CS), Σ' = ê(V, Q_DA) with V = (r+h)·sk_ID, each Σ
/// computed as a GT power; V itself never exists.
BlockSignature sign_block_message(const ibc::DvSigner& signer,
                                  std::span<const std::uint8_t> message,
                                  num::RandomSource& rng);

class UserClient {
 public:
  /// `q_cs` / `q_da` are the identity points of the designated verifiers
  /// (cloud server and designated agency).
  UserClient(const PairingGroup& group, PublicParams params, IdentityKey user_key,
             Point q_cs, Point q_da);

  const IdentityKey& key() const noexcept { return user_key_; }
  const Point& q_cs() const noexcept { return q_cs_; }
  const Point& q_da() const noexcept { return q_da_; }

  /// "Data Signing" (Section V-B-1) of each block, in order, through the
  /// client's held block signer.
  std::vector<SignedBlock> sign_blocks(std::vector<DataBlock> blocks,
                                       num::RandomSource& rng) const;

  /// Delegates auditing to the DA until `expiry_epoch` (Section V-D): the
  /// warrant is signed by the held block signer and ships its Σ for Q_CS
  /// (the Σ for Q_DA is computed and dropped, one gt_exp, no pairing).
  Warrant make_warrant(std::string_view da_id, std::uint64_t expiry_epoch,
                       num::RandomSource& rng) const;

  /// User-side verification of the server's root signature (the user may
  /// audit directly instead of delegating).
  bool verify_root_signature(const Point& q_server, const Commitment& commitment) const;

 private:
  /// The block_signer, built by whichever call first needs it. Copies of the
  /// client share it, so copying stays cheap and a copy never rebuilds it.
  struct HeldSigner {
    std::once_flag built;
    std::optional<ibc::DvSigner> signer;
  };
  /// The held signer: two pairings, the Q_ID table and two combs on first
  /// use, nothing afterwards. Safe to call from several threads at once.
  const ibc::DvSigner& signer() const;

  const PairingGroup* group_;
  PublicParams params_;
  IdentityKey user_key_;
  Point q_cs_;
  Point q_da_;
  std::shared_ptr<HeldSigner> signer_ = std::make_shared<HeldSigner>();
};

}  // namespace seccloud::core
