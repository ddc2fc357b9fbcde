#include "sim/resale.h"

#include "ibc/dvs.h"
#include "seccloud/client.h"

namespace seccloud::sim {

SaleAttempt attempt_resale(const PairingGroup& group, SimCloudServer& server,
                           const std::string& user_id, const Point& q_user,
                           std::uint64_t index, const BuyerCredentials& buyer) {
  SaleAttempt attempt;
  const auto offer = server.offer_resale(user_id, index);
  if (!offer) return attempt;
  attempt.offer_made = true;

  if (buyer.designated_key != nullptr) {
    // Compromised-verifier buyer: can actually run Eq. (5).
    const core::Bytes message = core::block_message_bytes(offer->goods.block);
    attempt.buyer_authenticated =
        ibc::dv_verify(group, q_user, message, offer->goods.sig.for_cs(),
                       *buyer.designated_key) ||
        ibc::dv_verify(group, q_user, message, offer->goods.sig.for_da(),
                       *buyer.designated_key);
  }
  // A rational buyer pays only for data it could authenticate itself; a
  // transcript from the seller is inadmissible (see make_transcript_pair).
  attempt.sale_completed = attempt.buyer_authenticated;
  return attempt;
}

TranscriptPair make_transcript_pair(const PairingGroup& group,
                                    const ibc::IdentityKey& signer,
                                    const ibc::IdentityKey& verifier,
                                    std::span<const std::uint8_t> message,
                                    num::RandomSource& rng) {
  TranscriptPair pair;
  pair.genuine = ibc::DvSigner{group, signer, std::span{&verifier.q_id, 1},
                               ibc::DvSigner::Uses::kOnce}
                     .sign(message, rng)
                     .for_verifier(0);
  pair.simulated = ibc::dv_simulate(group, signer.q_id, message, verifier, rng);
  pair.both_verify =
      ibc::dv_verify(group, signer.q_id, message, pair.genuine, verifier) &&
      ibc::dv_verify(group, signer.q_id, message, pair.simulated, verifier);
  return pair;
}

}  // namespace seccloud::sim
