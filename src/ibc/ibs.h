// Identity-based signature (Cha–Cheon style), the paper's per-block "Data
// Signing" primitive (Section V-B-1):
//   Sign:   r ← Zq*,  U = r·Q_ID,  h = H2(U ‖ m),  V = (r + h)·sk_ID.
//   Verify: ê(V, P) == ê(U + h·Q_ID, P_pub).
// The designated-verifier transform in dvs.h replaces V by pairing values
// Σ = ê(V, Q_verifier), which is what the protocol actually ships.
#pragma once

#include <span>

#include "ibc/keys.h"

namespace seccloud::ibc {

struct IbsSignature {
  Point u;  ///< U = r·Q_ID
  Point v;  ///< V = (r + h)·sk_ID

  bool operator==(const IbsSignature&) const = default;
};

/// h = H2(U ‖ m) ∈ Zq* — the block-tag hash shared by plain and
/// designated-verifier verification.
BigUint tag_hash(const PairingGroup& group, const Point& u,
                 std::span<const std::uint8_t> message);

/// The message-dependent half of a signature: r ← Zq* (one draw from `rng`),
/// U = r·Q_ID and the exponent e = (r + H2(U ‖ m)) mod q that V = e·sk_ID
/// and every Σ_B = ê(sk_ID, Q_B)^e carry. ibs_sign and DvSigner::sign both
/// start here, so they consume the same RNG draws; the table form computes
/// the same U over a prepared Q_ID. Each counts one point_mul.
struct IbsNonce {
  Point u;
  BigUint exponent;
};
IbsNonce ibs_nonce(const PairingGroup& group, const Point& signer_q_id,
                   std::span<const std::uint8_t> message, num::RandomSource& rng);
IbsNonce ibs_nonce(const PairingGroup& group, const ec::FixedBaseTable& signer_q_id,
                   std::span<const std::uint8_t> message, num::RandomSource& rng);

IbsSignature ibs_sign(const PairingGroup& group, const IdentityKey& signer,
                      std::span<const std::uint8_t> message, num::RandomSource& rng);

bool ibs_verify(const PairingGroup& group, const PublicParams& params,
                std::string_view signer_id, std::span<const std::uint8_t> message,
                const IbsSignature& sig);

}  // namespace seccloud::ibc
