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

IbsSignature ibs_sign(const PairingGroup& group, const IdentityKey& signer,
                      std::span<const std::uint8_t> message, num::RandomSource& rng);

/// The same signature from fixed-base tables on the signer's Q_ID and sk_ID
/// (for a long-lived signer): bit-identical to the overload above for the
/// same RNG draws. The sk_ID table is as secret as sk_ID.
IbsSignature ibs_sign(const PairingGroup& group, const ec::FixedBaseTable& q_id,
                      const ec::FixedBaseTable& secret,
                      std::span<const std::uint8_t> message, num::RandomSource& rng);

bool ibs_verify(const PairingGroup& group, const PublicParams& params,
                std::string_view signer_id, std::span<const std::uint8_t> message,
                const IbsSignature& sig);

}  // namespace seccloud::ibc
