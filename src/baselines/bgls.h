// BGLS aggregate signatures (Boneh–Gentry–Lynn–Shacham, EUROCRYPT'03) over
// the symmetric pairing group — the "BGLS [29]" row of Table II:
// individual verification costs 2n pairings, aggregate verification n+1.
#pragma once

#include <span>
#include <string_view>

#include "pairing/group.h"

namespace seccloud::baselines {

using num::BigUint;
using pairing::PairingGroup;
using pairing::Point;

struct BglsKeyPair {
  BigUint x;  ///< private scalar
  Point v;    ///< public key x·P
};

BglsKeyPair bgls_generate(const PairingGroup& group, num::RandomSource& rng);

/// σ = x·H(m).
Point bgls_sign(const PairingGroup& group, const BglsKeyPair& key,
                std::span<const std::uint8_t> message);

/// ê(σ, P) == ê(H(m), v) — 2 pairings.
bool bgls_verify(const PairingGroup& group, const Point& public_key,
                 std::span<const std::uint8_t> message, const Point& signature);

/// σ_agg = Σ σ_i: the signatures are `multi_mul` addends, folded in Jacobian
/// coordinates with one final inversion and no op counted.
Point bgls_aggregate(const PairingGroup& group, std::span<const Point> signatures);

/// One item of an aggregate: who signed what.
struct BglsItem {
  Point public_key;
  std::span<const std::uint8_t> message;
};

/// ê(σ_agg, P) == Π ê(H(m_i), v_i) — n+1 pairings (shared final exp here,
/// but the Miller-loop count is what Table II tracks). Messages must be
/// pairwise distinct for the standard BGLS security argument; this checker
/// enforces it.
bool bgls_aggregate_verify(const PairingGroup& group, std::span<const BglsItem> items,
                           const Point& aggregate);

}  // namespace seccloud::baselines
