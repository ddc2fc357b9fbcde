#include "sim/fleet.h"

#include <algorithm>
#include <stdexcept>

#include "hash/framing.h"
#include "hash/hmac_drbg.h"
#include "obs/metrics.h"
#include "seccloud/client.h"

namespace seccloud::sim {

FleetWorkload::FleetWorkload(const ibc::Sio& sio, FleetConfig config)
    : sio_(&sio), config_(config) {
  if (config_.users == 0) config_.users = 1;
  config_.active_users = std::clamp<std::size_t>(config_.active_users, 1, config_.users);
  if (config_.blocks_per_request == 0) config_.blocks_per_request = 1;
}

std::string FleetWorkload::user_id(std::size_t i) const {
  return config_.id_prefix + std::to_string(i);
}

void FleetWorkload::populate(service::AuditService& svc) {
  // Clients designate Σ/Σ' to whichever identities serve as CS and DA: the
  // service's attestor is the CS; the service itself verifies as the DA
  // unless configured as the CS.
  const bool verifier_is_cs = svc.config().role == service::VerifierRole::kCloudServer;
  const pairing::Point& q_cs = verifier_is_cs ? svc.verifier_q_id() : svc.attestor_q_id();
  const pairing::Point& q_da = verifier_is_cs ? svc.attestor_q_id() : svc.verifier_q_id();
  handles_.clear();
  signers_.clear();
  handles_.reserve(config_.active_users);
  signers_.reserve(config_.active_users);
  // Active prefix: extract real identity keys, bind their Q_ID and prepare
  // each user's block signer against this service's CS and DA.
  for (std::size_t i = 0; i < config_.active_users; ++i) {
    const ibc::IdentityKey key = sio_->extract(user_id(i));
    handles_.push_back(svc.register_user(user_id(i), key.q_id));
    signers_.push_back(core::block_signer(svc.group(), key, q_cs, q_da));
  }
  // The long tail: registry records only — no key extraction, no heap churn
  // beyond the shard arenas.
  for (std::size_t i = config_.active_users; i < config_.users; ++i) {
    svc.register_user(user_id(i));
  }
  // The unkeyed probe: an identity record with no bound key, so any traffic
  // it submits must be rejected by the service's unkeyed filter.
  probe_handle_ = config_.include_unkeyed_probe
                      ? svc.register_user(config_.id_prefix + "unkeyed-probe")
                      : service::kInvalidUser;
  versions_.assign(config_.active_users, 0);
  round_ = 0;
  obs::default_registry()
      .counter("fleet.users_registered")
      .inc(static_cast<std::uint64_t>(config_.users));
  obs::default_registry()
      .counter("fleet.users_keyed")
      .inc(static_cast<std::uint64_t>(config_.active_users));
}

std::vector<service::AuditRequest> FleetWorkload::make_requests(
    const service::AuditService& /*svc*/,
    const std::function<FleetBehavior(std::size_t)>& behavior) {
  if (handles_.empty()) throw std::logic_error("FleetWorkload: populate() first");

  // Workload counters: one lookup per round (not per request), so the epoch
  // snapshot's counter deltas attribute the traffic mix the fleet generated.
  auto& registry = obs::default_registry();
  auto& c_requests = registry.counter("fleet.requests");
  auto& c_blocks = registry.counter("fleet.blocks_signed");
  auto& c_bad_sig = registry.counter("fleet.behavior.bad_signature");
  auto& c_stale = registry.counter("fleet.behavior.stale_replay");
  auto& c_unkeyed = registry.counter("fleet.behavior.unkeyed_probe");

  std::vector<service::AuditRequest> requests;
  requests.reserve(config_.active_users);
  for (std::size_t i = 0; i < config_.active_users; ++i) {
    FleetBehavior b = behavior ? behavior(i) : FleetBehavior::kHonest;
    if (b == FleetBehavior::kUnkeyedProbe && probe_handle_ == service::kInvalidUser) {
      b = FleetBehavior::kHonest;  // probe not configured: degrade gracefully
    }
    c_requests.inc();
    c_blocks.inc(static_cast<std::uint64_t>(config_.blocks_per_request));
    if (b == FleetBehavior::kBadSignature) c_bad_sig.inc();
    if (b == FleetBehavior::kStaleReplay) c_stale.inc();
    if (b == FleetBehavior::kUnkeyedProbe) c_unkeyed.inc();
    service::AuditRequest request;
    // Unkeyed-probe traffic is the i-th user's honest payload submitted
    // under the probe's never-keyed handle — validly signed, but the
    // service cannot resolve a Q_ID for it.
    request.user = b == FleetBehavior::kUnkeyedProbe ? probe_handle_ : handles_[i];
    if (b == FleetBehavior::kStaleReplay) {
      request.version = versions_[i];  // last issued (0 = never audited)
    } else {
      request.version = ++versions_[i];
    }

    std::vector<std::uint8_t> drbg_seed;
    drbg_seed.reserve(32);
    framing::put_le<std::uint64_t>(drbg_seed, config_.seed);
    framing::put_le<std::uint64_t>(drbg_seed, round_);
    framing::put_le<std::uint64_t>(drbg_seed, i);
    hash::HmacDrbg drbg{std::span<const std::uint8_t>{drbg_seed}};

    request.blocks.reserve(config_.blocks_per_request);
    for (std::size_t j = 0; j < config_.blocks_per_request; ++j) {
      const std::uint64_t index = round_ * config_.blocks_per_request + j;
      core::DataBlock block = core::DataBlock::from_value(index, drbg.next_u64());
      core::BlockSignature sig =
          core::sign_block_message(signers_[i], core::block_message_bytes(block), drbg);
      request.blocks.push_back({std::move(block), std::move(sig)});
    }
    if (b == FleetBehavior::kBadSignature) {
      // Flip one payload byte after signing: the signature itself is well
      // formed but no longer matches the block it claims to cover.
      request.blocks[0].block.payload[0] ^= 0x01;
    }
    requests.push_back(std::move(request));
  }
  ++round_;
  return requests;
}

}  // namespace seccloud::sim
