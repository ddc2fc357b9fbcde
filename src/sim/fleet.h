// Fleet workload generator for the audit service: populates a sharded
// registry with many cheap identity records, activates a working set of
// keyed users, and fabricates per-epoch audit requests with per-user
// Byzantine behaviors. Deterministic in (seed, round, user index) so every
// run — any thread count, any shard count — replays the same traffic.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ibc/dvs.h"
#include "seccloud/service/service.h"

namespace seccloud::sim {

/// Per-user behavior for one epoch of fleet traffic.
enum class FleetBehavior : std::uint8_t {
  kHonest,
  /// Fresh version, but one block's payload is flipped after signing so its
  /// designated-verifier signature fails Eq. (5)/(7) inside the shared
  /// batch — the isolation path must find it without rejecting neighbors.
  kBadSignature,
  /// Replays the user's last already-audited version (validly signed): must
  /// be filtered by the freshness high-water mark before costing a pairing.
  kStaleReplay,
  /// Submits under the fleet's unkeyed probe identity (registered but never
  /// key-bound): must be filtered as kUnkeyed before costing a pairing.
  /// Requires FleetConfig::include_unkeyed_probe.
  kUnkeyedProbe,
};

struct FleetConfig {
  std::size_t users = 1000;          ///< total registered identities
  std::size_t active_users = 32;     ///< keyed users that submit traffic
  std::size_t blocks_per_request = 4;
  std::uint64_t seed = 1;
  std::string id_prefix = "user-";
  /// When set, populate() additionally registers one record-only
  /// "<prefix>unkeyed-probe" identity that kUnkeyedProbe traffic submits
  /// under, exercising the service's unkeyed filter (and the journey
  /// pipeline's always-sample-rejects rule) deterministically.
  bool include_unkeyed_probe = false;
};

class FleetWorkload {
 public:
  FleetWorkload(const ibc::Sio& sio, FleetConfig config);

  const FleetConfig& config() const noexcept { return config_; }
  std::string user_id(std::size_t i) const;

  /// Registers every identity (records only) and binds keys for the
  /// active-user prefix. Call once per service.
  void populate(service::AuditService& svc);

  /// Handle of the i-th active user (valid after populate()).
  service::UserHandle handle(std::size_t active_index) const {
    return handles_.at(active_index);
  }

  /// Handle of the unkeyed probe identity (valid after populate() with
  /// include_unkeyed_probe; kInvalidUser otherwise).
  service::UserHandle unkeyed_probe_handle() const noexcept { return probe_handle_; }

  /// One request per active user for the next round. `behavior(i)` selects
  /// the i-th active user's behavior (all honest when empty). Honest and
  /// bad-signature users advance their freshness version; stale-replay
  /// users resubmit the last one. `svc` is the service populate() ran
  /// against: the handles and the users' signers (CS and DA) are bound to it.
  std::vector<service::AuditRequest> make_requests(
      const service::AuditService& svc,
      const std::function<FleetBehavior(std::size_t)>& behavior = {});

 private:
  const ibc::Sio* sio_;
  FleetConfig config_;
  std::vector<ibc::DvSigner> signers_;  ///< per active user, for the populated service
  std::vector<service::UserHandle> handles_;
  std::vector<std::uint64_t> versions_;  ///< per-active-user last version issued
  service::UserHandle probe_handle_ = service::kInvalidUser;
  std::uint64_t round_ = 0;
};

}  // namespace seccloud::sim
