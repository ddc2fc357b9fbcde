// A simulated cloud server: the honest protocol engine from src/seccloud
// wrapped with the configurable cheating behaviours of behavior.h.
//
// The server keeps per-user block stores (after applying storage cheats at
// ingest) and per-task records of exactly which operand blocks it will
// present at audit time — which is where position cheating becomes visible.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigint/rng.h"
#include "seccloud/auditor.h"
#include "seccloud/server.h"
#include "sim/behavior.h"
#include "sim/transport.h"

namespace seccloud::sim {

using core::AuditChallenge;
using core::AuditResponse;
using core::Commitment;
using core::ComputationTask;
using core::SignedBlock;
using ibc::IdentityKey;
using pairing::PairingGroup;
using pairing::Point;

class SimCloudServer {
 public:
  /// `key` is the CSP's identity key (Q_CS in the paper — one designated-
  /// verifier identity for the provider); `label` distinguishes the physical
  /// server within the fleet.
  SimCloudServer(const PairingGroup& group, IdentityKey key, std::string label,
                 ServerBehavior behavior, std::uint64_t seed);

  const std::string& label() const noexcept { return label_; }
  const std::string& id() const noexcept { return key_.id; }
  const Point& q_id() const noexcept { return key_.q_id; }
  const ServerBehavior& behavior() const noexcept { return behavior_; }
  /// The epoch adversary re-programs a corrupted server through this.
  void set_behavior(ServerBehavior behavior) noexcept { behavior_ = behavior; }

  // --- Storage service ---------------------------------------------------
  /// Ingests signed blocks, applying the storage-cheating behaviour
  /// (deletion / corruption). Returns the number of blocks actually kept.
  std::size_t handle_store(const std::string& user_id, std::vector<SignedBlock> blocks);

  const SignedBlock* lookup(const std::string& user_id, std::uint64_t index) const;
  std::size_t stored_count(const std::string& user_id) const;

  /// Storage-retrieval service: returns the blocks at `indices`, fabricating
  /// random replies for positions the server no longer stores (the paper's
  /// storage cheat). This is what a storage audit samples.
  std::vector<SignedBlock> retrieve_blocks(const std::string& user_id,
                                           std::span<const std::uint64_t> indices) const;

  /// Ingest-time screening: the server itself batch-verifies the user's
  /// signatures with its own Σ (the Section VI use case where the *server*
  /// is the designated verifier).
  core::StorageAuditReport screen_ingest(const Point& q_user, const std::string& user_id) const;

  // --- Computation service -------------------------------------------------
  struct ComputeOutcome {
    std::uint64_t task_id = 0;
    Commitment commitment;
    /// Ground truth for experiments (not visible to the auditor): per
    /// sub-task, whether it was computed/sourced honestly.
    std::vector<bool> computed_honestly;
    std::vector<bool> positions_honest;
    /// True iff every sub-task was handled honestly.
    bool fully_honest = true;
  };

  /// Executes {F, P} under the current behaviour and commits (Section V-C).
  ComputeOutcome handle_compute(const std::string& user_id, const Point& q_user,
                                const Point& q_da, ComputationTask task,
                                num::RandomSource& rng);

  /// Audit response for a previously executed task (Section V-D steps 1–2).
  AuditResponse handle_audit(const Point& q_user, std::uint64_t task_id,
                             const AuditChallenge& challenge,
                             std::uint64_t current_epoch) const;

  // --- Privacy-cheating model ------------------------------------------
  /// The resale attempt (Section III-B): the server offers a stored block,
  /// its signature, and — since Σ only convinces parties holding sk_CS — a
  /// transcript it claims proves authenticity. Returns the "sales bundle";
  /// see sim::ResaleBuyer for why no rational buyer accepts it.
  struct ResaleOffer {
    SignedBlock goods;
    bool seller_claims_authentic = true;
  };
  std::optional<ResaleOffer> offer_resale(const std::string& user_id,
                                          std::uint64_t index) const;

  TrafficMeter& traffic() noexcept { return traffic_; }
  const TrafficMeter& traffic() const noexcept { return traffic_; }
  const IdentityKey& key() const noexcept { return key_; }

 private:
  struct TaskRecord {
    core::TaskExecution execution;
    /// The operand blocks the server will present for each sub-task.
    std::vector<std::vector<SignedBlock>> presented_inputs;
  };

  /// Fabricates a block for a position the server no longer stores (the
  /// "reply with a random number" storage cheat).
  SignedBlock fabricate_block(std::uint64_t index) const;

  const PairingGroup* group_;
  IdentityKey key_;
  ibc::DesignatedVerifier verifier_;  ///< sk_CS lines: warrants and ingest screening
  std::string label_;
  ServerBehavior behavior_;
  mutable num::Xoshiro256 rng_;
  std::unordered_map<std::string, std::map<std::uint64_t, SignedBlock>> stores_;
  std::unordered_map<std::uint64_t, TaskRecord> tasks_;
  std::uint64_t next_task_id_ = 1;
  TrafficMeter traffic_;
};

}  // namespace seccloud::sim
