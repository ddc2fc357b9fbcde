// FaultyAuditLink: the fault-injecting AuditTransport between the simulated
// DA and a SimCloudServer — every audit message is really encoded
// (seccloud/codec), framed (seccloud/session), and pushed through a
// FaultyChannel in each direction — plus the seeded Monte-Carlo harness that
// runs whole audit sessions over lossy channels.
#pragma once

#include <string>

#include "seccloud/client.h"
#include "seccloud/session.h"
#include "sim/server.h"

namespace seccloud::sim {

using core::Bytes;

/// One DA↔CS link: a forward (challenge) and a reverse (response) lossy
/// channel around the server's protocol handlers. The server answers every
/// intact challenge copy it receives (idempotently), echoing the frame's
/// (session, seq) so the DA can discard stale and duplicate replies.
class FaultyAuditLink final : public core::AuditTransport {
 public:
  /// Both directions share `plan`; their fault streams are independently
  /// seeded from `seed`.
  FaultyAuditLink(const PairingGroup& group, SimCloudServer& server, const FaultPlan& plan,
                  std::uint64_t seed);

  /// Arms the link for computation audits of `task_id` (Algorithm 1).
  void bind_computation(const Point& q_user, std::uint64_t task_id, std::uint64_t epoch);
  /// Arms the link for storage audits of `user_id`'s blocks (Protocol II).
  void bind_storage(const Point& q_user, std::string user_id);

  std::vector<Bytes> exchange(core::MessageType type, const Bytes& frame) override;

  FaultyChannel& forward() noexcept { return forward_; }
  FaultyChannel& reverse() noexcept { return reverse_; }
  /// Injected faults summed over both directions.
  FaultTally tally() const noexcept;

 private:
  std::optional<Bytes> serve(const core::Frame& frame);

  const PairingGroup* group_;
  SimCloudServer* server_;
  FaultyChannel forward_;   ///< DA → CS
  FaultyChannel reverse_;   ///< CS → DA
  Point q_user_;
  std::uint64_t task_id_ = 0;
  std::uint64_t epoch_ = 0;
  bool computation_bound_ = false;
  std::string user_id_;
};

// --- Monte-Carlo over lossy channels ---------------------------------------

/// One faulty-channel experiment: audit a server of the given behaviour over
/// a FaultyChannel with retries, many times.
struct FaultyTrialConfig {
  FaultPlan plan;
  core::RetryPolicy policy;
  ServerBehavior behavior;
  bool storage_audit = false;  ///< false = computation audit (Algorithm 1)
  std::size_t universe = 32;   ///< stored blocks
  std::size_t requests = 12;   ///< sub-tasks per computation task
  std::size_t operands_per_request = 2;
  std::size_t sample_size = 6;
  core::SignatureCheckMode mode = core::SignatureCheckMode::kBatch;
};

struct FaultyTrialStats {
  std::size_t trials = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t inconclusive = 0;
  std::uint64_t attempts = 0;       ///< challenges issued across all trials
  std::uint64_t waited_units = 0;   ///< simulated timeout + backoff time
  std::uint64_t bytes_sent = 0;     ///< DA-side frames offered
  std::uint64_t bytes_received = 0; ///< DA-side frames delivered
  FaultTally channel;               ///< both directions, all trials

  std::size_t conclusive() const noexcept { return accepted + rejected; }
};

/// What every trial of a Monte-Carlo run shares, built once from the seed:
/// the user, CS and DA keys (identities "user@<tag>", "cs@<tag>",
/// "da@<tag>"), the user's signed blocks, the computation task, and the DA's
/// held verifier. `config` must outlive the rig.
struct TrialRig {
  TrialRig(const PairingGroup& g, const FaultyTrialConfig& trial_config,
           std::uint64_t base_seed, const std::string& tag);

  /// The seed every random stream of trial `trial` derives from.
  std::uint64_t trial_seed(std::size_t trial) const noexcept;

  const PairingGroup& group;
  const FaultyTrialConfig& config;
  std::uint64_t seed;
  num::Xoshiro256 setup_rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
  core::UserClient client;
  std::vector<SignedBlock> blocks;
  core::ComputationTask task;
  ibc::DesignatedVerifier da;
};

/// Trial `trial` of a rig: a fresh server of the configured behaviour
/// holding the rig's blocks and a fresh link, both seeded from (rig seed,
/// trial), bound to the protocol under audit. For a computation audit the
/// server has already run the task and the user has issued the DA's
/// warrant. run() may be called again on the same trial to resume a crashed
/// session over the channel the crash left behind.
class AuditTrial {
 public:
  AuditTrial(const TrialRig& rig, std::size_t trial);
  AuditTrial(const AuditTrial&) = delete;
  AuditTrial& operator=(const AuditTrial&) = delete;

  /// Runs a fresh session, or resumes `recovered` when given.
  core::SessionReport run(core::SessionJournal* journal = nullptr,
                          const core::RecoveredSession* recovered = nullptr);

  const FaultyAuditLink& link() const noexcept { return link_; }

 private:
  const TrialRig* rig_;
  num::Xoshiro256 rng_;
  SimCloudServer server_;
  FaultyAuditLink link_;
  core::AuditSession session_;
  Commitment commitment_;
  core::Warrant warrant_;
};

/// Runs `trials` independent audit sessions. Deterministic: the key material
/// derives from `seed` and trial i draws all its randomness (server
/// behaviour, sampling, fault injection) from generators seeded with
/// (seed, i), so the stats are bit-identical across runs.
FaultyTrialStats run_faulty_audit_trials(const PairingGroup& group,
                                         const FaultyTrialConfig& config,
                                         std::size_t trials, std::uint64_t seed);

}  // namespace seccloud::sim
