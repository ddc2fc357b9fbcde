// Cloud-server-side protocol primitives (Protocol III, server half):
// honest task execution, Merkle commitment generation with Sig_CS(R), and
// audit-response assembly. The simulator's honest and cheating servers are
// both built from these pieces — a cheating server feeds tampered inputs
// into the same commitment/response machinery.
#pragma once

#include <functional>
#include <optional>

#include "ibc/dvs.h"
#include "seccloud/types.h"

namespace seccloud::core {

using ibc::IdentityKey;
using pairing::PairingGroup;

/// Storage lookup: signed block at position `index`, or nullptr if absent.
using BlockLookup = std::function<const SignedBlock*(std::uint64_t)>;

/// The server's view of one executed task: the claimed results and the
/// commitment tree built over {H(y_i ‖ p_i)}.
class TaskExecution {
 public:
  /// Builds the execution from (possibly tampered) results. Throws
  /// std::invalid_argument if `results` and `task.requests` sizes differ or
  /// the task is empty.
  TaskExecution(ComputationTask task, std::vector<std::uint64_t> results);

  const ComputationTask& task() const noexcept { return task_; }
  const std::vector<std::uint64_t>& results() const noexcept { return results_; }
  const merkle::MerkleTree& tree() const noexcept { return tree_; }

 private:
  ComputationTask task_;
  std::vector<std::uint64_t> results_;
  merkle::MerkleTree tree_;
};

/// Honest execution: evaluates every sub-task over the stored data.
/// Throws std::out_of_range if a referenced position is missing from storage.
TaskExecution execute_task_honestly(ComputationTask task, const BlockLookup& lookup);

/// "Computation Commitment Generation" (Section V-C-2): Y, R, Sig_CS(R).
Commitment make_commitment(const PairingGroup& group, const TaskExecution& execution,
                           const IdentityKey& server_key, const Point& q_da,
                           const Point& q_user, num::RandomSource& rng);

/// Server-side warrant check: DV signature by the user designated to the
/// cloud server, plus expiry (Section V-D "Audit Response Step"). `server`
/// is the cloud server's held verifier, so the check replays its sk_CS
/// Miller lines.
bool warrant_valid(const ibc::DesignatedVerifier& server, const Point& q_user,
                   const Warrant& warrant, std::uint64_t current_epoch);

/// Assembles the audit response for the sampled indices: for each c_l, the
/// input blocks with signatures, the claimed y_{c_l}, and the sibling set.
/// `lookup` supplies whatever the server *stores* (a cheating server passes
/// its corrupted store). Missing blocks are replaced by random-looking
/// garbage with a zeroed signature (the paper's "reply with a random
/// number" storage cheat), so the response always has the right shape.
AuditResponse respond_to_audit(const TaskExecution& execution, const AuditChallenge& challenge,
                               const BlockLookup& lookup, const Point& q_user,
                               const ibc::DesignatedVerifier& server,
                               std::uint64_t current_epoch);

}  // namespace seccloud::core
