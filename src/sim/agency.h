// The simulated Designated Agency: wraps the core auditor with traffic
// metering and the cost-history learner so the Theorem-3 optimal sampling
// loop can be driven end to end.
#pragma once

#include "analysis/history.h"
#include "ibc/dvs.h"
#include "ibc/keys.h"
#include "sim/server.h"

namespace seccloud::sim {

class SimAgency {
 public:
  SimAgency(const PairingGroup& group, ibc::PublicParams params, IdentityKey da_key);

  const IdentityKey& key() const noexcept { return da_key_; }
  const Point& q_id() const noexcept { return da_key_.q_id; }

  struct ComputationAuditResult {
    core::AuditReport report;
    std::uint64_t challenge_bytes = 0;
    std::uint64_t response_bytes = 0;
  };

  /// Full Algorithm-1 round against one server: challenge → response →
  /// verification. Traffic is metered on both sides; the learner records
  /// the per-sample transmission cost and the verification op cost.
  ComputationAuditResult audit_computation(SimCloudServer& server, const Point& q_user,
                                           const ComputationTask& task,
                                           std::uint64_t task_id, const Commitment& commitment,
                                           core::Warrant warrant, std::size_t sample_size,
                                           core::SignatureCheckMode mode,
                                           num::RandomSource& rng, std::uint64_t epoch);

  /// Storage audit (Protocol II): sample `sample_size` positions out of
  /// [0, universe), retrieve them, and verify their DV signatures.
  core::StorageAuditReport audit_storage(SimCloudServer& server, const Point& q_user,
                                         const std::string& user_id, std::uint64_t universe,
                                         std::size_t sample_size,
                                         core::SignatureCheckMode mode,
                                         num::RandomSource& rng);

  /// One concurrent audit session of the Section-VI multi-user batch.
  struct MultiUserSession {
    SimCloudServer* server = nullptr;
    Point q_user;
    std::string user_id;
    std::uint64_t universe = 0;
    std::size_t sample_size = 0;
  };

  struct MultiUserReport {
    bool accepted = false;
    std::size_t sessions = 0;
    std::size_t blocks_checked = 0;
    std::uint64_t pairings_used = 0;
    /// Filled only when the aggregate fails: which sessions contained bad
    /// signatures (located by per-session re-verification).
    std::vector<std::size_t> offending_sessions;
  };

  /// Section VI: "cloud servers can concurrently handle the multiple
  /// verification request not only from one user but also from the
  /// different cloud users" — all sessions' sampled signatures are folded
  /// into ONE aggregate (Eq. 8/9), so the whole multi-user audit costs a
  /// single pairing when everyone is honest.
  MultiUserReport audit_storage_multiuser(std::span<MultiUserSession> sessions,
                                          num::RandomSource& rng);

  analysis::CostHistoryLearner& learner() noexcept { return learner_; }
  TrafficMeter& traffic() noexcept { return traffic_; }

 private:
  const PairingGroup* group_;
  ibc::PublicParams params_;
  IdentityKey da_key_;
  ibc::DesignatedVerifier da_verifier_;  ///< sk_DA lines for every audit
  analysis::CostHistoryLearner learner_;
  TrafficMeter traffic_;
};

}  // namespace seccloud::sim
