// SecCloudSystem — the high-level facade tying the whole protocol together.
//
// For library users who want the paper's flow without wiring the pieces:
//
//   seccloud::core::SecCloudSystem sys{seccloud::pairing::default_group(), 42};
//   auto user   = sys.register_user("alice@example.com");
//   auto server = sys.cloud_server();       // the CSP-side engine
//   auto upload = user.sign_blocks(...);    // Protocol II, user half
//   server.store(upload);                   // Protocol II, server half
//   auto commit = server.compute(task);     // Protocol III
//   auto result = sys.agency().audit(...);  // Algorithm 1
//
// Every lower-level module remains public; this class only owns lifetimes
// (group reference, SIO, DA key) and provides sensible defaults (batch
// signature checking, Fig.4-derived sample sizes).
#pragma once

#include <map>
#include <memory>

#include "analysis/sampling.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/server.h"

namespace seccloud::core {

class SecCloudSystem;

/// A registered cloud user bound to its system.
class SystemUser {
 public:
  const ibc::IdentityKey& key() const noexcept { return client_.key(); }
  const UserClient& client() const noexcept { return client_; }

  std::vector<SignedBlock> sign_blocks(std::vector<DataBlock> blocks) const;
  Warrant delegate_audit(std::uint64_t expiry_epoch) const;

 private:
  friend class SecCloudSystem;
  SystemUser(SecCloudSystem& system, UserClient client)
      : system_(&system), client_(std::move(client)) {}

  SecCloudSystem* system_;
  UserClient client_;
};

/// The CSP-side engine: storage plus computation with commitments.
class SystemServer {
 public:
  const ibc::IdentityKey& key() const noexcept { return key_; }

  /// Ingests blocks after batch-verifying the user's signatures (Eq. 8/9)
  /// through the server's held verifier. Returns false (storing nothing) if
  /// the batch check fails.
  bool store(const Point& q_user, std::vector<SignedBlock> blocks);
  const SignedBlock* find(std::uint64_t index) const;
  std::size_t stored() const noexcept { return store_.size(); }

  struct ExecutedTask {
    std::uint64_t task_id = 0;
    Commitment commitment;
  };
  /// Honest execution + commitment (Protocol III).
  ExecutedTask compute(const Point& q_user, ComputationTask task);

  /// Checks the warrant through the server's held verifier, then answers.
  AuditResponse respond(const Point& q_user, std::uint64_t task_id,
                        const AuditChallenge& challenge, std::uint64_t epoch) const;

 private:
  friend class SecCloudSystem;
  SystemServer(SecCloudSystem& system, ibc::IdentityKey key);

  struct TaskEntry {
    ComputationTask task;
    std::unique_ptr<TaskExecution> execution;
  };

  SecCloudSystem* system_;
  ibc::IdentityKey key_;
  ibc::DesignatedVerifier verifier_;  ///< sk_CS lines, built with the server
  std::map<std::uint64_t, SignedBlock> store_;
  std::map<std::uint64_t, TaskEntry> tasks_;
  std::uint64_t next_task_id_ = 1;
};

/// The designated agency: challenge construction and Algorithm-1 audits.
class SystemAgency {
 public:
  const ibc::IdentityKey& key() const noexcept { return key_; }

  /// Fig. 4 default: the smallest t with Pr[cheat] ≤ epsilon under the given
  /// suspected profile (conservative default: CSC = SSC = 0.5, R = 2 → 33).
  std::size_t recommended_sample_size(const analysis::CheatModel& suspected,
                                      double epsilon = 1e-4) const;

  AuditChallenge challenge(std::uint64_t task_size, std::size_t samples,
                           Warrant warrant) const;

  /// Warrant, challenge, the server's response, then Algorithm 1 in batch
  /// mode through the agency's held verifier.
  AuditReport audit(const SystemUser& user, SystemServer& server, std::uint64_t task_id,
                    const ComputationTask& task, const Commitment& commitment,
                    std::size_t samples, std::uint64_t epoch) const;

 private:
  friend class SecCloudSystem;
  SystemAgency(SecCloudSystem& system, ibc::IdentityKey key);

  SecCloudSystem* system_;
  ibc::IdentityKey key_;
  ibc::DesignatedVerifier verifier_;  ///< sk_DA lines, built with the agency
};

class SecCloudSystem {
 public:
  /// Sets up the SIO, the CSP server key, and the DA under `group`.
  SecCloudSystem(const pairing::PairingGroup& group, std::uint64_t seed,
                 std::string csp_id = "csp.seccloud", std::string da_id = "da.seccloud");

  const pairing::PairingGroup& group() const noexcept { return *group_; }
  const ibc::PublicParams& params() const noexcept { return sio_.params(); }
  num::RandomSource& rng() noexcept { return rng_; }

  SystemUser register_user(std::string_view id);
  SystemServer& cloud_server() noexcept { return *server_; }
  SystemAgency& agency() noexcept { return *agency_; }

 private:
  friend class SystemUser;
  friend class SystemServer;
  friend class SystemAgency;

  const pairing::PairingGroup* group_;
  num::Xoshiro256 rng_;
  ibc::Sio sio_;
  ibc::IdentityKey csp_key_;
  ibc::IdentityKey da_key_;
  std::unique_ptr<SystemServer> server_;
  std::unique_ptr<SystemAgency> agency_;
};

}  // namespace seccloud::core
