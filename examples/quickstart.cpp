// Quickstart: the complete SecCloud flow on the production-size (512-bit)
// pairing group —
//   1. system initialization (SIO setup + registration),
//   2. secure cloud storage (designated-verifier block signatures),
//   3. secure cloud computation (Merkle commitment over results),
//   4. commitment verification (Algorithm 1 probabilistic sampling audit).
#include <cstdio>

#include "ibc/keys.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/server.h"

using namespace seccloud;

int main() {
  std::printf("=== SecCloud quickstart (512-bit type-A pairing group) ===\n\n");

  // --- 1. System initialization -----------------------------------------
  const pairing::PairingGroup& group = pairing::default_group();
  const pairing::ParallelPairingEngine engine{group, 1};  // one lane: the serial path
  num::Xoshiro256 rng{2010};
  const ibc::Sio sio{group, rng};
  const ibc::IdentityKey user_key = sio.extract("alice@example.com");
  const ibc::IdentityKey csp_key = sio.extract("csp.cloud.example");
  const ibc::IdentityKey da_key = sio.extract("da.audit.example");
  std::printf("[init] SIO online; registered alice, the CSP and the DA\n");

  const core::UserClient client{group, sio.params(), user_key, csp_key.q_id, da_key.q_id};
  // Each checking party prepares its key once: the sk_CS / sk_DA Miller lines.
  const ibc::DesignatedVerifier csp{group, csp_key};
  const ibc::DesignatedVerifier da{group, da_key};

  // --- 2. Secure cloud storage --------------------------------------------
  std::vector<core::DataBlock> blocks;
  for (std::uint64_t i = 0; i < 32; ++i) {
    blocks.push_back(core::DataBlock::from_value(i, 1000 + 3 * i));
  }
  const std::vector<core::SignedBlock> stored = client.sign_blocks(std::move(blocks), rng);
  std::printf("[store] signed and outsourced %zu blocks (U_i, Sigma_i, Sigma'_i each)\n",
              stored.size());

  const auto ingest = core::verify_storage_audit(engine, user_key.q_id, stored, csp,
                                                 core::VerifierRole::kCloudServer,
                                                 core::SignatureCheckMode::kBatch);
  std::printf("[store] CSP ingest batch check: %s (1 pairing for %zu signatures)\n",
              ingest.accepted ? "ACCEPTED" : "REJECTED", stored.size());

  // --- 3. Secure cloud computation ----------------------------------------
  core::ComputationTask task;
  for (std::uint64_t i = 0; i < 8; ++i) {
    core::ComputeRequest req;
    req.kind = static_cast<core::FuncKind>(i % 6);
    for (std::uint64_t j = 0; j < 4; ++j) req.positions.push_back(4 * i + j);
    task.requests.push_back(std::move(req));
  }
  const core::BlockLookup lookup = [&stored](std::uint64_t index) -> const core::SignedBlock* {
    return index < stored.size() ? &stored[index] : nullptr;
  };
  const core::TaskExecution execution = core::execute_task_honestly(task, lookup);
  const core::Commitment commitment =
      core::make_commitment(group, execution, csp_key, da_key.q_id, user_key.q_id, rng);
  std::printf("[compute] CSP executed %zu sub-tasks, committed Merkle root + Sig_CS(R)\n",
              task.requests.size());

  // --- 4. Commitment verification (Algorithm 1) ----------------------------
  const core::Warrant warrant = client.make_warrant(da_key.id, /*expiry_epoch=*/100, rng);
  const core::AuditChallenge challenge =
      core::make_challenge(task.requests.size(), /*sample_size=*/4, warrant, rng);
  const core::AuditResponse response = core::respond_to_audit(
      execution, challenge, lookup, user_key.q_id, csp, /*current_epoch=*/1);
  const core::AuditReport report = core::verify_computation_audit(
      engine, user_key.q_id, csp_key.q_id, task, commitment, challenge, response, da,
      core::SignatureCheckMode::kBatch);

  std::printf("[audit] DA sampled %zu/%zu sub-tasks -> %s\n", report.samples_returned,
              task.requests.size(), report.accepted ? "ACCEPTED" : "REJECTED");
  std::printf("[audit] failures: signature=%zu computation=%zu root=%zu; pairings used=%llu\n",
              report.signature_failures, report.computation_failures, report.root_failures,
              static_cast<unsigned long long>(report.ops.pairings));

  std::printf("\nDone: storage verified, computation audited, privacy preserved by\n"
              "designated verification (only the CSP and DA can check the signatures).\n");
  return report.accepted && ingest.accepted ? 0 : 1;
}
