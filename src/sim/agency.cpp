#include "sim/agency.h"

#include <algorithm>

#include "seccloud/client.h"

namespace seccloud::sim {

SimAgency::SimAgency(const PairingGroup& group, ibc::PublicParams params, IdentityKey da_key)
    : group_(&group),
      params_(std::move(params)),
      da_key_(std::move(da_key)),
      da_verifier_(group, da_key_) {}

SimAgency::ComputationAuditResult SimAgency::audit_computation(
    SimCloudServer& server, const Point& q_user, const ComputationTask& task,
    std::uint64_t task_id, const Commitment& commitment, core::Warrant warrant,
    std::size_t sample_size, core::SignatureCheckMode mode, num::RandomSource& rng,
    std::uint64_t epoch) {
  ComputationAuditResult result;

  const core::AuditChallenge challenge =
      core::make_challenge(task.requests.size(), sample_size, std::move(warrant), rng);
  result.challenge_bytes = wire_size_challenge(*group_, challenge);
  traffic_.send(result.challenge_bytes);
  server.traffic().receive(result.challenge_bytes);

  const AuditResponse response = server.handle_audit(q_user, task_id, challenge, epoch);
  result.response_bytes = wire_size_response(*group_, response);
  server.traffic().send(result.response_bytes);
  traffic_.receive(result.response_bytes);

  result.report = core::verify_computation_audit(pairing::ParallelPairingEngine{*group_, 1},
                                                 q_user, server.q_id(), task, commitment,
                                                 challenge, response, da_verifier_, mode);

  // History learning: per-sample transmission cost and the audit's pairing
  // cost (pairings dominate per Table I, so they are the compute proxy).
  const double samples =
      static_cast<double>(std::max<std::size_t>(1, challenge.sample_indices.size()));
  learner_.observe_audit(
      static_cast<double>(result.challenge_bytes + result.response_bytes) / samples,
      static_cast<double>(result.report.ops.pairings));
  return result;
}

core::StorageAuditReport SimAgency::audit_storage(SimCloudServer& server, const Point& q_user,
                                                  const std::string& user_id,
                                                  std::uint64_t universe,
                                                  std::size_t sample_size,
                                                  core::SignatureCheckMode mode,
                                                  num::RandomSource& rng) {
  const std::vector<std::uint64_t> indices = core::sample_indices(universe, sample_size, rng);
  const std::vector<SignedBlock> blocks = server.retrieve_blocks(user_id, indices);
  std::uint64_t bytes = 0;
  for (const auto& sb : blocks) bytes += wire_size_signed_block(*group_, sb);
  server.traffic().send(bytes);
  traffic_.receive(bytes);
  return core::verify_storage_audit(pairing::ParallelPairingEngine{*group_, 1}, q_user, blocks,
                                    da_verifier_, core::VerifierRole::kDesignatedAgency, mode);
}

SimAgency::MultiUserReport SimAgency::audit_storage_multiuser(
    std::span<MultiUserSession> sessions, num::RandomSource& rng) {
  MultiUserReport report;
  report.sessions = sessions.size();

  struct Retrieved {
    std::size_t session = 0;
    std::vector<SignedBlock> blocks;
  };
  std::vector<Retrieved> retrieved;
  retrieved.reserve(sessions.size());

  ibc::BatchAccumulator aggregate{*group_};
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    auto& session = sessions[s];
    const auto indices =
        core::sample_indices(session.universe, session.sample_size, rng);
    Retrieved item;
    item.session = s;
    item.blocks = session.server->retrieve_blocks(session.user_id, indices);
    std::uint64_t bytes = 0;
    for (const auto& sb : item.blocks) bytes += wire_size_signed_block(*group_, sb);
    session.server->traffic().send(bytes);
    traffic_.receive(bytes);
    for (const auto& sb : item.blocks) {
      aggregate.add(session.q_user, core::block_message_bytes(sb.block), sb.sig.for_da());
      ++report.blocks_checked;
    }
    retrieved.push_back(std::move(item));
  }

  group_->reset_counters();
  report.accepted = aggregate.size() == 0 || aggregate.verify(da_verifier_);
  report.pairings_used = group_->counters().pairings;
  if (report.accepted) return report;

  // Locate offenders with per-session (still batched) re-verification.
  group_->reset_counters();
  for (const auto& item : retrieved) {
    ibc::BatchAccumulator per_session{*group_};
    for (const auto& sb : item.blocks) {
      per_session.add(sessions[item.session].q_user, core::block_message_bytes(sb.block),
                      sb.sig.for_da());
    }
    if (per_session.size() > 0 && !per_session.verify(da_verifier_)) {
      report.offending_sessions.push_back(item.session);
    }
  }
  report.pairings_used += group_->counters().pairings;
  return report;
}

}  // namespace seccloud::sim
