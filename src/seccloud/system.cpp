#include "seccloud/system.h"

#include <limits>
#include <stdexcept>

namespace seccloud::core {

SecCloudSystem::SecCloudSystem(const pairing::PairingGroup& group, std::uint64_t seed,
                               std::string csp_id, std::string da_id)
    : group_(&group), rng_(seed), sio_(group, rng_) {
  csp_key_ = sio_.extract(csp_id);
  da_key_ = sio_.extract(da_id);
  server_ = std::unique_ptr<SystemServer>(new SystemServer{*this, csp_key_});
  agency_ = std::unique_ptr<SystemAgency>(new SystemAgency{*this, da_key_});
}

SystemUser SecCloudSystem::register_user(std::string_view id) {
  ibc::IdentityKey key = sio_.extract(id);
  return SystemUser{*this,
                    UserClient{*group_, sio_.params(), std::move(key), csp_key_.q_id,
                               da_key_.q_id}};
}

// --- SystemUser ------------------------------------------------------------

std::vector<SignedBlock> SystemUser::sign_blocks(std::vector<DataBlock> blocks) const {
  return client_.sign_blocks(std::move(blocks), system_->rng_);
}

Warrant SystemUser::delegate_audit(std::uint64_t expiry_epoch) const {
  return client_.make_warrant(system_->da_key_.id, expiry_epoch, system_->rng_);
}

// --- SystemServer ------------------------------------------------------------

SystemServer::SystemServer(SecCloudSystem& system, ibc::IdentityKey key)
    : system_(&system), key_(std::move(key)), verifier_(*system.group_, key_) {}

bool SystemServer::store(const Point& q_user, std::vector<SignedBlock> blocks) {
  const auto screening =
      verify_storage_audit(pairing::ParallelPairingEngine{*system_->group_, 1}, q_user, blocks,
                           verifier_, VerifierRole::kCloudServer, SignatureCheckMode::kBatch);
  if (!screening.accepted) return false;
  for (auto& sb : blocks) {
    const std::uint64_t index = sb.block.index;
    store_[index] = std::move(sb);
  }
  return true;
}

const SignedBlock* SystemServer::find(std::uint64_t index) const {
  const auto it = store_.find(index);
  return it == store_.end() ? nullptr : &it->second;
}

SystemServer::ExecutedTask SystemServer::compute(const Point& q_user, ComputationTask task) {
  const BlockLookup lookup = [this](std::uint64_t index) { return find(index); };
  auto execution = std::make_unique<TaskExecution>(execute_task_honestly(task, lookup));
  ExecutedTask out;
  out.task_id = next_task_id_++;
  out.commitment = make_commitment(*system_->group_, *execution, key_,
                                   system_->da_key_.q_id, q_user, system_->rng_);
  tasks_.emplace(out.task_id, TaskEntry{std::move(task), std::move(execution)});
  return out;
}

AuditResponse SystemServer::respond(const Point& q_user, std::uint64_t task_id,
                                    const AuditChallenge& challenge,
                                    std::uint64_t epoch) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) throw std::out_of_range("SystemServer::respond: unknown task");
  const BlockLookup lookup = [this](std::uint64_t index) { return find(index); };
  return respond_to_audit(*it->second.execution, challenge, lookup, q_user, verifier_, epoch);
}

// --- SystemAgency ---------------------------------------------------------------

SystemAgency::SystemAgency(SecCloudSystem& system, ibc::IdentityKey key)
    : system_(&system), key_(std::move(key)), verifier_(*system.group_, key_) {}

std::size_t SystemAgency::recommended_sample_size(const analysis::CheatModel& suspected,
                                                  double epsilon) const {
  const auto t = analysis::min_sample_size(suspected, epsilon);
  // An undetectable profile means sampling cannot help; audit everything.
  return t.value_or(std::numeric_limits<std::size_t>::max());
}

AuditChallenge SystemAgency::challenge(std::uint64_t task_size, std::size_t samples,
                                       Warrant warrant) const {
  return make_challenge(task_size, samples, std::move(warrant), system_->rng_);
}

AuditReport SystemAgency::audit(const SystemUser& user, SystemServer& server,
                                std::uint64_t task_id, const ComputationTask& task,
                                const Commitment& commitment, std::size_t samples,
                                std::uint64_t epoch) const {
  const Warrant warrant = user.delegate_audit(epoch + 16);
  const AuditChallenge audit_challenge = challenge(task.requests.size(), samples, warrant);
  const AuditResponse response =
      server.respond(user.key().q_id, task_id, audit_challenge, epoch);
  return verify_computation_audit(pairing::ParallelPairingEngine{*system_->group_, 1},
                                  user.key().q_id, server.key().q_id, task, commitment,
                                  audit_challenge, response, verifier_,
                                  SignatureCheckMode::kBatch);
}

}  // namespace seccloud::core
