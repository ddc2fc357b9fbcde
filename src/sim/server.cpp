#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "seccloud/client.h"

namespace seccloud::sim {

namespace {

bool targets_index(const std::vector<std::uint64_t>& targets, std::uint64_t index) {
  return std::find(targets.begin(), targets.end(), index) != targets.end();
}

}  // namespace

SimCloudServer::SimCloudServer(const PairingGroup& group, IdentityKey key, std::string label,
                               ServerBehavior behavior, std::uint64_t seed)
    : group_(&group),
      key_(std::move(key)),
      verifier_(group, key_),
      label_(std::move(label)),
      behavior_(behavior),
      rng_(seed) {}

std::size_t SimCloudServer::handle_store(const std::string& user_id,
                                         std::vector<SignedBlock> blocks) {
  auto& store = stores_[user_id];
  std::size_t kept = 0;
  for (auto& sb : blocks) {
    traffic_.receive(wire_size_signed_block(*group_, sb));
    if (rng_.next_double() >= behavior_.retain_fraction) continue;  // deleted
    if (rng_.next_double() < behavior_.corrupt_fraction && !sb.block.payload.empty()) {
      sb.block.payload[0] ^= 0xA5;  // malicious modification
    }
    store[sb.block.index] = std::move(sb);
    ++kept;
  }
  return kept;
}

const SignedBlock* SimCloudServer::lookup(const std::string& user_id,
                                          std::uint64_t index) const {
  const auto user_it = stores_.find(user_id);
  if (user_it == stores_.end()) return nullptr;
  const auto block_it = user_it->second.find(index);
  return block_it == user_it->second.end() ? nullptr : &block_it->second;
}

std::size_t SimCloudServer::stored_count(const std::string& user_id) const {
  const auto it = stores_.find(user_id);
  return it == stores_.end() ? 0 : it->second.size();
}

std::vector<SignedBlock> SimCloudServer::retrieve_blocks(
    const std::string& user_id, std::span<const std::uint64_t> indices) const {
  std::vector<SignedBlock> out;
  out.reserve(indices.size());
  for (const auto index : indices) {
    if (const SignedBlock* stored = lookup(user_id, index); stored != nullptr) {
      out.push_back(*stored);
      // Byzantine selective tampering: the payload at a targeted position is
      // flipped at retrieval time, invalidating exactly that signature while
      // the rest of the batch stays clean.
      if (targets_index(behavior_.bad_signature_indices, index) &&
          !out.back().block.payload.empty()) {
        out.back().block.payload[0] ^= 0x3C;
      }
    } else {
      out.push_back(fabricate_block(index));
    }
  }
  return out;
}

core::StorageAuditReport SimCloudServer::screen_ingest(const Point& q_user,
                                                       const std::string& user_id) const {
  std::vector<SignedBlock> blocks;
  if (const auto it = stores_.find(user_id); it != stores_.end()) {
    blocks.reserve(it->second.size());
    for (const auto& [index, sb] : it->second) blocks.push_back(sb);
  }
  return core::verify_storage_audit(pairing::ParallelPairingEngine{*group_, 1}, q_user, blocks,
                                    verifier_, core::VerifierRole::kCloudServer,
                                    core::SignatureCheckMode::kBatch);
}

SignedBlock SimCloudServer::fabricate_block(std::uint64_t index) const {
  SignedBlock fake;
  fake.block.index = index;
  fake.block.payload.resize(8);
  rng_.fill(fake.block.payload);
  fake.sig.u = Point::at_infinity();
  fake.sig.sigma_cs = group_->gt_one();
  fake.sig.sigma_da = group_->gt_one();
  return fake;
}

SimCloudServer::ComputeOutcome SimCloudServer::handle_compute(
    const std::string& user_id, const Point& q_user, const Point& q_da,
    ComputationTask task, num::RandomSource& rng) {
  traffic_.receive(wire_size_task(task));

  const std::size_t n = task.requests.size();
  std::vector<std::uint64_t> results(n, 0);
  std::vector<std::vector<SignedBlock>> presented(n);
  ComputeOutcome outcome;
  outcome.computed_honestly.assign(n, true);
  outcome.positions_honest.assign(n, true);

  const std::uint64_t store_span = stored_count(user_id);
  for (std::size_t i = 0; i < n; ++i) {
    const core::ComputeRequest& request = task.requests[i];

    // --- position cheating (PCS): source operands from shifted positions
    // while claiming the requested ones.
    bool positions_honest = rng_.next_double() < behavior_.honest_position_fraction;

    std::vector<SignedBlock> inputs;
    inputs.reserve(request.positions.size());
    for (const auto pos : request.positions) {
      std::uint64_t effective = pos;
      if (!positions_honest && store_span > 1) {
        effective = (pos + 1 + rng_.next_u64() % (store_span - 1)) % store_span;
      }
      if (const SignedBlock* stored = lookup(user_id, effective); stored != nullptr) {
        SignedBlock presented_block = *stored;
        presented_block.block.index = pos;  // claim the requested position
        inputs.push_back(std::move(presented_block));
      } else {
        // Deleted data → random reply; ground truth: this sub-task is no
        // longer backed by the positions it claims.
        inputs.push_back(fabricate_block(pos));
        positions_honest = false;
      }
    }
    outcome.positions_honest[i] = positions_honest;

    // Byzantine selective tampering, computation side: flip the payload of
    // targeted positions *before* the operands are read, so the computation
    // stays self-consistent and only those signatures fail — exactly what
    // the bisection fallback must attribute.
    for (auto& input : inputs) {
      if (targets_index(behavior_.bad_signature_indices, input.block.index) &&
          !input.block.payload.empty()) {
        input.block.payload[0] ^= 0x3C;
      }
    }

    std::vector<std::uint64_t> operands;
    operands.reserve(inputs.size());
    for (const auto& input : inputs) operands.push_back(input.block.value());
    const std::uint64_t consistent_result =
        operands.empty() ? 0 : core::evaluate(request.kind, operands);

    // --- function cheating (FCS): skip the computation and guess.
    const bool computes = rng_.next_double() < behavior_.honest_compute_fraction;
    outcome.computed_honestly[i] = computes;
    if (computes) {
      results[i] = consistent_result;
    } else {
      // The guess lands in the correct value with probability 1/|R|.
      const bool lucky = std::isfinite(behavior_.guess_range) &&
                         rng_.next_double() < 1.0 / behavior_.guess_range;
      results[i] = lucky ? consistent_result : consistent_result ^ (rng_.next_u64() | 1u);
    }
    outcome.fully_honest =
        outcome.fully_honest && computes && positions_honest;
    presented[i] = std::move(inputs);
  }

  core::TaskExecution execution{std::move(task), std::move(results)};
  outcome.commitment = core::make_commitment(*group_, execution, key_, q_da, q_user, rng);
  outcome.task_id = next_task_id_++;
  traffic_.send(wire_size_commitment(*group_, outcome.commitment));
  tasks_.emplace(outcome.task_id,
                 TaskRecord{std::move(execution), std::move(presented)});
  return outcome;
}

AuditResponse SimCloudServer::handle_audit(const Point& q_user, std::uint64_t task_id,
                                           const AuditChallenge& challenge,
                                           std::uint64_t current_epoch) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end()) {
    throw std::out_of_range("SimCloudServer::handle_audit: unknown task id");
  }
  const TaskRecord* record = &it->second;
  if (behavior_.replay_stale_commit) {
    // Byzantine stale-commit replay: answer from the earliest execution the
    // server recorded — an old transcript it hopes still satisfies the
    // auditor — instead of the challenged task.
    auto earliest = it;
    for (auto t = tasks_.begin(); t != tasks_.end(); ++t) {
      if (t->first < earliest->first) earliest = t;
    }
    record = &earliest->second;
  }

  AuditResponse response;
  response.warrant_accepted =
      core::warrant_valid(verifier_, q_user, challenge.warrant, current_epoch);
  if (!response.warrant_accepted) return response;

  for (const auto index : challenge.sample_indices) {
    if (index >= record->execution.results().size()) continue;
    core::AuditResponseItem item;
    item.request_index = index;
    item.result = record->execution.results()[index];
    item.path = record->execution.tree().prove(index);
    if (behavior_.equivocate_merkle && !item.path.empty()) {
      // Byzantine equivocation: present a perturbed audit path, so the
      // reconstructed root contradicts the committed Sig_CS(R).
      item.path.front().sibling[0] ^= 0x5A;
    }
    item.inputs = record->presented_inputs[index];
    response.items.push_back(std::move(item));
  }
  return response;
}

std::optional<SimCloudServer::ResaleOffer> SimCloudServer::offer_resale(
    const std::string& user_id, std::uint64_t index) const {
  if (!behavior_.attempts_resale) return std::nullopt;
  const SignedBlock* stored = lookup(user_id, index);
  if (stored == nullptr) return std::nullopt;
  return ResaleOffer{*stored, true};
}

}  // namespace seccloud::sim
