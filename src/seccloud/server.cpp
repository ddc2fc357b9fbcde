#include "seccloud/server.h"

#include <stdexcept>

#include "seccloud/client.h"

namespace seccloud::core {
namespace {

merkle::MerkleTree build_commitment_tree(const ComputationTask& task,
                                         const std::vector<std::uint64_t>& results) {
  if (task.requests.size() != results.size()) {
    throw std::invalid_argument("TaskExecution: results/requests size mismatch");
  }
  std::vector<merkle::Digest> leaves;
  leaves.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    leaves.push_back(merkle::MerkleTree::leaf_hash(result_leaf_bytes(task.requests[i], results[i])));
  }
  return merkle::MerkleTree::build(std::move(leaves));
}

}  // namespace

TaskExecution::TaskExecution(ComputationTask task, std::vector<std::uint64_t> results)
    : task_(std::move(task)),
      results_(std::move(results)),
      tree_(build_commitment_tree(task_, results_)) {}

TaskExecution execute_task_honestly(ComputationTask task, const BlockLookup& lookup) {
  std::vector<std::uint64_t> results;
  results.reserve(task.requests.size());
  for (const auto& request : task.requests) {
    std::vector<std::uint64_t> operands;
    operands.reserve(request.positions.size());
    for (const auto pos : request.positions) {
      const SignedBlock* stored = lookup(pos);
      if (stored == nullptr) {
        throw std::out_of_range("execute_task_honestly: missing block at position " +
                                std::to_string(pos));
      }
      operands.push_back(stored->block.value());
    }
    results.push_back(evaluate(request.kind, operands));
  }
  return TaskExecution{std::move(task), std::move(results)};
}

Commitment make_commitment(const PairingGroup& group, const TaskExecution& execution,
                           const IdentityKey& server_key, const Point& q_da,
                           const Point& q_user, num::RandomSource& rng) {
  Commitment commitment;
  commitment.results = execution.results();
  commitment.root = execution.tree().root();
  const std::span<const std::uint8_t> root_bytes(commitment.root.data(), commitment.root.size());
  const Point verifiers[] = {q_da, q_user};
  const ibc::DvSigner signer{group, server_key, verifiers, ibc::DvSigner::Uses::kOnce};
  const ibc::DvSignatures root_sig = signer.sign(root_bytes, rng);
  commitment.root_sig_da = root_sig.for_verifier(0);
  commitment.root_sig_user = root_sig.for_verifier(1);
  return commitment;
}

bool warrant_valid(const ibc::DesignatedVerifier& server, const Point& q_user,
                   const Warrant& warrant, std::uint64_t current_epoch) {
  if (warrant.expiry_epoch < current_epoch) return false;
  return server.verify(q_user, warrant.body_bytes(), warrant.authorization);
}

AuditResponse respond_to_audit(const TaskExecution& execution, const AuditChallenge& challenge,
                               const BlockLookup& lookup, const Point& q_user,
                               const ibc::DesignatedVerifier& server,
                               std::uint64_t current_epoch) {
  AuditResponse response;
  response.warrant_accepted = warrant_valid(server, q_user, challenge.warrant, current_epoch);
  if (!response.warrant_accepted) return response;

  for (const auto index : challenge.sample_indices) {
    if (index >= execution.results().size()) continue;  // malformed challenge entry
    AuditResponseItem item;
    item.request_index = index;
    item.result = execution.results()[index];
    item.path = execution.tree().prove(index);
    const auto& request = execution.task().requests[index];
    item.inputs.reserve(request.positions.size());
    for (const auto pos : request.positions) {
      if (const SignedBlock* stored = lookup(pos); stored != nullptr) {
        item.inputs.push_back(*stored);
      } else {
        // Deleted data: the paper's semi-honest server answers with a random
        // number; the signature slot is garbage and will fail Eq. (7).
        SignedBlock fake;
        fake.block.index = pos;
        fake.block.payload.resize(8);
        num::Xoshiro256 junk{pos ^ 0xDEADBEEFULL};
        junk.fill(fake.block.payload);
        fake.sig.u = Point::at_infinity();
        fake.sig.sigma_cs = server.group().gt_one();
        fake.sig.sigma_da = server.group().gt_one();
        item.inputs.push_back(std::move(fake));
      }
    }
    response.items.push_back(std::move(item));
  }
  return response;
}

}  // namespace seccloud::core
