#include "seccloud/auditor.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "ibc/ibs.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "seccloud/client.h"

namespace seccloud::core {
namespace {

using pairing::ParallelPairingEngine;

/// Bisection depth values are small integers, not latencies — dedicated
/// bucket edges so the histogram resolves depths 0..32 instead of clumping
/// everything into the first latency bucket.
constexpr double kBisectionDepthEdges[] = {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32};

/// Folds one isolation run into the default registry: the depth histogram
/// plus oracle-call / isolated-entry counters.
void publish_bisection(const ibc::BisectionStats& stats, std::size_t invalid) {
  auto& reg = obs::default_registry();
  reg.histogram("audit.bisection_depth", kBisectionDepthEdges)
      .observe(static_cast<double>(stats.max_depth));
  reg.counter("audit.bisection.runs").inc();
  reg.counter("audit.bisection.oracle_calls").inc(stats.oracle_calls);
  reg.counter("audit.bisection.invalid_isolated").inc(invalid);
}

/// Verifies one block's DV signature for the given role. Also enforces that
/// the block occupies the position it claims (the signature binds the index,
/// so a block copied from another position fails either way; this check just
/// gives a crisper failure reason).
bool check_block_signature(const PairingGroup& group, const Point& q_user,
                           const SignedBlock& sb, const IdentityKey& verifier_key,
                           VerifierRole role) {
  const Bytes message = block_message_bytes(sb.block);
  const ibc::DvSignature dv =
      role == VerifierRole::kCloudServer ? sb.sig.for_cs() : sb.sig.for_da();
  return ibc::dv_verify(group, q_user, message, dv, verifier_key);
}

/// Parallel state shared by the engine-aware overloads: the pool plus the
/// verifier key with its fixed-argument sk_B precomputation.
struct ParallelContext {
  const ParallelPairingEngine* engine;
  const ibc::DesignatedVerifier* verifier;
};

/// Individually verifies every listed block, spreading the pairings across
/// the pool (each one replays the precomputed sk_B Miller lines). Returns
/// the number of failures — an order-independent sum.
std::size_t count_signature_failures(const ParallelContext& par, const Point& q_user,
                                     std::span<const SignedBlock* const> blocks,
                                     VerifierRole role) {
  std::vector<std::uint8_t> ok(blocks.size(), 0);
  par.engine->for_each(blocks.size(), [&](std::size_t i) {
    const SignedBlock& sb = *blocks[i];
    const Bytes message = block_message_bytes(sb.block);
    const ibc::DvSignature dv =
        role == VerifierRole::kCloudServer ? sb.sig.for_cs() : sb.sig.for_da();
    ok[i] = par.verifier->verify(q_user, message, dv) ? 1 : 0;
  });
  return static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 0));
}

AuditReport verify_computation_audit_impl(
    const PairingGroup& group, const ParallelContext* par, const Point& q_user,
    const Point& q_server, const ComputationTask& task, const Commitment& commitment,
    const AuditChallenge& challenge, const AuditResponse& response,
    const IdentityKey& da_key, SignatureCheckMode mode) {
  group.reset_counters();
  obs::ProfileSpan span = obs::profile_span("computation_audit");
  if (span) {
    span.arg("samples", std::to_string(challenge.sample_indices.size()));
    span.arg("mode", mode == SignatureCheckMode::kBatch ? "batch" : "individual");
  }
  AuditReport report;
  report.samples_requested = challenge.sample_indices.size();
  report.samples_returned = response.items.size();

  if (!response.warrant_accepted) {
    report.warrant_rejected = true;
    report.ops = group.counters();
    return report;
  }

  // Check Sig_CS(R) once (Eq. 7 applied to the server's identity).
  const std::span<const std::uint8_t> root_bytes(commitment.root.data(), commitment.root.size());
  const Bytes root_copy(root_bytes.begin(), root_bytes.end());
  report.root_signature_valid =
      par != nullptr
          ? par->verifier->verify(q_server, root_copy, commitment.root_sig_da)
          : ibc::dv_verify(group, q_server, root_bytes, commitment.root_sig_da, da_key);

  // A response must cover exactly the challenged set.
  std::unordered_set<std::uint64_t> challenged(challenge.sample_indices.begin(),
                                               challenge.sample_indices.end());

  ibc::BatchAccumulator batch{group};
  std::vector<const SignedBlock*> batched_blocks;
  // Individual-mode signature checks (and batch-mode messages) are deferred
  // so the pairing-heavy work can run as one parallel sweep after the
  // bookkeeping loop; with no engine they are flushed inline below.
  std::vector<Bytes> batched_messages;
  // Merkle-root reconstructions are likewise deferred into one profiled
  // sweep, so the per-phase profile attributes their (hash-only) cost to a
  // "merkle_check" scope instead of smearing it across the bookkeeping loop.
  std::vector<std::pair<const ComputeRequest*, const AuditResponseItem*>> merkle_pending;

  for (const auto& item : response.items) {
    if (challenged.erase(item.request_index) == 0 ||
        item.request_index >= task.requests.size()) {
      // Unrequested or duplicate sample: treat as a root failure (the server
      // is not answering the challenge).
      ++report.root_failures;
      continue;
    }
    const ComputeRequest& request = task.requests[item.request_index];

    // (a) IsSignatureWrong: every input block, individually or batched.
    bool positions_match = item.inputs.size() == request.positions.size();
    for (std::size_t i = 0; positions_match && i < item.inputs.size(); ++i) {
      positions_match = item.inputs[i].block.index == request.positions[i];
    }
    if (!positions_match) {
      ++report.signature_failures;  // wrong/missing positions ⇒ Eq. 7 cannot hold
    } else if (mode == SignatureCheckMode::kIndividual) {
      if (par != nullptr) {
        for (const auto& input : item.inputs) batched_blocks.push_back(&input);
      } else {
        for (const auto& input : item.inputs) {
          if (!check_block_signature(group, q_user, input, da_key,
                                     VerifierRole::kDesignatedAgency)) {
            ++report.signature_failures;
          }
        }
      }
    } else {
      for (const auto& input : item.inputs) {
        if (par == nullptr) {
          batch.add(q_user, block_message_bytes(input.block), input.sig.for_da());
        } else {
          // Hashed across the pool by the add_batch sweep below.
          batched_messages.push_back(block_message_bytes(input.block));
          batched_blocks.push_back(&input);
        }
      }
    }

    // (b) IsComputingWrong: recompute y over the returned inputs.
    if (positions_match) {
      std::vector<std::uint64_t> operands;
      operands.reserve(item.inputs.size());
      for (const auto& input : item.inputs) operands.push_back(input.block.value());
      if (operands.empty() || evaluate(request.kind, operands) != item.result) {
        ++report.computation_failures;
      }
    }

    // (c) IsRootWrong: deferred to the profiled merkle_check sweep below.
    merkle_pending.emplace_back(&request, &item);
  }

  {
    // Reconstruct R from H(y ‖ p) and the sibling set for every retained
    // sample (one profile scope: the Merkle phase of the cost model).
    obs::ProfileSpan merkle_span = obs::profile_span("merkle_check");
    if (merkle_span) merkle_span.arg("leaves", std::to_string(merkle_pending.size()));
    for (const auto& [request, item] : merkle_pending) {
      const merkle::Digest leaf =
          merkle::MerkleTree::leaf_hash(result_leaf_bytes(*request, item->result));
      if (!merkle::MerkleTree::verify(commitment.root, leaf, item->path)) {
        ++report.root_failures;
      }
    }
  }

  // Samples the server silently dropped count as failures.
  report.root_failures += challenged.size();

  if (mode == SignatureCheckMode::kIndividual && par != nullptr) {
    obs::ProfileSpan verify_span = obs::profile_span("individual_verify");
    if (verify_span) verify_span.arg("blocks", std::to_string(batched_blocks.size()));
    report.signature_failures += count_signature_failures(
        *par, q_user, batched_blocks, VerifierRole::kDesignatedAgency);
  }

  if (mode == SignatureCheckMode::kBatch && par != nullptr && !batched_blocks.empty()) {
    std::vector<ibc::DvSignature> sigs;  // for_da() returns by value; keep alive
    std::vector<ibc::BatchEntry> entries;
    sigs.reserve(batched_blocks.size());
    entries.reserve(batched_blocks.size());
    for (std::size_t i = 0; i < batched_blocks.size(); ++i) {
      sigs.push_back(batched_blocks[i]->sig.for_da());
      entries.push_back({q_user, batched_messages[i], &sigs.back()});
    }
    batch.add_batch(*par->engine, entries);
  }

  std::optional<ibc::BatchAccumulator::Check> aggregate;
  if (mode == SignatureCheckMode::kBatch && batch.size() > 0) {
    obs::ProfileSpan batch_span = obs::profile_span("batch_verify");
    if (batch_span) batch_span.arg("entries", std::to_string(batch.size()));
    aggregate = par != nullptr ? batch.check(*par->verifier) : batch.check(da_key);
  }
  if (aggregate && !aggregate->valid) {
    // Batch rejected: walk the range tree below the rejected aggregate to
    // isolate the exact invalid entries — at most k·⌈log2 n⌉ pairings for k
    // bad of n, versus n for re-verifying every member individually.
    obs::ProfileSpan isolate_span = obs::profile_span("bisection_isolate");
    report.invalid_signature_entries =
        par != nullptr ? batch.isolate(*par->verifier, *aggregate, &report.bisection)
                       : batch.isolate(da_key, *aggregate, &report.bisection);
    report.signature_failures += report.invalid_signature_entries.size();
    if (report.signature_failures == 0) ++report.signature_failures;  // aggregate forged
    if (isolate_span) {
      isolate_span.arg("entries", std::to_string(batch.size()));
      isolate_span.arg("invalid",
                       std::to_string(report.invalid_signature_entries.size()));
    }
    publish_bisection(report.bisection, report.invalid_signature_entries.size());
  }

  report.accepted = report.root_signature_valid && report.signature_failures == 0 &&
                    report.computation_failures == 0 && report.root_failures == 0;
  report.ops = group.counters();
  return report;
}

StorageAuditReport verify_storage_audit_impl(const PairingGroup& group,
                                             const ParallelContext* par,
                                             const Point& q_user,
                                             std::span<const SignedBlock> blocks,
                                             const IdentityKey& verifier_key,
                                             VerifierRole role, SignatureCheckMode mode) {
  group.reset_counters();
  obs::ProfileSpan span = obs::profile_span("storage_audit");
  if (span) {
    span.arg("blocks", std::to_string(blocks.size()));
    span.arg("mode", mode == SignatureCheckMode::kBatch ? "batch" : "individual");
  }
  StorageAuditReport report;
  report.blocks_checked = blocks.size();

  if (mode == SignatureCheckMode::kBatch) {
    obs::ProfileSpan batch_span = obs::profile_span("batch_verify");
    if (batch_span) batch_span.arg("entries", std::to_string(blocks.size()));
    ibc::BatchAccumulator batch{group};
    std::vector<Bytes> messages(blocks.size());
    std::vector<ibc::DvSignature> sigs;  // for_cs()/for_da() return by value
    std::vector<ibc::BatchEntry> entries;
    sigs.reserve(blocks.size());
    entries.reserve(blocks.size());
    if (par != nullptr) {
      par->engine->for_each(blocks.size(), [&](std::size_t i) {
        messages[i] = block_message_bytes(blocks[i].block);
      });
    } else {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        messages[i] = block_message_bytes(blocks[i].block);
      }
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      sigs.push_back(role == VerifierRole::kCloudServer ? blocks[i].sig.for_cs()
                                                        : blocks[i].sig.for_da());
      entries.push_back({q_user, messages[i], &sigs.back()});
    }
    if (par != nullptr) {
      batch.add_batch(*par->engine, entries);
    } else {
      for (const auto& entry : entries) {
        batch.add(entry.signer_q_id, entry.message, *entry.sig);
      }
    }
    std::optional<ibc::BatchAccumulator::Check> aggregate;
    if (batch.size() > 0) {
      aggregate = par != nullptr ? batch.check(*par->verifier) : batch.check(verifier_key);
    }
    if (!aggregate || aggregate->valid) {
      report.accepted = true;
      report.ops = group.counters();
      return report;
    }
    // Batch rejected: walk the range tree below the rejected aggregate
    // instead of re-verifying all n individually (at most k·⌈log2 n⌉
    // pairings for k bad of n).
    batch_span.end();
    obs::ProfileSpan isolate_span = obs::profile_span("bisection_isolate");
    report.invalid_signature_entries =
        par != nullptr ? batch.isolate(*par->verifier, *aggregate, &report.bisection)
                       : batch.isolate(verifier_key, *aggregate, &report.bisection);
    report.signature_failures = report.invalid_signature_entries.size();
    if (report.signature_failures == 0) ++report.signature_failures;  // aggregate forged
    if (isolate_span) {
      isolate_span.arg("entries", std::to_string(entries.size()));
      isolate_span.arg("invalid",
                       std::to_string(report.invalid_signature_entries.size()));
    }
    publish_bisection(report.bisection, report.invalid_signature_entries.size());
    report.accepted = false;
    report.ops = group.counters();
    return report;
  }

  obs::ProfileSpan verify_span = obs::profile_span("individual_verify");
  if (verify_span) verify_span.arg("blocks", std::to_string(blocks.size()));
  if (par != nullptr) {
    std::vector<const SignedBlock*> ptrs;
    ptrs.reserve(blocks.size());
    for (const auto& sb : blocks) ptrs.push_back(&sb);
    report.signature_failures += count_signature_failures(*par, q_user, ptrs, role);
  } else {
    for (const auto& sb : blocks) {
      if (!check_block_signature(group, q_user, sb, verifier_key, role)) {
        ++report.signature_failures;
      }
    }
  }
  verify_span.end();
  report.accepted = report.signature_failures == 0;
  report.ops = group.counters();
  return report;
}

}  // namespace

std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t t,
                                          num::RandomSource& rng) {
  t = std::min<std::size_t>(t, n);
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> out;
  out.reserve(t);
  // Floyd's sampling: uniform without replacement in O(t) expected draws.
  for (std::uint64_t j = n - t; j < n; ++j) {
    const std::uint64_t r = rng.next_below(num::BigUint{j + 1}).to_u64();
    if (chosen.insert(r).second) {
      out.push_back(r);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

AuditChallenge make_challenge(std::uint64_t task_size, std::size_t sample_size,
                              Warrant warrant, num::RandomSource& rng) {
  AuditChallenge challenge;
  challenge.sample_indices = sample_indices(task_size, sample_size, rng);
  challenge.warrant = std::move(warrant);
  return challenge;
}

AuditReport verify_computation_audit(const PairingGroup& group, const Point& q_user,
                                     const Point& q_server, const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const IdentityKey& da_key, SignatureCheckMode mode) {
  return verify_computation_audit_impl(group, nullptr, q_user, q_server, task, commitment,
                                       challenge, response, da_key, mode);
}

AuditReport verify_computation_audit(const ParallelPairingEngine& engine,
                                     const Point& q_user, const Point& q_server,
                                     const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const IdentityKey& da_key, SignatureCheckMode mode) {
  const ibc::DesignatedVerifier verifier{engine.group(), da_key};
  const ParallelContext par{&engine, &verifier};
  return verify_computation_audit_impl(engine.group(), &par, q_user, q_server, task,
                                       commitment, challenge, response, da_key, mode);
}

StorageAuditReport verify_storage_audit(const PairingGroup& group, const Point& q_user,
                                        std::span<const SignedBlock> blocks,
                                        const IdentityKey& verifier_key, VerifierRole role,
                                        SignatureCheckMode mode) {
  return verify_storage_audit_impl(group, nullptr, q_user, blocks, verifier_key, role, mode);
}

StorageAuditReport verify_storage_audit(const ParallelPairingEngine& engine,
                                        const Point& q_user,
                                        std::span<const SignedBlock> blocks,
                                        const IdentityKey& verifier_key, VerifierRole role,
                                        SignatureCheckMode mode) {
  const ibc::DesignatedVerifier verifier{engine.group(), verifier_key};
  const ParallelContext par{&engine, &verifier};
  return verify_storage_audit_impl(engine.group(), &par, q_user, blocks, verifier_key,
                                   role, mode);
}

}  // namespace seccloud::core
