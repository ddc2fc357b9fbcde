#include "seccloud/auditor.h"

#include <algorithm>
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

/// The Σ a block carries for `role`'s designated verifier.
ibc::DvSignature signature_for(const SignedBlock& sb, VerifierRole role) {
  return role == VerifierRole::kCloudServer ? sb.sig.for_cs() : sb.sig.for_da();
}

/// Individually verifies every listed block (Eq. 5/7), spreading the
/// pairings across the engine's lanes; each replays the verifier's
/// precomputed sk_B Miller lines. Returns the number of failures — an
/// order-independent sum.
std::size_t count_signature_failures(const ParallelPairingEngine& engine,
                                     const ibc::DesignatedVerifier& verifier,
                                     const Point& q_user,
                                     std::span<const SignedBlock* const> blocks,
                                     VerifierRole role) {
  obs::ProfileSpan span = obs::profile_span("individual_verify");
  if (span) span.arg("blocks", std::to_string(blocks.size()));
  std::vector<std::uint8_t> ok(blocks.size(), 0);
  engine.for_each(blocks.size(), [&](std::size_t i) {
    const SignedBlock& sb = *blocks[i];
    ok[i] = verifier.verify(q_user, block_message_bytes(sb.block), signature_for(sb, role));
  });
  return static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 0));
}

/// Eq. 8/9 over the listed blocks' signatures: the messages are hashed
/// across the engine's lanes, then one aggregate check runs. On a
/// reject, the range walk below that aggregate isolates the exact invalid
/// entries (indices into `blocks`) into `invalid` — at most k·⌈log2 n⌉
/// pairings for k bad of n, versus n for re-verifying every member. Returns
/// whether the aggregate verified; an empty batch does.
bool batch_verify(const ParallelPairingEngine& engine, const ibc::DesignatedVerifier& verifier,
                  const Point& q_user, std::span<const SignedBlock* const> blocks,
                  VerifierRole role, std::vector<std::size_t>& invalid,
                  ibc::BisectionStats& bisection) {
  if (blocks.empty()) return true;
  obs::ProfileSpan batch_span = obs::profile_span("batch_verify");
  if (batch_span) batch_span.arg("entries", std::to_string(blocks.size()));
  // Each entry views its message and Σ; reserved so neither vector moves.
  std::vector<Bytes> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<ibc::BatchEntry> entries;
  messages.reserve(blocks.size());
  sigs.reserve(blocks.size());
  entries.reserve(blocks.size());
  for (const SignedBlock* sb : blocks) {
    messages.push_back(block_message_bytes(sb->block));
    sigs.push_back(signature_for(*sb, role));
    entries.push_back({q_user, messages.back(), &sigs.back()});
  }
  ibc::BatchAccumulator batch{engine.group()};
  batch.add_batch(engine, entries);
  const ibc::BatchAccumulator::Check aggregate = batch.check(verifier);
  batch_span.end();
  if (aggregate.valid) return true;

  obs::ProfileSpan isolate_span = obs::profile_span("bisection_isolate");
  invalid = batch.isolate(verifier, aggregate, &bisection);
  if (isolate_span) {
    isolate_span.arg("entries", std::to_string(blocks.size()));
    isolate_span.arg("invalid", std::to_string(invalid.size()));
  }
  publish_bisection(bisection, invalid.size());
  return false;
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

AuditReport verify_computation_audit(const ParallelPairingEngine& engine,
                                     const Point& q_user, const Point& q_server,
                                     const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const ibc::DesignatedVerifier& da,
                                     SignatureCheckMode mode) {
  const PairingGroup& group = engine.group();
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
  report.root_signature_valid = da.verify(q_server, root_bytes, commitment.root_sig_da);

  // A response must cover exactly the challenged set.
  std::unordered_set<std::uint64_t> challenged(challenge.sample_indices.begin(),
                                               challenge.sample_indices.end());

  // Input-block signatures are checked after the bookkeeping loop, in one
  // sweep across the engine's lanes.
  std::vector<const SignedBlock*> signed_inputs;
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
    } else {
      for (const auto& input : item.inputs) signed_inputs.push_back(&input);
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

  if (mode == SignatureCheckMode::kIndividual) {
    report.signature_failures += count_signature_failures(
        engine, da, q_user, signed_inputs, VerifierRole::kDesignatedAgency);
  } else if (!batch_verify(engine, da, q_user, signed_inputs,
                           VerifierRole::kDesignatedAgency, report.invalid_signature_entries,
                           report.bisection)) {
    report.signature_failures += report.invalid_signature_entries.size();
    if (report.signature_failures == 0) ++report.signature_failures;  // aggregate forged
  }

  report.accepted = report.root_signature_valid && report.signature_failures == 0 &&
                    report.computation_failures == 0 && report.root_failures == 0;
  report.ops = group.counters();
  return report;
}

AuditReport verify_computation_audit(const ParallelPairingEngine& engine,
                                     const Point& q_user, const Point& q_server,
                                     const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const IdentityKey& da_key, SignatureCheckMode mode) {
  return verify_computation_audit(engine, q_user, q_server, task, commitment, challenge,
                                  response, ibc::DesignatedVerifier{engine.group(), da_key},
                                  mode);
}

StorageAuditReport verify_storage_audit(const ParallelPairingEngine& engine,
                                        const Point& q_user,
                                        std::span<const SignedBlock> blocks,
                                        const ibc::DesignatedVerifier& verifier,
                                        VerifierRole role, SignatureCheckMode mode) {
  const PairingGroup& group = engine.group();
  group.reset_counters();
  obs::ProfileSpan span = obs::profile_span("storage_audit");
  if (span) {
    span.arg("blocks", std::to_string(blocks.size()));
    span.arg("mode", mode == SignatureCheckMode::kBatch ? "batch" : "individual");
  }
  StorageAuditReport report;
  report.blocks_checked = blocks.size();
  std::vector<const SignedBlock*> checked;
  checked.reserve(blocks.size());
  for (const auto& sb : blocks) checked.push_back(&sb);

  if (mode == SignatureCheckMode::kIndividual) {
    report.signature_failures =
        count_signature_failures(engine, verifier, q_user, checked, role);
  } else if (!batch_verify(engine, verifier, q_user, checked, role,
                           report.invalid_signature_entries, report.bisection)) {
    // At least one failure: a reject with no single bad member is an
    // aggregate forgery.
    report.signature_failures =
        std::max<std::size_t>(report.invalid_signature_entries.size(), 1);
  }
  report.accepted = report.signature_failures == 0;
  report.ops = group.counters();
  return report;
}

}  // namespace seccloud::core
