// Designated-agency auditing (Section V-D and Algorithm 1):
//   1. Audit Challenge — sample t indices uniformly from [0, n);
//   2. Audit Response — produced by the server (see server.h);
//   3. Response Verify — per sample: (a) input-block signatures (Eq. 7),
//      (b) recompute y = f(x) and compare, (c) reconstruct the Merkle root
//      from the leaf and sibling set; plus one check of Sig_CS(R);
//   4. Return — accept iff no check failed.
// Also implements the storage-only audit of Protocol II and the batched
// signature path of Section VI (one pairing per audit instead of one per
// sampled signature).
#pragma once

#include "pairing/parallel.h"
#include "seccloud/server.h"

namespace seccloud::core {

/// How the auditor verifies input-block signatures.
enum class SignatureCheckMode : std::uint8_t {
  kIndividual,  ///< one pairing per signature (the basic scheme, Section V)
  kBatch,       ///< aggregate check, one pairing total (Section VI, Eq. 8/9)
};

/// Why an audit failed — the three detections of Algorithm 1 plus
/// protocol-level rejections.
struct AuditReport {
  bool accepted = false;
  bool warrant_rejected = false;       ///< server refused the warrant
  bool root_signature_valid = false;   ///< Sig_CS(R) under sk_DA
  std::size_t samples_requested = 0;
  std::size_t samples_returned = 0;
  std::size_t signature_failures = 0;  ///< IsSignatureWrong(τ)
  std::size_t computation_failures = 0;  ///< IsComputingWrong(τ)
  std::size_t root_failures = 0;       ///< IsRootWrong(R(τ))
  /// Batch mode only: the exact input-block entries (in presentation order
  /// across the verified samples) whose signatures are invalid, isolated by
  /// bisection when the one-pairing aggregate check rejects. Empty when the
  /// batch verifies, or when the reject is an aggregate forgery with no
  /// single bad member.
  std::vector<std::size_t> invalid_signature_entries;
  ibc::BisectionStats bisection;       ///< cost of the isolation (if any ran)
  pairing::OpCounters ops;             ///< pairing/point-mult cost of this audit

  bool operator==(const AuditReport&) const = default;
};

/// Uniform random sample S = {c_1, ..., c_t} without replacement from
/// [0, n). t is clamped to n.
std::vector<std::uint64_t> sample_indices(std::uint64_t n, std::size_t t,
                                          num::RandomSource& rng);

/// Builds the challenge message (sampling + warrant).
AuditChallenge make_challenge(std::uint64_t task_size, std::size_t sample_size,
                              Warrant warrant, num::RandomSource& rng);

/// Algorithm 1 ("The Probabilistic Sampling Cloud Computation Auditing
/// Protocol"), run by the DA through its held verifier for sk_DA, built on
/// the engine's group. Input-block signature checks (individual mode) and
/// the batch's message hashing run across the engine's lanes, each pairing
/// replaying the sk_DA fixed-argument precomputation. A one-lane engine,
/// ParallelPairingEngine{group, 1}, is the serial path; the report —
/// verdict, failure counts, isolated entries, bisection stats and op totals
/// — is bit-identical for any lane count.
AuditReport verify_computation_audit(const pairing::ParallelPairingEngine& engine,
                                     const Point& q_user, const Point& q_server,
                                     const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const ibc::DesignatedVerifier& da,
                                     SignatureCheckMode mode);
/// The same audit with a verifier built for this call from sk_DA; the
/// report, op totals included, equals the held verifier's.
AuditReport verify_computation_audit(const pairing::ParallelPairingEngine& engine,
                                     const Point& q_user, const Point& q_server,
                                     const ComputationTask& task,
                                     const Commitment& commitment,
                                     const AuditChallenge& challenge,
                                     const AuditResponse& response,
                                     const IdentityKey& da_key, SignatureCheckMode mode);

/// Storage-only audit (Protocol II / "Data Verification", Eq. 5): checks
/// designated-verifier signatures on a set of stored blocks. Works for the
/// CS (ingest-time screening) and the DA alike — pass the matching Σ.
struct StorageAuditReport {
  bool accepted = false;
  std::size_t blocks_checked = 0;
  std::size_t signature_failures = 0;
  /// Batch mode only: per-signer verdict — indices into the audited block
  /// span whose signatures are invalid, isolated by bisection after a batch
  /// reject (see AuditReport::invalid_signature_entries).
  std::vector<std::size_t> invalid_signature_entries;
  ibc::BisectionStats bisection;
  pairing::OpCounters ops;
};

enum class VerifierRole : std::uint8_t { kCloudServer, kDesignatedAgency };

/// Same engine contract as verify_computation_audit above; `verifier` holds
/// the key of `role`'s party.
StorageAuditReport verify_storage_audit(const pairing::ParallelPairingEngine& engine,
                                        const Point& q_user,
                                        std::span<const SignedBlock> blocks,
                                        const ibc::DesignatedVerifier& verifier,
                                        VerifierRole role, SignatureCheckMode mode);

}  // namespace seccloud::core
