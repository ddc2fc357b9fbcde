// Designated-verifier signatures (paper Sections V-B and VI).
//
// The cloud user transforms each identity-based signature (U, V) into
// pairing values Σ = ê(V, Q_B) for each designated verifier B (the cloud
// server CS and the designated agency DA) and ships only (U, Σ, Σ').
// Verification (Eq. 5/7):    Σ == ê(U + H2(U‖m)·Q_ID, sk_B).
// Signing without pairings: V = e·sk_ID with e = (r + H2(U‖m)) mod q, so by
// bilinearity Σ = ê(V, Q_B) = g_B^e with g_B = ê(sk_ID, Q_B) fixed per
// signer and verifier. DvSigner prepares each g_B once, and fixed-base
// tables for Q_ID and every g_B; every signature then costs one fixed-base
// scalar mult (U) and one fixed-base GT exponentiation per verifier.
// Privacy: only a party holding sk_B can check the equation, and that party
// can *simulate* transcripts (dv_simulate), so Σ convinces nobody else —
// this is the paper's privacy-cheating discouragement.
// Batch verification (Eq. 8/9): Σ_A = Π Σ_ij and
//   U_A = Σ_ij (U_ij + h_ij·Q_IDi)  ⇒  ê(U_A, sk_B) == Σ_A,
// costing one pairing for any number of signatures and signers; U_A is one
// signer-grouped multi-scalar multiplication (see BatchAccumulator).
// Pairwise keys: ê(·, sk_B) is a homomorphism in its evaluation argument, so
// ê(s·Q_ID, sk_B) = v^s with v = ê(Q_ID, sk_B), the Sakai–Ohgishi–Kasahara
// key the signer's DvSigner also holds as g_B. A verifier that prepares v once
// per signer raises v to the signer's h-sum in GT instead of multiplying Q_ID
// in G1; every value compared is bit-identical either way.
// BatchAccumulator::add_batch is the one parallel hook: it hashes the entries
// across an engine's lanes and leaves the accumulator bit-identical to
// sequential add() calls, so verdicts, isolated sets, aggregates and
// op-counter totals do not depend on the lane count.
// BatchAccumulator evaluates ê(sk_B, ·) only through a DesignatedVerifier's
// replayed sk_B lines. The IdentityKey forms of dv_batch_verify,
// dv_batch_isolate and dv_cross_user_verify stay as wrappers that build one
// verifier per call: they are the paper-facing entry points, and the
// benchmark's per-layer replay calls them. dv_verify stays the plain-pairing
// Eq. 5/7 reference.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ibc/ibs.h"
#include "pairing/parallel.h"
#include "pairing/precompute.h"

namespace seccloud::ibc {

using pairing::ParallelPairingEngine;

class DesignatedVerifier;

/// A designated-verifier signature for one verifier.
struct DvSignature {
  Point u;   ///< U = r·Q_ID (same as the underlying IBS).
  Gt sigma;  ///< Σ = ê(V, Q_verifier).

  bool operator==(const DvSignature&) const = default;
};

/// Transforms an IBS into designated-verifier form for verifier `q_verifier`.
DvSignature dv_transform(const PairingGroup& group, const IbsSignature& sig,
                         const Point& q_verifier);

/// One designated-verifier signature for several verifiers: the shared U
/// and one Σ per verifier, in the order the signer was built with.
struct DvSignatures {
  Point u;
  std::vector<Gt> sigma;

  DvSignature for_verifier(std::size_t j) const { return {u, sigma.at(j)}; }

  bool operator==(const DvSignatures&) const = default;
};

/// A signer prepared for a fixed list of designated verifiers: construction
/// evaluates g_j = ê(sk_ID, Q_j) with one pairing per verifier and builds a
/// comb for every g_j and, unless the signer is one-shot, a fixed-base table
/// for Q_ID (both uncounted; see DESIGN.md "Fixed-base signing"). sign() then
/// computes U = r·Q_ID and Σ_j = g_j^e over them with no pairing and no
/// variable-base work. For the same RNG draws the output is bit-identical to
/// ibs_sign followed by dv_transform(·, Q_j). Each g_j, and so its comb, is
/// as secret as sk_ID for signatures designated to verifier j: whoever holds
/// it can produce Σ_j for any U. sign() is const and safe to call from
/// several threads at once.
class DvSigner {
 public:
  /// How often the signer will sign. A Q_ID table costs about one
  /// variable-base mult to build and saves about 60 % of one per signature,
  /// so a one-shot signer (a warrant, a commitment) skips it and computes its
  /// one U by variable base. A comb pays for itself on the first signature,
  /// so every signer builds them.
  enum class Uses { kOnce, kRepeated };

  DvSigner(const PairingGroup& group, const IdentityKey& signer,
           std::span<const Point> verifier_q_ids, Uses uses = Uses::kRepeated);

  const Point& q_id() const noexcept { return q_id_; }
  /// Heap bytes of the Q_ID table (if any) and the combs.
  std::size_t table_bytes() const noexcept;

  /// One point_mul and one gt_exp per verifier.
  DvSignatures sign(std::span<const std::uint8_t> message, num::RandomSource& rng) const;

 private:
  const PairingGroup* group_;
  Point q_id_;
  std::optional<ec::FixedBaseTable> q_id_table_;  ///< absent for Uses::kOnce
  std::vector<pairing::GtComb> g_;                ///< over g_j = ê(sk_ID, Q_j)
};

/// Eq. (5)/(7): verifier-side check using the verifier's own secret key.
bool dv_verify(const PairingGroup& group, const Point& signer_q_id,
               std::span<const std::uint8_t> message, const DvSignature& sig,
               const IdentityKey& verifier);

/// Transcript simulation: the designated verifier forges a signature that is
/// *identically distributed* to a real one (the paper's privacy argument —
/// Σ transfers no conviction to third parties).
DvSignature dv_simulate(const PairingGroup& group, const Point& signer_q_id,
                        std::span<const std::uint8_t> message,
                        const IdentityKey& verifier, num::RandomSource& rng);

/// One verified item of a batch: a signer identity point, the message it
/// signed, and its DV signature. With `pairwise_key` set (v = ê(Q_ID, sk_B)
/// from DesignatedVerifier::pairwise_key of the checking verifier) the entry
/// is filed under that key and `signer_q_id` is not read.
struct BatchEntry {
  Point signer_q_id;
  std::span<const std::uint8_t> message;
  const DvSignature* sig = nullptr;
  const Gt* pairwise_key = nullptr;
};

/// Eq. (8)/(9): verifies an arbitrary mixed-signer batch with ONE pairing
/// (vs one pairing per signature individually). Empty batches verify.
/// Builds one DesignatedVerifier for the call.
bool dv_batch_verify(const PairingGroup& group, std::span<const BatchEntry> batch,
                     const IdentityKey& verifier);

// --- batch-rejection bisection ---------------------------------------------

/// Cost accounting for one isolation run.
struct BisectionStats {
  std::size_t oracle_calls = 0;  ///< range evaluations: one grouped MSM + one pairing each
  std::size_t max_depth = 0;     ///< deepest tree level whose ranges were checked (root = 0)

  bool operator==(const BisectionStats&) const = default;
};

/// Batch-verify fallback (Section VI, degradation path): when the one-pairing
/// Eq. (8)/(9) check rejects, isolates exactly which entries are invalid by
/// walking the range tree (BatchAccumulator::isolate). The aggregate itself
/// is evaluated first, then one range per failing internal node, so k bad of
/// n cost at most 1 + k·⌈log2 n⌉ pairings versus n for individual
/// re-verification. Returns the invalid entry indices ascending (empty: the
/// full aggregate verifies). Builds one DesignatedVerifier for the call.
std::vector<std::size_t> dv_batch_isolate(const PairingGroup& group,
                                          std::span<const BatchEntry> batch,
                                          const IdentityKey& verifier,
                                          BisectionStats* stats = nullptr);

// --- cross-user shared batches ---------------------------------------------

/// Verdict for one shared (multi-user) batch checked by the service layer.
struct CrossUserVerdict {
  bool accepted = false;           ///< attestation_valid && aggregate_valid
  bool attestation_valid = false;  ///< CS epoch attestation over the batch digest
  bool aggregate_valid = false;    ///< Eq. (8)/(9) mixed-signer aggregate
  /// Entries isolated by bisection when the aggregate rejects (ascending).
  std::vector<std::size_t> invalid_entries;
  BisectionStats bisection;
};

/// Verifies a shared batch packed from MANY users' designated-verifier
/// signatures with the paper's 2-pairing shape: one pairing checks the cloud
/// server's epoch attestation Sig_CS(batch digest) — the analogue of
/// Sig_CS(R) in the paper's audit protocol — and one pairing checks the
/// mixed-signer aggregate (Eq. 8/9) over every entry regardless of how many
/// users contributed. On an aggregate reject (and `isolate_on_reject`), the
/// range walk starts from that aggregate and isolates the bad entries across
/// user boundaries in at most k·⌈log2 n⌉ extra pairings, so one Byzantine
/// user cannot poison the epoch. Builds one DesignatedVerifier for the call
/// and checks the attestation with its Q_ID form of verify().
CrossUserVerdict dv_cross_user_verify(const PairingGroup& group,
                                      std::span<const BatchEntry> entries,
                                      const IdentityKey& verifier,
                                      const Point& attestor_q_id,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject = true);

/// The same verdict for a long-lived verifier: the attestation is checked
/// through the attestor's pairwise key ê(Q_CS, sk_B), and entries that carry
/// a pairwise key raise it in GT. Verdicts, isolated sets and bisection
/// stats are bit-identical to the IdentityKey form; the op counters trade
/// point_muls and msm_terms for gt_msm_terms.
CrossUserVerdict dv_cross_user_verify(const DesignatedVerifier& verifier,
                                      std::span<const BatchEntry> entries,
                                      const Gt& attestor_pairwise_key,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject = true);

/// A verifier with the fixed-argument Miller precomputation for its secret
/// key sk_B — the same second argument in every Eq. 5/7/8/9 check — so each
/// verification replays recorded line functions instead of recomputing the
/// Jacobian point arithmetic. Results are bit-identical to dv_verify. The
/// verifier keeps sk_B only inside that precomputation.
class DesignatedVerifier {
 public:
  DesignatedVerifier(const PairingGroup& group, const IdentityKey& verifier);

  /// The verifier's public identity point Q_B.
  const Point& q_id() const noexcept { return q_id_; }
  const PairingGroup& group() const noexcept { return *group_; }

  /// Eq. (5)/(7) with the precomputed sk_B pairing.
  bool verify(const Point& signer_q_id, std::span<const std::uint8_t> message,
              const DvSignature& sig) const;
  /// The same check through the signer's pairwise key:
  /// ê(U, sk_B)·v^h == Σ, with no G1 scalar mult.
  bool verify(const Gt& signer_pairwise_key, std::span<const std::uint8_t> message,
              const DvSignature& sig) const;

  /// The signer's pairwise key v = ê(Q_ID, sk_B): one replayed pairing. v is
  /// the GT value the signer's DvSigner prepares for this verifier, so it is
  /// as secret as sk_B for that signer's signatures; never export it.
  Gt pairwise_key(const Point& signer_q_id) const { return fixed_.pair_with(signer_q_id); }

  /// The precomputed ê(sk_B, ·).
  const pairing::FixedPairing& fixed() const noexcept { return fixed_; }

 private:
  const PairingGroup* group_;
  Point q_id_;
  pairing::FixedPairing fixed_;  ///< ê(sk_B, ·) = ê(·, sk_B) by symmetry
};

/// Incremental batch accumulator ("the signature combination can be
/// performed incrementally", Section VI). add() only hashes the entry and
/// files it under its signer: by Q_ID, or by a pairwise key
/// v_j = ê(Q_j, sk_B) prepared by the verifier that will check the batch.
/// With s_j = Σ_{i signed by j} h_i, the checks evaluate
///   A = ê(Σ_i U_i + Σ_{j by Q_ID} s_j·Q_j, sk_B) · Π_{j by key} v_j^{s_j}
/// as one G1 multi-scalar multiplication, one pairing and one GT
/// multi-exponentiation, each with one term per distinct signer. A equals
/// ê(U_A, sk_B) bit for bit whichever way each signer is filed. The h_i are
/// summed as integers, not mod q, so A is exact for every Q_j.
class BatchAccumulator {
 public:
  explicit BatchAccumulator(const PairingGroup& group);

  void add(const Point& signer_q_id, std::span<const std::uint8_t> message,
           const DvSignature& sig);
  /// Files `entry` under its pairwise key when it carries one (then only the
  /// verifier whose pairwise_key produced it may check this accumulator),
  /// else under its Q_ID.
  void add(const BatchEntry& entry);

  /// Bulk add with the hashes on the engine's pool; the state afterwards is
  /// bit-identical to calling add() for each entry in order.
  void add_batch(const ParallelPairingEngine& engine,
                 std::span<const BatchEntry> entries);

  std::size_t size() const noexcept { return h_.size(); }
  /// U_A = Σ (U + h·Q_ID), as one grouped multi-scalar multiplication.
  /// Throws std::logic_error when a signer was filed by pairwise key, whose
  /// Q_ID the accumulator does not hold.
  Point u_aggregate() const;
  /// Σ_A = Π Σ_i.
  const Gt& sigma_aggregate() const noexcept { return sigma_aggregate_; }

  /// One evaluated aggregate check: A = ê(sk_B, U_A), replayed on the
  /// verifier's sk_B lines, and the signer tables it ran on. Isolating a
  /// rejected batch starts from all three, so it pays no second root
  /// evaluation or table build.
  struct Check {
    ec::MsmTable tables;         ///< the signers filed by Q_ID
    pairing::GtPowTable keys;    ///< the signers filed by pairwise key
    Gt paired;   ///< ê(sk_B, U_A)
    bool valid;  ///< paired == Σ_A
  };
  Check check(const DesignatedVerifier& verifier) const;

  /// ê(sk_B, U_A) == Σ_A.
  bool verify(const DesignatedVerifier& verifier) const { return check(verifier).valid; }

  /// The invalid entries (indices in add order) below `root`, this
  /// accumulator's check by the same verifier. The walk splits each failing
  /// range at mid = lo + (hi − lo)/2, evaluates only the left half and
  /// derives the right half's pairing as A(parent)·A(left)⁻¹; Σ products are
  /// always multiplied out. Each evaluation counts one oracle call, so k bad
  /// of n cost at most k·⌈log2 n⌉. Empty when `root` is valid.
  std::vector<std::size_t> isolate(const DesignatedVerifier& verifier, const Check& root,
                                   BisectionStats* stats = nullptr) const;

 private:
  /// Descends into [lo, hi), a failing range whose pairing is `paired`.
  void descend(const DesignatedVerifier& verifier, const Check& root, std::size_t lo,
               std::size_t hi, const Gt& paired, std::size_t depth,
               std::vector<std::size_t>& invalid, BisectionStats& stats) const;
  /// Π_{i∈[lo,hi)} Σ_i.
  Gt sigma_product(std::size_t lo, std::size_t hi) const;
  void file(const BatchEntry& entry, BigUint h);
  /// Files (h, sig) under `slot`, a signer_of_ value.
  void file(std::uint32_t slot, BigUint h, const DvSignature& sig);
  /// The signer_of_ value of a Q_ID or a pairwise key, filing a new signer.
  std::uint32_t signer_slot(const Point& signer_q_id);
  std::uint32_t key_slot(const Gt& pairwise_key);
  /// s_j = Σ_{i∈[lo,hi) signed by j} h_i for every signer, by kind.
  struct SignerSums {
    std::vector<BigUint> by_q_id;  ///< parallel to signers_
    std::vector<BigUint> by_key;   ///< parallel to keys_
  };
  SignerSums signer_sums(std::size_t lo, std::size_t hi) const;
  /// A over [lo, hi): ê(sk_B, Σ U_i + Σ s_j·Q_j) · Π v_j^{s_j}, over the
  /// signer tables of `root`.
  Gt aggregate(const DesignatedVerifier& verifier, const Check& root, std::size_t lo,
               std::size_t hi) const;

  const PairingGroup* group_;
  std::vector<Point> signers_;  ///< distinct Q_ID, first-appearance order
  std::vector<Gt> keys_;        ///< distinct pairwise keys, first-appearance order
  /// Per entry: index into signers_, or into keys_ when the top bit is set.
  std::vector<std::uint32_t> signer_of_;
  std::vector<BigUint> h_;                ///< per entry: H2(U ‖ m)
  std::vector<Point> u_;                  ///< per entry: U
  std::vector<Gt> sigma_;                 ///< per entry: Σ
  Gt sigma_aggregate_;                    ///< Σ_A = Π Σ
};

}  // namespace seccloud::ibc
