#include "ibc/dvs.h"

#include <algorithm>
#include <stdexcept>

namespace seccloud::ibc {
namespace {

/// signer_of_ tag: the entry's signer is an index into keys_, not signers_.
constexpr std::uint32_t kByKey = std::uint32_t{1} << 31;

/// U + H2(U‖m)·Q_ID: the point Eq. (5)/(7) pairs with sk_B, as one
/// multi_mul with U as its addend, so the sum is normalised once (one
/// msm_term, no point_mul).
Point dv_target(const PairingGroup& group, const Point& signer_q_id,
                std::span<const std::uint8_t> message, const Point& u) {
  const BigUint h = tag_hash(group, u, message);
  return group.multi_mul(ec::MsmTable{group.curve(), {&signer_q_id, 1}}, {&h, 1}, {&u, 1});
}

BatchAccumulator accumulate(const PairingGroup& group, std::span<const BatchEntry> batch) {
  BatchAccumulator acc{group};
  for (const auto& entry : batch) acc.add(entry);
  return acc;
}

/// Pairing 1, the cloud server's epoch attestation over the batch digest,
/// arrives as `attestation_valid`. Pairing 2 checks the mixed-signer
/// aggregate (Eq. 8/9), any batch size, through `verifier`, which also
/// serves every isolation evaluation below that aggregate.
CrossUserVerdict cross_user_verdict(const BatchAccumulator& acc,
                                    const DesignatedVerifier& verifier,
                                    bool attestation_valid, bool isolate_on_reject) {
  CrossUserVerdict verdict;
  const BatchAccumulator::Check aggregate = acc.check(verifier);
  verdict.attestation_valid = attestation_valid;
  verdict.aggregate_valid = aggregate.valid;
  verdict.accepted = verdict.attestation_valid && verdict.aggregate_valid;
  if (!verdict.aggregate_valid && isolate_on_reject) {
    verdict.invalid_entries = acc.isolate(verifier, aggregate, &verdict.bisection);
  }
  return verdict;
}

}  // namespace

DvSignature dv_transform(const PairingGroup& group, const IbsSignature& sig,
                         const Point& q_verifier) {
  return {sig.u, group.pair(sig.v, q_verifier)};
}

DvSigner::DvSigner(const PairingGroup& group, const IdentityKey& signer,
                   std::span<const Point> verifier_q_ids, Uses uses)
    : group_(&group), q_id_(signer.q_id) {
  if (uses == Uses::kRepeated) q_id_table_.emplace(group.curve(), signer.q_id);
  g_.reserve(verifier_q_ids.size());
  for (const Point& q : verifier_q_ids) g_.emplace_back(group, group.pair(signer.secret, q));
}

std::size_t DvSigner::table_bytes() const noexcept {
  std::size_t bytes = q_id_table_ ? q_id_table_->bytes() : 0;
  for (const pairing::GtComb& comb : g_) bytes += comb.bytes();
  return bytes;
}

DvSignatures DvSigner::sign(std::span<const std::uint8_t> message,
                            num::RandomSource& rng) const {
  IbsNonce nonce = q_id_table_ ? ibs_nonce(*group_, *q_id_table_, message, rng)
                               : ibs_nonce(*group_, q_id_, message, rng);
  DvSignatures out{std::move(nonce.u), {}};
  out.sigma.reserve(g_.size());
  for (const pairing::GtComb& g : g_) out.sigma.push_back(group_->gt_pow(g, nonce.exponent));
  return out;
}

bool dv_verify(const PairingGroup& group, const Point& signer_q_id,
               std::span<const std::uint8_t> message, const DvSignature& sig,
               const IdentityKey& verifier) {
  // ê(sk_B, target) with the Miller loop on sk_B ∈ G1: the Tate pairing for
  // every on-curve target, like DesignatedVerifier and the batch checks. The
  // swapped form pair(target, sk_B) equals it only for a target inside G1;
  // for one tainted by 3-torsion (a hostile bound Q_ID) it is not a pairing.
  return group.pair(verifier.secret, dv_target(group, signer_q_id, message, sig.u)) ==
         sig.sigma;
}

DvSignature dv_simulate(const PairingGroup& group, const Point& signer_q_id,
                        std::span<const std::uint8_t> message,
                        const IdentityKey& verifier, num::RandomSource& rng) {
  // Pick U with the same distribution as a real signature, then solve the
  // verification equation for Σ using the verifier's secret key.
  DvSignature sig;
  sig.u = group.mul(group.random_scalar(rng), signer_q_id);
  sig.sigma = group.pair(verifier.secret, dv_target(group, signer_q_id, message, sig.u));
  return sig;
}

bool dv_batch_verify(const PairingGroup& group, std::span<const BatchEntry> batch,
                     const IdentityKey& verifier) {
  return accumulate(group, batch).verify(DesignatedVerifier{group, verifier});
}

// --- batch-rejection bisection ---------------------------------------------

std::vector<std::size_t> dv_batch_isolate(const PairingGroup& group,
                                          std::span<const BatchEntry> batch,
                                          const IdentityKey& verifier,
                                          BisectionStats* stats) {
  // The fresh root check counts as one more oracle call (none when empty).
  const BatchAccumulator acc = accumulate(group, batch);
  if (acc.size() == 0) return {};
  BisectionStats local;
  BisectionStats& s = stats != nullptr ? *stats : local;
  ++s.oracle_calls;
  const DesignatedVerifier dv{group, verifier};
  return acc.isolate(dv, acc.check(dv), &s);
}

// --- cross-user shared batches ---------------------------------------------

CrossUserVerdict dv_cross_user_verify(const PairingGroup& group,
                                      std::span<const BatchEntry> entries,
                                      const IdentityKey& verifier,
                                      const Point& attestor_q_id,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject) {
  const DesignatedVerifier dv{group, verifier};
  return cross_user_verdict(accumulate(group, entries), dv,
                            dv.verify(attestor_q_id, attestation_message, attestation),
                            isolate_on_reject);
}

CrossUserVerdict dv_cross_user_verify(const DesignatedVerifier& verifier,
                                      std::span<const BatchEntry> entries,
                                      const Gt& attestor_pairwise_key,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject) {
  return cross_user_verdict(
      accumulate(verifier.group(), entries), verifier,
      verifier.verify(attestor_pairwise_key, attestation_message, attestation),
      isolate_on_reject);
}

DesignatedVerifier::DesignatedVerifier(const PairingGroup& group,
                                       const IdentityKey& verifier)
    : group_(&group), q_id_(verifier.q_id), fixed_(group, verifier.secret) {}

bool DesignatedVerifier::verify(const Point& signer_q_id,
                                std::span<const std::uint8_t> message,
                                const DvSignature& sig) const {
  // ê(sk_B, target) = ê(target, sk_B): same GT element as dv_verify compares.
  return fixed_.pair_with(dv_target(*group_, signer_q_id, message, sig.u)) == sig.sigma;
}

bool DesignatedVerifier::verify(const Gt& signer_pairwise_key,
                                std::span<const std::uint8_t> message,
                                const DvSignature& sig) const {
  // ê(U + h·Q_ID, sk_B) = ê(U, sk_B)·v^h: the same GT element dv_verify
  // compares, with the h·Q_ID scalar mult and the affine add moved into GT.
  const BigUint h = tag_hash(*group_, sig.u, message);
  const Gt v_h = group_->gt_multi_pow(pairing::GtPowTable{*group_, {&signer_pairwise_key, 1}},
                                      {&h, 1});
  return group_->gt_mul(fixed_.pair_with(sig.u), v_h) == sig.sigma;
}

BatchAccumulator::BatchAccumulator(const PairingGroup& group)
    : group_(&group), sigma_aggregate_(group.gt_one()) {}

void BatchAccumulator::add(const Point& signer_q_id, std::span<const std::uint8_t> message,
                           const DvSignature& sig) {
  file(signer_slot(signer_q_id), tag_hash(*group_, sig.u, message), sig);
}

void BatchAccumulator::add(const BatchEntry& entry) {
  file(entry, tag_hash(*group_, entry.sig->u, entry.message));
}

void BatchAccumulator::add_batch(const ParallelPairingEngine& engine,
                                 std::span<const BatchEntry> entries) {
  std::vector<BigUint> hashes(entries.size());
  engine.for_each(entries.size(), [&](std::size_t i) {
    hashes[i] = tag_hash(*group_, entries[i].sig->u, entries[i].message);
  });
  for (std::size_t i = 0; i < entries.size(); ++i) file(entries[i], std::move(hashes[i]));
}

std::uint32_t BatchAccumulator::signer_slot(const Point& signer_q_id) {
  auto known = std::find(signers_.begin(), signers_.end(), signer_q_id);
  if (known == signers_.end()) known = signers_.insert(known, signer_q_id);
  return static_cast<std::uint32_t>(known - signers_.begin());
}

std::uint32_t BatchAccumulator::key_slot(const Gt& pairwise_key) {
  auto known = std::find(keys_.begin(), keys_.end(), pairwise_key);
  if (known == keys_.end()) known = keys_.insert(known, pairwise_key);
  return static_cast<std::uint32_t>(known - keys_.begin()) | kByKey;
}

void BatchAccumulator::file(const BatchEntry& entry, BigUint h) {
  file(entry.pairwise_key != nullptr ? key_slot(*entry.pairwise_key)
                                     : signer_slot(entry.signer_q_id),
       std::move(h), *entry.sig);
}

void BatchAccumulator::file(std::uint32_t slot, BigUint h, const DvSignature& sig) {
  signer_of_.push_back(slot);
  h_.push_back(std::move(h));
  u_.push_back(sig.u);
  sigma_.push_back(sig.sigma);
  sigma_aggregate_ = group_->gt_mul(sigma_aggregate_, sig.sigma);
}

BatchAccumulator::SignerSums BatchAccumulator::signer_sums(std::size_t lo,
                                                           std::size_t hi) const {
  SignerSums sums{std::vector<BigUint>(signers_.size()), std::vector<BigUint>(keys_.size())};
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint32_t s = signer_of_[i];
    ((s & kByKey) != 0 ? sums.by_key[s & ~kByKey] : sums.by_q_id[s]) += h_[i];
  }
  return sums;
}

Gt BatchAccumulator::aggregate(const DesignatedVerifier& verifier, const Check& root,
                               std::size_t lo, std::size_t hi) const {
  const SignerSums sums = signer_sums(lo, hi);
  const Gt paired = verifier.fixed().pair_with(group_->multi_mul(
      root.tables, sums.by_q_id, std::span<const Point>{u_}.subspan(lo, hi - lo)));
  if (keys_.empty()) return paired;
  return group_->gt_mul(paired, group_->gt_multi_pow(root.keys, sums.by_key));
}

Point BatchAccumulator::u_aggregate() const {
  if (!keys_.empty()) {
    throw std::logic_error("BatchAccumulator::u_aggregate: signers filed by pairwise key");
  }
  return group_->multi_mul(ec::MsmTable{group_->curve(), signers_},
                           signer_sums(0, size()).by_q_id, u_);
}

Gt BatchAccumulator::sigma_product(std::size_t lo, std::size_t hi) const {
  Gt product = group_->gt_one();
  for (std::size_t i = lo; i < hi; ++i) product = group_->gt_mul(product, sigma_[i]);
  return product;
}

BatchAccumulator::Check BatchAccumulator::check(const DesignatedVerifier& verifier) const {
  Check root{ec::MsmTable{group_->curve(), signers_}, pairing::GtPowTable{*group_, keys_}, {},
             false};
  root.paired = aggregate(verifier, root, 0, size());
  root.valid = root.paired == sigma_aggregate_;
  return root;
}

std::vector<std::size_t> BatchAccumulator::isolate(const DesignatedVerifier& verifier,
                                                   const Check& root,
                                                   BisectionStats* stats) const {
  BisectionStats local;
  std::vector<std::size_t> invalid;
  if (!root.valid) {
    descend(verifier, root, 0, size(), root.paired, 0, invalid,
            stats != nullptr ? *stats : local);
  }
  return invalid;
}

void BatchAccumulator::descend(const DesignatedVerifier& verifier, const Check& root,
                               std::size_t lo, std::size_t hi, const Gt& paired,
                               std::size_t depth, std::vector<std::size_t>& invalid,
                               BisectionStats& stats) const {
  if (hi - lo == 1) {
    invalid.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  stats.max_depth = std::max(stats.max_depth, depth + 1);
  ++stats.oracle_calls;
  const Gt left = aggregate(verifier, root, lo, mid);
  // ê(sk_B, ·) is a homomorphism in its evaluation argument and its values
  // are unitary (so are the pairwise keys, which are pairing values), so the
  // right half's A is the parent's times the conjugate of the left's. The Σ
  // side is never derived this way: an attacker's Σ need not be unitary, or
  // even invertible.
  const Gt right = group_->gt_mul(paired, group_->gt_inv(left));
  if (left != sigma_product(lo, mid)) {
    descend(verifier, root, lo, mid, left, depth + 1, invalid, stats);
  }
  if (right != sigma_product(mid, hi)) {
    descend(verifier, root, mid, hi, right, depth + 1, invalid, stats);
  }
}

}  // namespace seccloud::ibc
