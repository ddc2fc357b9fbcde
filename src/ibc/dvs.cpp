#include "ibc/dvs.h"

#include <algorithm>

namespace seccloud::ibc {
namespace {

/// U + H2(U‖m)·Q_ID: the point Eq. (5)/(7) pairs with sk_B, where
/// `mul_q_id(h)` is h·Q_ID.
template <typename MulQId>
Point dv_target_with(const PairingGroup& group, const MulQId& mul_q_id,
                     std::span<const std::uint8_t> message, const Point& u) {
  return group.add(u, mul_q_id(tag_hash(group, u, message)));
}

Point dv_target(const PairingGroup& group, const Point& signer_q_id,
                std::span<const std::uint8_t> message, const Point& u) {
  return dv_target_with(
      group, [&](const BigUint& h) { return group.mul(h, signer_q_id); }, message, u);
}

/// ê(sk_B, ·) with the Miller loop on sk_B, the argument every check fixes.
auto pair_sk(const PairingGroup& group, const IdentityKey& verifier) {
  return [&group, &verifier](const Point& u) { return group.pair(verifier.secret, u); };
}

auto pair_sk(const DesignatedVerifier& verifier) {
  return [&verifier](const Point& u) { return verifier.fixed().pair_with(u); };
}

BatchAccumulator accumulate(const PairingGroup& group, std::span<const BatchEntry> batch) {
  BatchAccumulator acc{group};
  for (const auto& entry : batch) acc.add(entry.signer_q_id, entry.message, *entry.sig);
  return acc;
}

/// Pairing 1, the cloud server's epoch attestation over the batch digest,
/// arrives as `attestation_valid`. Pairing 2 checks the mixed-signer
/// aggregate (Eq. 8/9), any batch size, through `verifier` (an IdentityKey
/// or a DesignatedVerifier), which also serves every isolation evaluation
/// below that aggregate.
template <typename Verifier>
CrossUserVerdict cross_user_verdict(const BatchAccumulator& acc, const Verifier& verifier,
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

/// BatchAccumulator::isolate below a fresh check, counted as one more
/// oracle call (none for an empty batch).
std::vector<std::size_t> isolate_fresh(const BatchAccumulator& acc,
                                       const IdentityKey& verifier, BisectionStats* stats) {
  if (acc.size() == 0) return {};
  BisectionStats local;
  BisectionStats& s = stats != nullptr ? *stats : local;
  ++s.oracle_calls;
  return acc.isolate(verifier, acc.check(verifier), &s);
}

}  // namespace

DvSignature dv_transform(const PairingGroup& group, const IbsSignature& sig,
                         const Point& q_verifier) {
  return {sig.u, group.pair(sig.v, q_verifier)};
}

DvSigner::DvSigner(const PairingGroup& group, const IdentityKey& signer,
                   std::span<const Point> verifier_q_ids)
    : group_(&group), q_id_(signer.q_id) {
  g_.reserve(verifier_q_ids.size());
  for (const Point& q : verifier_q_ids) g_.push_back(group.pair(signer.secret, q));
}

DvSignatures DvSigner::sign(std::span<const std::uint8_t> message,
                            num::RandomSource& rng) const {
  IbsNonce nonce = ibs_nonce(*group_, q_id_, message, rng);
  DvSignatures out{std::move(nonce.u), {}};
  out.sigma.reserve(g_.size());
  for (const Gt& g : g_) out.sigma.push_back(group_->gt_pow(g, nonce.exponent));
  return out;
}

bool dv_verify(const PairingGroup& group, const Point& signer_q_id,
               std::span<const std::uint8_t> message, const DvSignature& sig,
               const IdentityKey& verifier) {
  return group.pair(dv_target(group, signer_q_id, message, sig.u), verifier.secret) ==
         sig.sigma;
}

DvSignature dv_simulate(const PairingGroup& group, const Point& signer_q_id,
                        std::span<const std::uint8_t> message,
                        const IdentityKey& verifier, num::RandomSource& rng) {
  // Pick U with the same distribution as a real signature, then solve the
  // verification equation for Σ using the verifier's secret key.
  DvSignature sig;
  sig.u = group.mul(group.random_scalar(rng), signer_q_id);
  sig.sigma = group.pair(dv_target(group, signer_q_id, message, sig.u), verifier.secret);
  return sig;
}

bool dv_batch_verify(const PairingGroup& group, std::span<const BatchEntry> batch,
                     const IdentityKey& verifier) {
  return accumulate(group, batch).verify(verifier);
}

// --- batch-rejection bisection ---------------------------------------------

std::vector<std::size_t> dv_batch_isolate(const PairingGroup& group,
                                          std::span<const BatchEntry> batch,
                                          const IdentityKey& verifier,
                                          BisectionStats* stats) {
  return isolate_fresh(accumulate(group, batch), verifier, stats);
}

// --- cross-user shared batches ---------------------------------------------

CrossUserVerdict dv_cross_user_verify(const PairingGroup& group,
                                      std::span<const BatchEntry> entries,
                                      const IdentityKey& verifier,
                                      const Point& attestor_q_id,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject) {
  return cross_user_verdict(
      accumulate(group, entries), verifier,
      dv_verify(group, attestor_q_id, attestation_message, attestation, verifier),
      isolate_on_reject);
}

CrossUserVerdict dv_cross_user_verify(const DesignatedVerifier& verifier,
                                      std::span<const BatchEntry> entries,
                                      const ec::FixedBaseTable& attestor_q_id,
                                      std::span<const std::uint8_t> attestation_message,
                                      const DvSignature& attestation,
                                      bool isolate_on_reject) {
  return cross_user_verdict(accumulate(verifier.group(), entries), verifier,
                            verifier.verify(attestor_q_id, attestation_message, attestation),
                            isolate_on_reject);
}

DesignatedVerifier::DesignatedVerifier(const PairingGroup& group,
                                       const IdentityKey& verifier)
    : group_(&group), key_(verifier), fixed_(group, verifier.secret) {}

bool DesignatedVerifier::verify(const Point& signer_q_id,
                                std::span<const std::uint8_t> message,
                                const DvSignature& sig) const {
  // ê(sk_B, target) = ê(target, sk_B): same GT element as dv_verify compares.
  return fixed_.pair_with(dv_target(*group_, signer_q_id, message, sig.u)) == sig.sigma;
}

bool DesignatedVerifier::verify(const ec::FixedBaseTable& signer_q_id,
                                std::span<const std::uint8_t> message,
                                const DvSignature& sig) const {
  const Point target = dv_target_with(
      *group_, [&](const BigUint& h) { return group_->mul(signer_q_id, h); }, message, sig.u);
  return fixed_.pair_with(target) == sig.sigma;
}

BatchAccumulator::BatchAccumulator(const PairingGroup& group)
    : group_(&group), sigma_aggregate_(group.gt_one()) {}

void BatchAccumulator::add(const Point& signer_q_id, std::span<const std::uint8_t> message,
                           const DvSignature& sig) {
  file(signer_q_id, tag_hash(*group_, sig.u, message), sig);
}

void BatchAccumulator::add_batch(const ParallelPairingEngine& engine,
                                 std::span<const BatchEntry> entries) {
  std::vector<BigUint> hashes(entries.size());
  engine.for_each(entries.size(), [&](std::size_t i) {
    hashes[i] = tag_hash(*group_, entries[i].sig->u, entries[i].message);
  });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    file(entries[i].signer_q_id, std::move(hashes[i]), *entries[i].sig);
  }
}

void BatchAccumulator::file(const Point& signer_q_id, BigUint h, const DvSignature& sig) {
  auto known = std::find(signers_.begin(), signers_.end(), signer_q_id);
  if (known == signers_.end()) known = signers_.insert(known, signer_q_id);
  signer_of_.push_back(static_cast<std::uint32_t>(known - signers_.begin()));
  h_.push_back(std::move(h));
  u_.push_back(sig.u);
  sigma_.push_back(sig.sigma);
  sigma_aggregate_ = group_->gt_mul(sigma_aggregate_, sig.sigma);
}

Point BatchAccumulator::aggregate(const ec::MsmTable& tables, std::size_t lo,
                                  std::size_t hi) const {
  std::vector<BigUint> sums(signers_.size());
  for (std::size_t i = lo; i < hi; ++i) sums[signer_of_[i]] += h_[i];
  return group_->multi_mul(tables, sums, std::span<const Point>{u_}.subspan(lo, hi - lo));
}

Point BatchAccumulator::u_aggregate() const {
  return aggregate(ec::MsmTable{group_->curve(), signers_}, 0, size());
}

Gt BatchAccumulator::sigma_product(std::size_t lo, std::size_t hi) const {
  Gt product = group_->gt_one();
  for (std::size_t i = lo; i < hi; ++i) product = group_->gt_mul(product, sigma_[i]);
  return product;
}

template <typename PairSk>
BatchAccumulator::Check BatchAccumulator::check_with(const PairSk& pair_sk) const {
  Check root{ec::MsmTable{group_->curve(), signers_}, {}, false};
  root.paired = pair_sk(aggregate(root.tables, 0, size()));
  root.valid = root.paired == sigma_aggregate_;
  return root;
}

BatchAccumulator::Check BatchAccumulator::check(const IdentityKey& verifier) const {
  return check_with(pair_sk(*group_, verifier));
}

BatchAccumulator::Check BatchAccumulator::check(const DesignatedVerifier& verifier) const {
  return check_with(pair_sk(verifier));
}

template <typename PairSk>
std::vector<std::size_t> BatchAccumulator::isolate_with(const PairSk& pair_sk,
                                                        const Check& root,
                                                        BisectionStats* stats) const {
  BisectionStats local;
  std::vector<std::size_t> invalid;
  if (!root.valid) {
    descend(pair_sk, root.tables, 0, size(), root.paired, 0, invalid,
            stats != nullptr ? *stats : local);
  }
  return invalid;
}

template <typename PairSk>
void BatchAccumulator::descend(const PairSk& pair_sk, const ec::MsmTable& tables,
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
  const Gt left = pair_sk(aggregate(tables, lo, mid));
  // ê(sk_B, ·) is a homomorphism in its evaluation argument and its values
  // are unitary, so the right half's pairing is the parent's times the
  // conjugate of the left's. The Σ side is never derived this way: an
  // attacker's Σ need not be unitary, or even invertible.
  const Gt right = group_->gt_mul(paired, group_->gt_inv(left));
  if (left != sigma_product(lo, mid)) {
    descend(pair_sk, tables, lo, mid, left, depth + 1, invalid, stats);
  }
  if (right != sigma_product(mid, hi)) {
    descend(pair_sk, tables, mid, hi, right, depth + 1, invalid, stats);
  }
}

std::vector<std::size_t> BatchAccumulator::isolate(const IdentityKey& verifier,
                                                   const Check& root,
                                                   BisectionStats* stats) const {
  return isolate_with(pair_sk(*group_, verifier), root, stats);
}

std::vector<std::size_t> BatchAccumulator::isolate(const DesignatedVerifier& verifier,
                                                   const Check& root,
                                                   BisectionStats* stats) const {
  return isolate_with(pair_sk(verifier), root, stats);
}

}  // namespace seccloud::ibc
