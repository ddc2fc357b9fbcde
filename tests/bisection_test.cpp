// Batch-verify fallback: when the one-pairing aggregate check (Eq. 8/9)
// rejects, the derived range walk must return the exact invalid entry set —
// the same set and depth as the textbook bisection with a direct oracle — at
// one range evaluation per failing internal node, measurably cheaper than
// re-verifying all n individually, and the auditor layer must surface the
// per-entry verdict in its reports, bit-identically between the serial and
// parallel paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bigint/rng.h"
#include "bisection_reference.h"
#include "ec/curve.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "ibc/keys.h"
#include "pairing/group.h"
#include "pairing/parallel.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "sim/server.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

// --- the reference divide-and-conquer --------------------------------------

TEST(BisectInvalidTest, IsolatesExactSetWithMonotoneOracle) {
  const std::vector<std::vector<std::size_t>> cases = {
      {}, {0}, {6}, {0, 6}, {2, 3}, {0, 1, 2, 3, 4, 5, 6}};
  for (const auto& bad : cases) {
    const std::size_t n = 7;
    ibc::BisectionStats stats;
    const auto oracle = [&](std::size_t lo, std::size_t hi) {
      return std::none_of(bad.begin(), bad.end(),
                          [&](std::size_t b) { return lo <= b && b < hi; });
    };
    EXPECT_EQ(reference::bisect_invalid(n, oracle, &stats), bad);
    EXPECT_GE(stats.oracle_calls, 1u);
  }
  // Empty input: no oracle calls at all.
  ibc::BisectionStats stats;
  EXPECT_TRUE(
      reference::bisect_invalid(0, [](std::size_t, std::size_t) { return true; }, &stats)
          .empty());
  EXPECT_EQ(stats.oracle_calls, 0u);
}

TEST(BisectInvalidTest, CostIsLogarithmicForFewBadMembers) {
  // k bad of n must cost O(k·log n) oracle calls, far below n for small k.
  const std::size_t n = 1024;
  const std::vector<std::size_t> bad = {37, 512, 900};
  ibc::BisectionStats stats;
  const auto oracle = [&](std::size_t lo, std::size_t hi) {
    return std::none_of(bad.begin(), bad.end(),
                        [&](std::size_t b) { return lo <= b && b < hi; });
  };
  EXPECT_EQ(reference::bisect_invalid(n, oracle, &stats), bad);
  // Each bad member opens at most 2 calls per level plus shared prefixes:
  // comfortably under k·2·(log2 n + 1) = 66, and far under n = 1024.
  EXPECT_LE(stats.oracle_calls, bad.size() * 2 * 11);
  EXPECT_LE(stats.max_depth, 10u);  // log2(1024)
}

// --- DVS batch isolation (the acceptance criterion) ------------------------

struct DvBatch {
  std::vector<core::Bytes> messages;
  std::vector<ibc::DvSignature> sigs;
  std::vector<ibc::BatchEntry> entries;
};

/// Builds n valid (message, Σ) pairs for one verifier, entry i signed by
/// signers[i mod |signers|] (so several signers interleave entry by entry),
/// then corrupts the signatures at `bad` by perturbing Σ.
DvBatch make_batch(const pairing::PairingGroup& g,
                   const std::vector<ibc::IdentityKey>& signers,
                   const ibc::IdentityKey& verifier, std::size_t n,
                   const std::vector<std::size_t>& bad, Xoshiro256& rng) {
  DvBatch batch;
  batch.messages.reserve(n);
  batch.sigs.reserve(n);
  batch.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.messages.push_back({static_cast<std::uint8_t>(i), 'm', 's', 'g',
                              static_cast<std::uint8_t>(i >> 8)});
    const ibc::IbsSignature ibs =
        ibc::ibs_sign(g, signers[i % signers.size()], batch.messages.back(), rng);
    batch.sigs.push_back(ibc::dv_transform(g, ibs, verifier.q_id));
  }
  for (const std::size_t i : bad) {
    batch.sigs[i].sigma = g.gt_mul(batch.sigs[i].sigma, batch.sigs[i].sigma);
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch.entries.push_back(
        {signers[i % signers.size()].q_id, batch.messages[i], &batch.sigs[i]});
  }
  return batch;
}

TEST(DvBatchIsolateTest, SixtyFourEntryBatchWithThreeCorrupted) {
  Xoshiro256 rng{801};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("user@bisect");
  const auto verifier = sio.extract("da@bisect");
  const std::vector<std::size_t> bad = {3, 17, 42};
  const DvBatch batch = make_batch(g, {signer}, verifier, 64, bad, rng);

  ASSERT_FALSE(ibc::dv_batch_verify(g, batch.entries, verifier));

  // Exactly the 3 corrupted entries are isolated; the other 61 are valid.
  g.reset_counters();
  ibc::BisectionStats stats;
  const auto invalid = ibc::dv_batch_isolate(g, batch.entries, verifier, &stats);
  const auto bisect_ops = g.counters();
  EXPECT_EQ(invalid, bad);
  for (std::size_t i = 0; i < 64; ++i) {
    const bool flagged = std::find(invalid.begin(), invalid.end(), i) != invalid.end();
    EXPECT_EQ(ibc::dv_verify(g, signer.q_id, batch.messages[i], *batch.entries[i].sig,
                             verifier),
              !flagged);
  }

  // Pairing accounting: one pairing per oracle call, measurably fewer than
  // the 64 pairings of individual re-verification.
  g.reset_counters();
  for (const auto& entry : batch.entries) {
    (void)ibc::dv_verify(g, entry.signer_q_id, entry.message, *entry.sig, verifier);
  }
  const auto individual_ops = g.counters();
  EXPECT_EQ(individual_ops.pairings, 64u);
  EXPECT_EQ(bisect_ops.pairings, stats.oracle_calls);
  EXPECT_LT(bisect_ops.pairings, individual_ops.pairings);
  EXPECT_LE(stats.max_depth, 6u);  // log2(64)
}

TEST(DvBatchIsolateTest, SerialAndParallelAreBitIdentical) {
  Xoshiro256 rng{802};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("user@bisect-par");
  const auto verifier = sio.extract("da@bisect-par");
  const DvBatch batch = make_batch(g, {signer}, verifier, 24, {1, 9, 20, 21}, rng);
  const ibc::DesignatedVerifier dv{g, verifier};

  g.reset_counters();
  ibc::BisectionStats serial_stats;
  const auto serial = ibc::dv_batch_isolate(g, batch.entries, verifier, &serial_stats);
  const auto serial_ops = g.counters();

  for (const std::size_t threads : {1u, 2u, 4u}) {
    const pairing::ParallelPairingEngine engine{g, threads};
    g.reset_counters();
    ibc::BatchAccumulator acc{g};
    acc.add_batch(engine, batch.entries);
    ibc::BisectionStats par_stats;
    ++par_stats.oracle_calls;  // the root check, counted as dv_batch_isolate counts it
    const auto par = acc.isolate(dv, acc.check(dv), &par_stats);
    const auto par_ops = g.counters();
    EXPECT_EQ(par, serial);
    EXPECT_EQ(par_stats, serial_stats);
    EXPECT_EQ(par_ops.pairings, serial_ops.pairings);
    EXPECT_EQ(par_ops.point_muls, serial_ops.point_muls);
    EXPECT_EQ(par_ops.gt_exps, serial_ops.gt_exps);
  }
}

TEST(DvBatchIsolateTest, CancellationForgeryEvadesTheAggregate) {
  // The known batch-verification caveat: corruptions that cancel in the
  // product Σ_A — swapping two sigmas is the simplest — pass the one-pairing
  // check even though both entries fail individually, so the fallback never
  // triggers. Isolation likewise reports nothing, because the full aggregate
  // is its root oracle. This is exactly why batch mode is a screening tool
  // and a clean isolation result does not certify each member.
  Xoshiro256 rng{803};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("user@forge");
  const auto verifier = sio.extract("da@forge");
  DvBatch batch = make_batch(g, {signer}, verifier, 8, {}, rng);
  std::swap(batch.sigs[2].sigma, batch.sigs[5].sigma);

  EXPECT_FALSE(ibc::dv_verify(g, signer.q_id, batch.messages[2], batch.sigs[2], verifier));
  EXPECT_FALSE(ibc::dv_verify(g, signer.q_id, batch.messages[5], batch.sigs[5], verifier));
  EXPECT_TRUE(ibc::dv_batch_verify(g, batch.entries, verifier));
  EXPECT_TRUE(ibc::dv_batch_isolate(g, batch.entries, verifier, nullptr).empty());

  // The precomputed verifier evaluates the same pairings, so it is fooled
  // the same way.
  const ibc::DesignatedVerifier dv{g, verifier};
  EXPECT_FALSE(dv.verify(signer.q_id, batch.messages[2], batch.sigs[2]));
  EXPECT_FALSE(dv.verify(signer.q_id, batch.messages[5], batch.sigs[5]));
  ibc::BatchAccumulator acc{g};
  for (const auto& entry : batch.entries) acc.add(entry.signer_q_id, entry.message, *entry.sig);
  const ibc::BatchAccumulator::Check root = acc.check(dv);
  EXPECT_TRUE(root.valid);
  EXPECT_TRUE(acc.isolate(dv, root).empty());
}

TEST(DvBatchIsolateTest, HostileSigmasKeepTheirPinnedVerdictsAndAggregate) {
  // Σ crosses the trust boundary unvalidated, so the accumulator must treat
  // every hostile value exactly as the BigUint gt_mul product did: reduce
  // coordinates ≥ p on entry, let Σ = 0 and Σ = ζ = −1 poison exactly the
  // ranges that hold them, and keep the swapped pair's cancellation. The
  // verdicts, isolated sets and serialized Σ aggregates below are literals
  // recorded from the BigUint accumulator.
  Xoshiro256 rng{811};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const std::vector<ibc::IdentityKey> signers{sio.extract("fay@hostile"),
                                              sio.extract("gus@hostile")};
  const auto verifier = sio.extract("da@hostile");
  const ibc::DesignatedVerifier dv{g, verifier};
  const DvBatch honest = make_batch(g, signers, verifier, 8, {}, rng);

  struct Case {
    const char* name;
    void (*corrupt)(std::vector<ibc::DvSignature>&, const field::Fp2Field&);
    bool valid;
    std::vector<std::size_t> invalid;
    const char* aggregate_hex;
  };
  const std::vector<Case> cases = {
      {"coordinates >= p",
       [](std::vector<ibc::DvSignature>& sigs, const field::Fp2Field& f2) {
         const num::BigUint& mod = f2.base().modulus();
         const auto [a, b] = f2.coordinates(sigs[3].sigma);
         sigs[3].sigma = f2.element(a + mod, b + mod + mod);
       },
       true, {}, "16ec8bf8ff35f2b6e23344b77221cab93417b6679b312a70"},
      {"zero",
       [](std::vector<ibc::DvSignature>& sigs, const field::Fp2Field&) {
         sigs[5].sigma = pairing::Gt{};
       },
       false, {5}, "000000000000000000000000000000000000000000000000"},
      {"zeta",
       [](std::vector<ibc::DvSignature>& sigs, const field::Fp2Field& f2) {
         sigs[1].sigma = f2.element(f2.base().modulus() - num::BigUint{1}, num::BigUint{});
       },
       false, {1}, "895604980066cf6532e0b30964de7d2b9c21f6724b395514"},
      {"swapped pair",
       [](std::vector<ibc::DvSignature>& sigs, const field::Fp2Field&) {
         std::swap(sigs[2].sigma, sigs[6].sigma);
       },
       true, {}, "16ec8bf8ff35f2b6e23344b77221cab93417b6679b312a70"},
  };
  for (const Case& c : cases) {
    std::vector<ibc::DvSignature> sigs = honest.sigs;
    c.corrupt(sigs, g.fp2());
    ibc::BatchAccumulator acc{g};
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      acc.add(signers[i % signers.size()].q_id, honest.messages[i], sigs[i]);
    }
    const ibc::BatchAccumulator::Check dv_root = acc.check(dv);
    EXPECT_EQ(dv_root.valid, c.valid) << c.name;
    EXPECT_EQ(acc.isolate(dv, dv_root), c.invalid) << c.name;
    const std::vector<std::uint8_t> aggregate = g.gt_serialize(acc.sigma_aggregate());
    std::string hex;
    for (const std::uint8_t byte : aggregate) {
      static constexpr char kDigits[] = "0123456789abcdef";
      hex += kDigits[byte >> 4];
      hex += kDigits[byte & 0xF];
    }
    EXPECT_EQ(hex, c.aggregate_hex) << c.name;
  }
}

TEST(DvBatchIsolateTest, PrecomputedVerifierIsolatesBitIdentically) {
  // Three interleaved signers, so every bisection range mixes signers and
  // its grouped MSM carries one term per signer. Each fault set pins the
  // verdict, the isolated set, the walk's stats and the op counts of one
  // check plus isolation: one pairing per evaluated range and one MSM term
  // per signer and entry of that range. The literals were recorded from
  // the plain-pairing IdentityKey walk, which the precomputed verifier's
  // replayed lines matched bit for bit.
  struct Pin {
    std::vector<std::size_t> bad;
    bool valid;
    std::vector<std::size_t> invalid;
    ibc::BisectionStats stats;
    pairing::OpCounters ops;
  };
  const auto ops = [](std::uint64_t pairings, std::uint64_t msm_terms) {
    return pairing::OpCounters{.pairings = pairings,
                               .miller_loops = pairings,
                               .final_exps = pairings,
                               .msm_terms = msm_terms};
  };
  const std::vector<Pin> pins = {
      {{}, true, {}, {0, 0}, ops(1, 3)},
      {{0}, false, {0}, {4, 4}, ops(5, 13)},
      {{4, 5}, false, {4, 5}, {5, 5}, ops(6, 14)},
      {{1, 9, 10, 22}, false, {1, 9, 10, 22}, {12, 5}, ops(13, 27)},
      {{23}, false, {23}, {5, 5}, ops(6, 14)},
  };
  Xoshiro256 rng{806};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const std::vector<ibc::IdentityKey> signers{sio.extract("alice@dv"), sio.extract("bob@dv"),
                                              sio.extract("carol@dv")};
  const auto verifier = sio.extract("da@dv");
  const ibc::DesignatedVerifier dv{g, verifier};
  for (const Pin& pin : pins) {
    const DvBatch batch = make_batch(g, signers, verifier, 24, pin.bad, rng);
    ibc::BatchAccumulator acc{g};
    for (const auto& entry : batch.entries) {
      acc.add(entry.signer_q_id, entry.message, *entry.sig);
    }

    g.reset_counters();
    ibc::BisectionStats stats;
    const ibc::BatchAccumulator::Check root = acc.check(dv);
    const auto invalid = acc.isolate(dv, root, &stats);
    const auto ops_used = g.counters();

    EXPECT_EQ(root.valid, pin.valid);
    EXPECT_EQ(invalid, pin.invalid);
    EXPECT_EQ(stats, pin.stats);
    EXPECT_EQ(ops_used, pin.ops);
  }
}

TEST(DvBatchIsolateTest, PrecomputedCrossUserVerdictIsBitIdentical) {
  // The service's form — sk_B lines plus the attestor's pairwise key
  // ê(Q_CS, sk_B) — against the IdentityKey form, on an honest batch, a
  // batch with bad members, and a forged attestation.
  Xoshiro256 rng{807};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const std::vector<ibc::IdentityKey> signers{sio.extract("dan@xu"), sio.extract("eve@xu")};
  const auto verifier = sio.extract("da@xu");
  const auto attestor = sio.extract("cs@xu");
  const ibc::DesignatedVerifier dv{g, verifier};
  const pairing::Gt attestor_key = dv.pairwise_key(attestor.q_id);
  const core::Bytes statement{'e', 'p', 'o', 'c', 'h'};
  const ibc::DvSignature attestation = ibc::dv_transform(
      g, ibc::ibs_sign(g, attestor, statement, rng), verifier.q_id);
  ibc::DvSignature forged = attestation;
  forged.sigma = g.gt_mul(forged.sigma, forged.sigma);

  for (const std::vector<std::size_t>& bad :
       std::vector<std::vector<std::size_t>>{{}, {3, 12}}) {
    const DvBatch batch = make_batch(g, signers, verifier, 16, bad, rng);
    for (const bool genuine : {true, false}) {
      const ibc::DvSignature& att = genuine ? attestation : forged;
      g.reset_counters();
      const ibc::CrossUserVerdict by_key = ibc::dv_cross_user_verify(
          g, batch.entries, verifier, attestor.q_id, statement, att);
      const auto key_ops = g.counters();
      g.reset_counters();
      const ibc::CrossUserVerdict by_dv =
          ibc::dv_cross_user_verify(dv, batch.entries, attestor_key, statement, att);
      const auto dv_ops = g.counters();

      EXPECT_EQ(by_key.attestation_valid, genuine);
      EXPECT_EQ(by_key.invalid_entries, bad);
      EXPECT_EQ(by_dv.accepted, by_key.accepted);
      EXPECT_EQ(by_dv.attestation_valid, by_key.attestation_valid);
      EXPECT_EQ(by_dv.aggregate_valid, by_key.aggregate_valid);
      EXPECT_EQ(by_dv.invalid_entries, by_key.invalid_entries);
      EXPECT_EQ(by_dv.bisection, by_key.bisection);
      // The attestation's h·Q_CS moved into GT: one GT term for one G1 term.
      pairing::OpCounters expected_ops = key_ops;
      --expected_ops.msm_terms;
      ++expected_ops.gt_msm_terms;
      EXPECT_EQ(dv_ops, expected_ops);
    }
  }
}

// --- the derived walk against the reference ---------------------------------

/// The first n entries of `batch`, pointing into the copy's own messages and
/// signatures so they can be tampered with independently.
DvBatch copy_of(const DvBatch& batch, std::size_t n) {
  DvBatch copy;
  copy.messages.assign(batch.messages.begin(), batch.messages.begin() + n);
  copy.sigs.assign(batch.sigs.begin(), batch.sigs.begin() + n);
  for (std::size_t i = 0; i < n; ++i) {
    copy.entries.push_back({batch.entries[i].signer_q_id, copy.messages[i], &copy.sigs[i]});
  }
  return copy;
}

/// The reference's range check, evaluated directly: ê(sk_B, Σ_{i∈[lo,hi)}
/// (U_i + h_i·Q_i)) == Π Σ_i, point by point, with no MSM and nothing derived.
reference::RangeOracle direct_oracle(const pairing::PairingGroup& g, const DvBatch& batch,
                                     const ibc::IdentityKey& verifier) {
  return [&g, &batch, &verifier](std::size_t lo, std::size_t hi) {
    pairing::Point u = pairing::Point::at_infinity();
    pairing::Gt sigma = g.gt_one();
    for (std::size_t i = lo; i < hi; ++i) {
      const ibc::BatchEntry& e = batch.entries[i];
      const num::BigUint h = ibc::tag_hash(g, e.sig->u, e.message);
      u = g.add(u, g.add(e.sig->u, g.mul(h, e.signer_q_id)));
      sigma = g.gt_mul(sigma, e.sig->sigma);
    }
    return g.pair(verifier.secret, u) == sigma;
  };
}

struct Isolation {
  std::vector<std::size_t> invalid;
  ibc::BisectionStats reused;  ///< the walk below a reused aggregate check
};

/// The walk below a reused check, and dv_batch_isolate from a fresh one,
/// must return the reference's set and max_depth. The reused walk
/// evaluates one range per failing internal node, which the reference
/// evaluates twice (and its root once more). Every isolated entry must fail
/// on its own.
Isolation expect_matches_reference(const pairing::PairingGroup& g, const DvBatch& batch,
                                   const ibc::IdentityKey& verifier,
                                   const ibc::DesignatedVerifier& dv) {
  ibc::BisectionStats ref_stats;
  Isolation result;
  result.invalid = reference::bisect_invalid(batch.entries.size(),
                                             direct_oracle(g, batch, verifier), &ref_stats);
  ibc::BatchAccumulator acc{g};
  for (const auto& e : batch.entries) acc.add(e.signer_q_id, e.message, *e.sig);

  const ibc::BatchAccumulator::Check root = acc.check(dv);
  EXPECT_EQ(root.valid, result.invalid.empty());
  EXPECT_EQ(acc.isolate(dv, root, &result.reused), result.invalid);
  EXPECT_EQ(result.reused.max_depth, ref_stats.max_depth);
  EXPECT_EQ(ref_stats.oracle_calls, 1 + 2 * result.reused.oracle_calls);
  ibc::BisectionStats fresh;
  EXPECT_EQ(ibc::dv_batch_isolate(g, batch.entries, verifier, &fresh), result.invalid);
  EXPECT_EQ(fresh.max_depth, ref_stats.max_depth);
  EXPECT_EQ(fresh.oracle_calls, result.reused.oracle_calls + 1);
  for (const std::size_t i : result.invalid) {
    const ibc::BatchEntry& e = batch.entries[i];
    EXPECT_FALSE(ibc::dv_verify(g, e.signer_q_id, e.message, *e.sig, verifier)) << i;
    EXPECT_FALSE(dv.verify(e.signer_q_id, e.message, *e.sig)) << i;
  }
  return result;
}

struct DerivedIsolationTest : ::testing::Test {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{808};
  ibc::Sio sio{g, rng};
  std::vector<ibc::IdentityKey> signers{sio.extract("fay@walk"), sio.extract("gus@walk")};
  ibc::IdentityKey verifier = sio.extract("da@walk");
  ibc::DesignatedVerifier dv{g, verifier};

  /// Σ := ê(sk_B, U + H2(U‖m)·Q_ID) for entry i's current U, whatever U is.
  void make_consistent(DvBatch& batch, std::size_t i) const {
    const ibc::BatchEntry& e = batch.entries[i];
    const num::BigUint h = ibc::tag_hash(g, e.sig->u, e.message);
    batch.sigs[i].sigma = g.pair(verifier.secret, g.add(e.sig->u, g.mul(h, e.signer_q_id)));
  }
};

TEST_F(DerivedIsolationTest, SingleFaultAtEveryPositionOfSixtyFour) {
  const DvBatch pristine = make_batch(g, signers, verifier, 64, {}, rng);
  for (std::size_t bad = 0; bad < 64; ++bad) {
    SCOPED_TRACE("fault at " + std::to_string(bad));
    DvBatch batch = copy_of(pristine, 64);
    batch.sigs[bad].sigma = g.gt_mul(batch.sigs[bad].sigma, batch.sigs[bad].sigma);
    const Isolation isolation = expect_matches_reference(g, batch, verifier, dv);
    EXPECT_EQ(isolation.invalid, std::vector<std::size_t>{bad});
    EXPECT_EQ(isolation.reused.oracle_calls, 6u) << "one evaluation per level below the root";
    EXPECT_EQ(isolation.reused.max_depth, 6u);
  }
}

TEST_F(DerivedIsolationTest, FaultsInBothHalvesAndAnAllBadBatch) {
  const DvBatch pristine = make_batch(g, signers, verifier, 64, {}, rng);
  std::vector<std::size_t> all(64);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const std::vector<std::size_t>& bad : std::vector<std::vector<std::size_t>>{
           {5, 40}, {0, 63}, {31, 32}, {1, 2, 33, 62}, all}) {
    SCOPED_TRACE(std::to_string(bad.size()) + " faults from " + std::to_string(bad.front()));
    DvBatch batch = copy_of(pristine, 64);
    for (const std::size_t i : bad) {
      batch.sigs[i].sigma = g.gt_mul(batch.sigs[i].sigma, batch.sigs[i].sigma);
    }
    const Isolation isolation = expect_matches_reference(g, batch, verifier, dv);
    EXPECT_EQ(isolation.invalid, bad);
    EXPECT_LE(isolation.reused.oracle_calls, bad.size() * 6) << "k·⌈log2 n⌉";
  }
}

TEST_F(DerivedIsolationTest, BatchSizesAroundPowersOfTwo) {
  const DvBatch pristine = make_batch(g, signers, verifier, 65, {}, rng);
  for (const std::size_t n : {1u, 2u, 3u, 63u, 65u}) {
    for (const std::vector<std::size_t>& bad : std::vector<std::vector<std::size_t>>{
             {}, {0}, {n - 1}, {n / 2, n - 1}}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", " + std::to_string(bad.size()) + " faults");
      DvBatch batch = copy_of(pristine, n);
      for (const std::size_t i : bad) {
        batch.sigs[i].sigma = g.gt_mul(batch.sigs[i].sigma, batch.sigs[i].sigma);
      }
      std::vector<std::size_t> expected = bad;
      expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
      EXPECT_EQ(expect_matches_reference(g, batch, verifier, dv).invalid, expected);
    }
  }
}

TEST_F(DerivedIsolationTest, IdentityAndTorsionInUAreTransparent) {
  // U = O and U tainted by order-2 and order-3 torsion: ê(sk_B, ·) ignores
  // the torsion, so an entry whose Σ matches its tainted target is valid in
  // every range that holds it, and one that does not is isolated.
  const pairing::Point two_torsion = g.curve().point(num::BigUint{}, num::BigUint{});
  ASSERT_TRUE(g.curve().is_on_curve(two_torsion));
  const num::BigUint cofactor = (g.params().p + num::BigUint{1}) / num::BigUint{3};
  pairing::Point three_torsion = pairing::Point::at_infinity();
  while (three_torsion.infinity) {
    three_torsion = g.curve().mul(cofactor, g.curve().random_point(rng));
  }
  ASSERT_TRUE(g.curve().mul(num::BigUint{3}, three_torsion).infinity);

  DvBatch batch = make_batch(g, signers, verifier, 16, {}, rng);
  const auto taint = [&](std::size_t i, const pairing::Point* torsion) {
    batch.sigs[i].u = torsion == nullptr ? pairing::Point::at_infinity()
                                         : g.add(batch.sigs[i].u, *torsion);
  };
  taint(1, nullptr);
  make_consistent(batch, 1);
  taint(4, nullptr);
  taint(6, &two_torsion);
  make_consistent(batch, 6);
  taint(9, &two_torsion);
  taint(11, &three_torsion);
  make_consistent(batch, 11);
  taint(14, &three_torsion);
  EXPECT_EQ(expect_matches_reference(g, batch, verifier, dv).invalid,
            (std::vector<std::size_t>{4, 9, 14}));
}

TEST_F(DerivedIsolationTest, SigmaOutsideGtIsNeverDerived) {
  // Σ = −1 (unitary, order 2), Σ = 0 (not invertible) and Σ = 2 (not
  // unitary). Dividing Σ products would be wrong here: with Σ_left = 0, a
  // derived Σ_right would let the failing right half through.
  const pairing::Gt minus_one = g.fp2().neg(g.gt_one());
  const pairing::Gt zero = g.fp2().zero();
  const pairing::Gt two = g.fp2().element(num::BigUint{2}, num::BigUint{});
  const DvBatch pristine = make_batch(g, signers, verifier, 16, {}, rng);
  struct Row {
    std::vector<std::size_t> at;
    std::vector<pairing::Gt> sigma;
  };
  const pairing::Gt squared = g.gt_mul(pristine.sigs[12].sigma, pristine.sigs[12].sigma);
  for (const Row& row : std::vector<Row>{{{2}, {minus_one}},
                                         {{7}, {zero}},
                                         {{12}, {two}},
                                         {{3, 12}, {zero, squared}},
                                         {{2, 7, 12}, {minus_one, zero, two}}}) {
    SCOPED_TRACE("first tampered entry " + std::to_string(row.at.front()));
    DvBatch batch = copy_of(pristine, 16);
    for (std::size_t j = 0; j < row.at.size(); ++j) batch.sigs[row.at[j]].sigma = row.sigma[j];
    EXPECT_EQ(expect_matches_reference(g, batch, verifier, dv).invalid, row.at);
  }
}

// --- pairwise keys: the same walk with signer terms raised in GT ------------

/// Everything a checked and isolated batch reports.
struct Outcome {
  pairing::Gt paired;
  bool valid = false;
  std::vector<std::size_t> invalid;
  ibc::BisectionStats stats;

  bool operator==(const Outcome&) const = default;
};

enum class Filing { kQId, kKey, kMixed };

/// Files `batch` into an accumulator: every signer by Q_ID, every signer by
/// dv's pairwise key, or alternate signers (in first-appearance order) by key.
ibc::BatchAccumulator file_batch(const pairing::PairingGroup& g, const DvBatch& batch,
                                 const ibc::DesignatedVerifier& dv, Filing filing) {
  ibc::BatchAccumulator acc{g};
  std::vector<pairing::Point> seen;
  for (const ibc::BatchEntry& e : batch.entries) {
    auto it = std::find(seen.begin(), seen.end(), e.signer_q_id);
    if (it == seen.end()) it = seen.insert(seen.end(), e.signer_q_id);
    const bool by_key =
        filing == Filing::kKey || (filing == Filing::kMixed && (it - seen.begin()) % 2 == 1);
    const pairing::Gt key = dv.pairwise_key(e.signer_q_id);
    acc.add(ibc::BatchEntry{e.signer_q_id, e.message, e.sig, by_key ? &key : nullptr});
  }
  return acc;
}

Outcome outcome_of(const ibc::BatchAccumulator& acc, const ibc::DesignatedVerifier& v) {
  const ibc::BatchAccumulator::Check root = acc.check(v);
  Outcome out{root.paired, root.valid, {}, {}};
  out.invalid = acc.isolate(v, root, &out.stats);
  return out;
}

/// The Q_ID filing is the reference; the key and mixed filings must
/// reproduce its paired value, verdict, isolated set and stats bit for bit.
Outcome expect_filings_agree(const pairing::PairingGroup& g, const DvBatch& batch,
                             const ibc::DesignatedVerifier& dv) {
  const Outcome reference = outcome_of(file_batch(g, batch, dv, Filing::kQId), dv);
  for (const Filing filing : {Filing::kKey, Filing::kMixed}) {
    EXPECT_EQ(outcome_of(file_batch(g, batch, dv, filing), dv), reference)
        << "filing " << static_cast<int>(filing);
  }
  return reference;
}

TEST_F(DerivedIsolationTest, PairwiseKeysGiveBitIdenticalOutcomes) {
  const std::vector<ibc::IdentityKey> three{signers[0], signers[1], sio.extract("hal@walk")};
  const DvBatch pristine = make_batch(g, three, verifier, 24, {}, rng);
  for (const std::vector<std::size_t>& bad : std::vector<std::vector<std::size_t>>{
           {}, {0}, {4, 5}, {1, 9, 10, 22}, {23}}) {
    SCOPED_TRACE(std::to_string(bad.size()) + " faults");
    DvBatch batch = copy_of(pristine, 24);
    for (const std::size_t i : bad) {
      batch.sigs[i].sigma = g.gt_mul(batch.sigs[i].sigma, batch.sigs[i].sigma);
    }
    const Outcome outcome = expect_filings_agree(g, batch, dv);
    EXPECT_EQ(outcome.valid, bad.empty());
    EXPECT_EQ(outcome.invalid, bad);
  }
}

TEST_F(DerivedIsolationTest, PairwiseKeysOfTorsionKeysAndIdentityU) {
  // Bound keys of order 2 and 3 have the pairwise key 1 (ê(·, sk_B) maps
  // them to the identity), and U = O contributes nothing to either side:
  // entries whose Σ matches their target stay valid whichever way the
  // signer is filed, and the others are isolated identically.
  const pairing::Point two_torsion = g.curve().point(num::BigUint{}, num::BigUint{});
  const num::BigUint cofactor = (g.params().p + num::BigUint{1}) / num::BigUint{3};
  pairing::Point three_torsion = pairing::Point::at_infinity();
  while (three_torsion.infinity) {
    three_torsion = g.curve().mul(cofactor, g.curve().random_point(rng));
  }
  EXPECT_TRUE(g.gt_is_one(dv.pairwise_key(two_torsion)));
  EXPECT_TRUE(g.gt_is_one(dv.pairwise_key(three_torsion)));

  DvBatch batch = make_batch(g, signers, verifier, 16, {}, rng);
  const auto rebind = [&](std::size_t i, const pairing::Point& key, bool consistent) {
    batch.entries[i].signer_q_id = key;
    if (consistent) make_consistent(batch, i);
  };
  rebind(2, two_torsion, true);
  rebind(3, two_torsion, false);
  rebind(7, three_torsion, true);
  rebind(8, three_torsion, false);
  rebind(12, two_torsion, true);
  batch.sigs[5].u = pairing::Point::at_infinity();
  make_consistent(batch, 5);
  batch.sigs[10].u = pairing::Point::at_infinity();
  const Outcome outcome = expect_filings_agree(g, batch, dv);
  EXPECT_EQ(outcome.invalid, (std::vector<std::size_t>{3, 8, 10}));
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    const ibc::BatchEntry& e = batch.entries[i];
    const bool isolated =
        std::find(outcome.invalid.begin(), outcome.invalid.end(), i) != outcome.invalid.end();
    EXPECT_EQ(dv.verify(dv.pairwise_key(e.signer_q_id), e.message, *e.sig), !isolated) << i;
    EXPECT_EQ(ibc::dv_verify(g, e.signer_q_id, e.message, *e.sig, verifier), !isolated) << i;
  }
}

TEST(PairwiseKeyTest, CrossUserVerdictAndParallelFilingMatchOnBothGroups) {
  // Entries that carry pairwise keys through dv_cross_user_verify and
  // add_batch: verdicts, isolated sets and stats equal the IdentityKey form
  // on Q_IDs, for all and for alternate entries keyed, on the tiny and the
  // 512-bit group.
  for (const pairing::PairingGroup* group : {&tiny_group(), &pairing::default_group()}) {
    const pairing::PairingGroup& g = *group;
    Xoshiro256 rng{809};
    const ibc::Sio sio{g, rng};
    const std::vector<ibc::IdentityKey> signers{sio.extract("ida@pk"), sio.extract("jon@pk")};
    const auto verifier = sio.extract("da@pk");
    const auto attestor = sio.extract("cs@pk");
    const ibc::DesignatedVerifier dv{g, verifier};
    const pairing::Gt attestor_key = dv.pairwise_key(attestor.q_id);
    const std::vector<pairing::Gt> keys{dv.pairwise_key(signers[0].q_id),
                                        dv.pairwise_key(signers[1].q_id)};
    const core::Bytes statement{'e', 'p', 'o', 'c', 'h'};
    const ibc::DvSignature attestation = ibc::dv_transform(
        g, ibc::ibs_sign(g, attestor, statement, rng), verifier.q_id);
    const pairing::ParallelPairingEngine engine{g, 2};
    for (const std::vector<std::size_t>& bad :
         std::vector<std::vector<std::size_t>>{{}, {2}, {0, 5}}) {
      const DvBatch batch = make_batch(g, signers, verifier, 6, bad, rng);
      const ibc::CrossUserVerdict reference = ibc::dv_cross_user_verify(
          g, batch.entries, verifier, attestor.q_id, statement, attestation);
      EXPECT_EQ(reference.invalid_entries, bad);
      for (const std::size_t stride : {1u, 2u}) {
        std::vector<ibc::BatchEntry> keyed = batch.entries;
        for (std::size_t i = 0; i < keyed.size(); i += stride) {
          keyed[i].pairwise_key = &keys[i % signers.size()];
          keyed[i].signer_q_id = pairing::Point::at_infinity();  // not read
        }
        const ibc::CrossUserVerdict by_key =
            ibc::dv_cross_user_verify(dv, keyed, attestor_key, statement, attestation);
        EXPECT_EQ(by_key.accepted, reference.accepted);
        EXPECT_EQ(by_key.attestation_valid, reference.attestation_valid);
        EXPECT_EQ(by_key.aggregate_valid, reference.aggregate_valid);
        EXPECT_EQ(by_key.invalid_entries, reference.invalid_entries);
        EXPECT_EQ(by_key.bisection, reference.bisection);

        ibc::BatchAccumulator serial{g};
        for (const ibc::BatchEntry& e : keyed) serial.add(e);
        ibc::BatchAccumulator parallel{g};
        parallel.add_batch(engine, keyed);
        EXPECT_EQ(outcome_of(parallel, dv), outcome_of(serial, dv));
        EXPECT_THROW(parallel.u_aggregate(), std::logic_error);
      }
    }
  }
}

// --- auditor integration ----------------------------------------------------

TEST(AuditorBisectionTest, StorageAuditReportsPerEntryVerdicts) {
  Xoshiro256 rng{804};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto user = sio.extract("user@audit-bisect");
  const auto server = sio.extract("cs@audit-bisect");
  const auto da = sio.extract("da@audit-bisect");
  const core::UserClient client{g, sio.params(), user, server.q_id, da.q_id};

  std::vector<core::DataBlock> raw;
  for (std::uint64_t i = 0; i < 32; ++i) raw.push_back(core::DataBlock::from_value(i, i + 9));
  std::vector<core::SignedBlock> blocks = client.sign_blocks(raw, rng);
  const std::vector<std::size_t> bad = {4, 21};
  for (const std::size_t i : bad) blocks[i].block.payload[0] ^= 0x3C;
  const ibc::DesignatedVerifier da_verifier{g, da};

  const auto serial = core::verify_storage_audit(pairing::ParallelPairingEngine{g, 1},
                                                 user.q_id, blocks, da_verifier,
                                                 core::VerifierRole::kDesignatedAgency,
                                                 core::SignatureCheckMode::kBatch);
  EXPECT_FALSE(serial.accepted);
  EXPECT_EQ(serial.invalid_signature_entries, bad);
  EXPECT_EQ(serial.signature_failures, bad.size());
  EXPECT_GE(serial.bisection.oracle_calls, 1u);
  // Fewer pairings than the 16-strong individual sweep would cost (1 for
  // the failed aggregate + the bisection oracle calls).
  EXPECT_LT(serial.ops.pairings, blocks.size());

  const pairing::ParallelPairingEngine engine{g, 3};
  const auto parallel = core::verify_storage_audit(engine, user.q_id, blocks, da_verifier,
                                                   core::VerifierRole::kDesignatedAgency,
                                                   core::SignatureCheckMode::kBatch);
  EXPECT_EQ(parallel.invalid_signature_entries, serial.invalid_signature_entries);
  EXPECT_EQ(parallel.bisection, serial.bisection);
  EXPECT_EQ(parallel.ops.pairings, serial.ops.pairings);
  EXPECT_EQ(parallel.ops.point_muls, serial.ops.point_muls);
}

TEST(AuditorBisectionTest, ComputationAuditAttributesByzantineTampering) {
  Xoshiro256 rng{805};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto user = sio.extract("user@byz");
  const auto server_key = sio.extract("cs@byz");
  const auto da = sio.extract("da@byz");
  const core::UserClient client{g, sio.params(), user, server_key.q_id, da.q_id};

  std::vector<core::DataBlock> raw;
  for (std::uint64_t i = 0; i < 12; ++i) raw.push_back(core::DataBlock::from_value(i, 2 * i + 5));
  const auto blocks = client.sign_blocks(raw, rng);

  // Byzantine server: tampers exactly the blocks at positions 3 and 7.
  sim::ServerBehavior behavior;
  behavior.bad_signature_indices = {3, 7};
  EXPECT_FALSE(behavior.is_honest());
  sim::SimCloudServer srv{g, server_key, "cs-byz", behavior, 99};
  srv.handle_store(user.id, blocks);

  core::ComputationTask task;
  for (std::size_t i = 0; i < 6; ++i) {
    core::ComputeRequest req;
    req.kind = core::FuncKind::kSum;
    req.positions = {2 * i, 2 * i + 1};
    task.requests.push_back(std::move(req));
  }
  const auto outcome = srv.handle_compute(user.id, user.q_id, da.q_id, task, rng);
  const core::Warrant warrant = client.make_warrant(da.id, 100, rng);
  const auto challenge = core::make_challenge(task.requests.size(), task.requests.size(),
                                              warrant, rng);
  const auto response = srv.handle_audit(user.q_id, outcome.task_id, challenge, 1);

  const auto report = core::verify_computation_audit(
      pairing::ParallelPairingEngine{g, 1}, user.q_id, server_key.q_id, task,
      outcome.commitment, challenge, response, da, core::SignatureCheckMode::kBatch);
  // The tampered payloads stayed computation-consistent: only the signature
  // check fails, and bisection attributes exactly the tampered entries.
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.computation_failures, 0u);
  std::vector<std::size_t> expected;
  std::size_t entry = 0;
  for (const auto& item : response.items) {
    for (const auto& input : item.inputs) {
      if (input.block.index == 3 || input.block.index == 7) expected.push_back(entry);
      ++entry;
    }
  }
  EXPECT_EQ(report.invalid_signature_entries, expected);
  EXPECT_EQ(report.signature_failures, expected.size());
}

TEST(AuditorBisectionTest, ByzantineMerkleEquivocationAndStaleReplayDetected) {
  Xoshiro256 rng{806};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto user = sio.extract("user@equiv");
  const auto server_key = sio.extract("cs@equiv");
  const auto da = sio.extract("da@equiv");
  const core::UserClient client{g, sio.params(), user, server_key.q_id, da.q_id};

  std::vector<core::DataBlock> raw;
  for (std::uint64_t i = 0; i < 8; ++i) raw.push_back(core::DataBlock::from_value(i, i + 1));
  const auto blocks = client.sign_blocks(raw, rng);

  core::ComputationTask task;
  for (std::size_t i = 0; i < 4; ++i) {
    core::ComputeRequest req;
    req.kind = core::FuncKind::kSum;
    req.positions = {2 * i, 2 * i + 1};
    task.requests.push_back(std::move(req));
  }

  // Equivocating Merkle proofs → root failures.
  {
    sim::ServerBehavior behavior;
    behavior.equivocate_merkle = true;
    sim::SimCloudServer srv{g, server_key, "cs-equiv", behavior, 7};
    srv.handle_store(user.id, blocks);
    const auto outcome = srv.handle_compute(user.id, user.q_id, da.q_id, task, rng);
    const core::Warrant warrant = client.make_warrant(da.id, 100, rng);
    const auto challenge = core::make_challenge(task.requests.size(), 3, warrant, rng);
    const auto response = srv.handle_audit(user.q_id, outcome.task_id, challenge, 1);
    const auto report = core::verify_computation_audit(
        pairing::ParallelPairingEngine{g, 1}, user.q_id, server_key.q_id, task,
        outcome.commitment, challenge, response, da, core::SignatureCheckMode::kBatch);
    EXPECT_FALSE(report.accepted);
    EXPECT_GE(report.root_failures, 1u);
  }

  // Stale-commit replay: a second task's audit is answered from the first
  // task's record; the challenged commitment contradicts the replayed proofs.
  {
    sim::ServerBehavior behavior;
    behavior.replay_stale_commit = true;
    sim::SimCloudServer srv{g, server_key, "cs-stale", behavior, 8};
    srv.handle_store(user.id, blocks);
    const auto first = srv.handle_compute(user.id, user.q_id, da.q_id, task, rng);
    core::ComputationTask other = task;
    other.requests[0].positions = {5, 6};  // the second execution differs
    const auto second = srv.handle_compute(user.id, user.q_id, da.q_id, other, rng);
    ASSERT_NE(first.task_id, second.task_id);
    const core::Warrant warrant = client.make_warrant(da.id, 100, rng);
    const auto challenge =
        core::make_challenge(other.requests.size(), other.requests.size(), warrant, rng);
    const auto response = srv.handle_audit(user.q_id, second.task_id, challenge, 1);
    const auto report = core::verify_computation_audit(
        pairing::ParallelPairingEngine{g, 1}, user.q_id, server_key.q_id, other,
        second.commitment, challenge, response, da, core::SignatureCheckMode::kBatch);
    EXPECT_FALSE(report.accepted);
  }
}

}  // namespace
}  // namespace seccloud
