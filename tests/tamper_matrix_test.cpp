// Cross-scheme tamper matrix: for every signature scheme in the repo —
// RSA-FDH, ECDSA/P-256, BGLS, identity-based (Cha–Cheon), and the
// designated-verifier transform — a valid signature verifies, and tampering
// with each element of the triple {message, signature, public key/identity}
// independently makes verification fail. The tampered signature/key is
// itself well-formed (a real signature or key for something else), so the
// matrix exercises the cryptographic binding, not input parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/bgls.h"
#include "baselines/ecdsa.h"
#include "baselines/rsa.h"
#include "bigint/rng.h"
#include "bisection_reference.h"
#include "ec/p256.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "ibc/keys.h"
#include "obs/journey.h"
#include "pairing/group.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud {
namespace {

using num::BigUint;
using num::Xoshiro256;
using pairing::tiny_group;

const std::vector<std::uint8_t> kMessage{'a', 'u', 'd', 'i', 't', '-', 'm', 'e'};
const std::vector<std::uint8_t> kOtherMessage{'a', 'u', 'd', 'i', 't', '-', 'M', 'e'};

TEST(TamperMatrixTest, RsaFdh) {
  Xoshiro256 rng{701};
  const auto key = baselines::rsa_generate(256, rng);
  const auto other = baselines::rsa_generate(256, rng);
  const BigUint sig = baselines::rsa_sign(key, kMessage);

  EXPECT_TRUE(baselines::rsa_verify(key.n, key.e, kMessage, sig));
  // message
  EXPECT_FALSE(baselines::rsa_verify(key.n, key.e, kOtherMessage, sig));
  // signature: same message, wrong key's signature — and a nudged value
  EXPECT_FALSE(
      baselines::rsa_verify(key.n, key.e, kMessage, baselines::rsa_sign(other, kMessage)));
  EXPECT_FALSE(baselines::rsa_verify(key.n, key.e, kMessage, sig + BigUint{1}));
  // public key
  EXPECT_FALSE(baselines::rsa_verify(other.n, other.e, kMessage, sig));
}

TEST(TamperMatrixTest, EcdsaP256) {
  Xoshiro256 rng{702};
  const ec::P256 p256;
  const auto key = baselines::ecdsa_generate(p256, rng);
  const auto other = baselines::ecdsa_generate(p256, rng);
  const auto sig = baselines::ecdsa_sign(p256, key, kMessage, rng);

  EXPECT_TRUE(baselines::ecdsa_verify(p256, key.q, kMessage, sig));
  // message
  EXPECT_FALSE(baselines::ecdsa_verify(p256, key.q, kOtherMessage, sig));
  // signature: each component nudged, and a wrong-key signature
  EXPECT_FALSE(
      baselines::ecdsa_verify(p256, key.q, kMessage, {sig.r + BigUint{1}, sig.s}));
  EXPECT_FALSE(
      baselines::ecdsa_verify(p256, key.q, kMessage, {sig.r, sig.s + BigUint{1}}));
  EXPECT_FALSE(baselines::ecdsa_verify(p256, key.q, kMessage,
                                       baselines::ecdsa_sign(p256, other, kMessage, rng)));
  // public key
  EXPECT_FALSE(baselines::ecdsa_verify(p256, other.q, kMessage, sig));
}

TEST(TamperMatrixTest, Bgls) {
  Xoshiro256 rng{703};
  const auto& g = tiny_group();
  const auto key = baselines::bgls_generate(g, rng);
  const auto other = baselines::bgls_generate(g, rng);
  const auto sig = baselines::bgls_sign(g, key, kMessage);

  EXPECT_TRUE(baselines::bgls_verify(g, key.v, kMessage, sig));
  // message
  EXPECT_FALSE(baselines::bgls_verify(g, key.v, kOtherMessage, sig));
  // signature: wrong-key signature, and the doubled point (still on-curve)
  EXPECT_FALSE(
      baselines::bgls_verify(g, key.v, kMessage, baselines::bgls_sign(g, other, kMessage)));
  EXPECT_FALSE(baselines::bgls_verify(g, key.v, kMessage, g.mul(BigUint{2}, sig)));
  // public key
  EXPECT_FALSE(baselines::bgls_verify(g, other.v, kMessage, sig));
}

TEST(TamperMatrixTest, IdentityBasedSignature) {
  Xoshiro256 rng{704};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("signer@tamper");
  const auto other = sio.extract("other@tamper");
  const auto sig = ibc::ibs_sign(g, signer, kMessage, rng);

  EXPECT_TRUE(ibc::ibs_verify(g, sio.params(), signer.id, kMessage, sig));
  // message
  EXPECT_FALSE(ibc::ibs_verify(g, sio.params(), signer.id, kOtherMessage, sig));
  // signature: another identity's signature over the same message, and each
  // component swapped for an on-curve value
  EXPECT_FALSE(ibc::ibs_verify(g, sio.params(), signer.id, kMessage,
                               ibc::ibs_sign(g, other, kMessage, rng)));
  EXPECT_FALSE(ibc::ibs_verify(g, sio.params(), signer.id, kMessage,
                               {g.mul(BigUint{2}, sig.u), sig.v}));
  EXPECT_FALSE(ibc::ibs_verify(g, sio.params(), signer.id, kMessage,
                               {sig.u, g.mul(BigUint{2}, sig.v)}));
  // identity
  EXPECT_FALSE(ibc::ibs_verify(g, sio.params(), other.id, kMessage, sig));
}

TEST(TamperMatrixTest, DesignatedVerifierSignature) {
  Xoshiro256 rng{705};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("user@tamper");
  const auto other_signer = sio.extract("mallory@tamper");
  const auto verifier = sio.extract("cs@tamper");
  const auto other_verifier = sio.extract("da@tamper");

  const auto ibs = ibc::ibs_sign(g, signer, kMessage, rng);
  const auto sig = ibc::dv_transform(g, ibs, verifier.q_id);

  EXPECT_TRUE(ibc::dv_verify(g, signer.q_id, kMessage, sig, verifier));
  // message
  EXPECT_FALSE(ibc::dv_verify(g, signer.q_id, kOtherMessage, sig, verifier));
  // signature: a different message's Σ with this U, and a perturbed Σ
  const auto other_sig =
      ibc::dv_transform(g, ibc::ibs_sign(g, signer, kOtherMessage, rng), verifier.q_id);
  EXPECT_FALSE(
      ibc::dv_verify(g, signer.q_id, kMessage, {sig.u, other_sig.sigma}, verifier));
  EXPECT_FALSE(ibc::dv_verify(g, signer.q_id, kMessage,
                              {sig.u, g.gt_mul(sig.sigma, sig.sigma)}, verifier));
  // signer identity
  EXPECT_FALSE(ibc::dv_verify(g, other_signer.q_id, kMessage, sig, verifier));
  // designation: Σ targeted at CS convinces nobody else (the privacy core)
  EXPECT_FALSE(ibc::dv_verify(g, signer.q_id, kMessage, sig, other_verifier));
}

// --- batch-bisection rows ----------------------------------------------------
// For every scheme: a batch of 32 signatures with 1, 2, and 5 corrupted
// members, isolated through the reference bisection — the oracle being the
// scheme's natural range check (the true sub-aggregate for BGLS and DVS, a
// member sweep elsewhere). The isolated set must match the corruption set
// exactly; corrupted entries are well-formed values of the right type, so
// the binding, not parsing, is what fails.

const std::vector<std::vector<std::size_t>> kCorruptionRows = {
    {17}, {4, 26}, {0, 7, 15, 22, 31}};
constexpr std::size_t kBatchSize = 32;

std::vector<std::vector<std::uint8_t>> batch_messages() {
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    messages.push_back({'b', 'a', 't', 'c', 'h', static_cast<std::uint8_t>(i)});
  }
  return messages;
}

/// Runs every corruption row: `corrupted(bad)` returns the per-index
/// validity oracle for a batch whose members at `bad` were corrupted.
void expect_rows_isolated(
    const std::function<std::function<bool(std::size_t, std::size_t)>(
        const std::vector<std::size_t>&)>& corrupted) {
  for (const auto& bad : kCorruptionRows) {
    ibc::BisectionStats stats;
    const auto range_valid = corrupted(bad);
    EXPECT_EQ(reference::bisect_invalid(kBatchSize, range_valid, &stats), bad)
        << bad.size() << " corruptions";
    EXPECT_LE(stats.max_depth, 5u);  // log2(32)
  }
}

TEST(TamperMatrixTest, RsaFdhBatchBisection) {
  Xoshiro256 rng{711};
  const auto key = baselines::rsa_generate(256, rng);
  const auto messages = batch_messages();
  std::vector<BigUint> sigs;
  for (const auto& m : messages) sigs.push_back(baselines::rsa_sign(key, m));

  expect_rows_isolated([&](const std::vector<std::size_t>& bad) {
    auto tampered = sigs;
    for (const std::size_t i : bad) tampered[i] = tampered[i] + BigUint{1};
    return [&key, &messages, tampered](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!baselines::rsa_verify(key.n, key.e, messages[i], tampered[i])) return false;
      }
      return true;
    };
  });
}

TEST(TamperMatrixTest, EcdsaP256BatchBisection) {
  Xoshiro256 rng{712};
  const ec::P256 p256;
  const auto key = baselines::ecdsa_generate(p256, rng);
  const auto messages = batch_messages();
  std::vector<baselines::EcdsaSignature> sigs;
  for (const auto& m : messages) sigs.push_back(baselines::ecdsa_sign(p256, key, m, rng));

  expect_rows_isolated([&](const std::vector<std::size_t>& bad) {
    auto tampered = sigs;
    for (const std::size_t i : bad) tampered[i].s = tampered[i].s + BigUint{1};
    return [&p256, &key, &messages, tampered](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!baselines::ecdsa_verify(p256, key.q, messages[i], tampered[i])) return false;
      }
      return true;
    };
  });
}

TEST(TamperMatrixTest, BglsBatchBisection) {
  Xoshiro256 rng{713};
  const auto& g = tiny_group();
  const auto key = baselines::bgls_generate(g, rng);
  const auto messages = batch_messages();  // pairwise distinct, as BGLS requires
  std::vector<pairing::Point> sigs;
  for (const auto& m : messages) sigs.push_back(baselines::bgls_sign(g, key, m));

  expect_rows_isolated([&](const std::vector<std::size_t>& bad) {
    auto tampered = sigs;
    for (const std::size_t i : bad) tampered[i] = g.mul(BigUint{2}, tampered[i]);
    // The true sub-aggregate oracle: aggregate the range and verify it with
    // one multi-pairing check, exactly how a BGLS verifier would bisect.
    return [&g, &key, &messages, tampered](std::size_t lo, std::size_t hi) {
      std::vector<baselines::BglsItem> items;
      for (std::size_t i = lo; i < hi; ++i) items.push_back({key.v, messages[i]});
      const std::span<const pairing::Point> range{tampered.data() + lo, hi - lo};
      return baselines::bgls_aggregate_verify(g, items, baselines::bgls_aggregate(g, range));
    };
  });
}

TEST(TamperMatrixTest, IdentityBasedSignatureBatchBisection) {
  Xoshiro256 rng{714};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("signer@batch-tamper");
  const auto messages = batch_messages();
  std::vector<ibc::IbsSignature> sigs;
  for (const auto& m : messages) sigs.push_back(ibc::ibs_sign(g, signer, m, rng));

  expect_rows_isolated([&](const std::vector<std::size_t>& bad) {
    auto tampered = sigs;
    for (const std::size_t i : bad) tampered[i].v = g.mul(BigUint{2}, tampered[i].v);
    return [&g, &sio, &signer, &messages, tampered](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (!ibc::ibs_verify(g, sio.params(), signer.id, messages[i], tampered[i])) {
          return false;
        }
      }
      return true;
    };
  });
}

TEST(TamperMatrixTest, DesignatedVerifierBatchBisection) {
  Xoshiro256 rng{715};
  const auto& g = tiny_group();
  const ibc::Sio sio{g, rng};
  const auto signer = sio.extract("user@batch-tamper");
  const auto verifier = sio.extract("cs@batch-tamper");
  const auto messages = batch_messages();
  std::vector<ibc::DvSignature> sigs;
  for (const auto& m : messages) {
    sigs.push_back(ibc::dv_transform(g, ibc::ibs_sign(g, signer, m, rng), verifier.q_id));
  }

  for (const auto& bad : kCorruptionRows) {
    auto tampered = sigs;
    for (const std::size_t i : bad) {
      tampered[i].sigma = g.gt_mul(tampered[i].sigma, tampered[i].sigma);
    }
    std::vector<ibc::BatchEntry> entries;
    for (std::size_t i = 0; i < kBatchSize; ++i) {
      entries.push_back({signer.q_id, messages[i], &tampered[i]});
    }
    EXPECT_FALSE(ibc::dv_batch_verify(g, entries, verifier));
    ibc::BisectionStats stats;
    EXPECT_EQ(ibc::dv_batch_isolate(g, entries, verifier, &stats), bad)
        << bad.size() << " corruptions";
    EXPECT_LE(stats.max_depth, 5u);
  }
}

// --- cross-user rows ---------------------------------------------------------
// k Byzantine users inside one shared epoch batch: their entries must be
// isolated in at most k·⌈log2 n⌉ pairings past the aggregate check
// while every honest user's audit in the same batch is still accepted — one
// bad actor cannot poison an epoch for its neighbors. Stale-commit replays
// are a separate row: filtered by the freshness high-water mark before the
// batch forms, at zero pairing cost.

constexpr std::size_t kFleetUsers = 12;
constexpr std::size_t kBlocksPerUser = 2;

const std::vector<std::vector<std::size_t>> kByzantineUserRows = {
    {2}, {1, 5}, {0, 3, 6, 9, 11}};

struct CrossUserFixture {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{716};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey da = sio.extract("agency@cross-user");
  ibc::IdentityKey cs = sio.extract("cs@cross-user");

  service::AuditService make_service() {
    service::ServiceConfig config;
    config.registry.shards = 4;
    config.epoch.batch_capacity = kFleetUsers * kBlocksPerUser;  // one shared batch
    config.threads = 1;
    return service::AuditService{g, da, cs, config};
  }
};

TEST(TamperMatrixTest, CrossUserByzantineSignersIsolatedInSharedBatch) {
  CrossUserFixture fx;
  for (const auto& bad : kByzantineUserRows) {
    service::AuditService svc = fx.make_service();
    service::VerdictLedger ledger;
    obs::JourneyRecorder journeys{{.sample_every = 1}};  // full-fidelity join
    svc.attach_ledger(&ledger);
    svc.attach_journeys(&journeys);
    sim::FleetWorkload fleet{fx.sio,
                             {.users = kFleetUsers,
                              .active_users = kFleetUsers,
                              .blocks_per_request = kBlocksPerUser,
                              .seed = 90 + bad.size()}};
    fleet.populate(svc);
    const auto is_bad = [&bad](std::size_t i) {
      return std::find(bad.begin(), bad.end(), i) != bad.end();
    };
    for (auto& r : fleet.make_requests(svc, [&](std::size_t i) {
           return is_bad(i) ? sim::FleetBehavior::kBadSignature
                            : sim::FleetBehavior::kHonest;
         })) {
      ASSERT_TRUE(svc.submit(std::move(r)).accepted);
    }

    const service::EpochReport report = svc.run_epoch();
    ASSERT_EQ(report.batches, 1u) << "all users share one batch";
    EXPECT_EQ(report.entries, kFleetUsers * kBlocksPerUser);

    // Exactly the Byzantine users' corrupted blocks are isolated.
    ASSERT_EQ(report.invalid_entries.size(), bad.size());
    std::vector<service::UserHandle> expected_users;
    for (const std::size_t i : bad) expected_users.push_back(fleet.handle(i));
    std::sort(expected_users.begin(), expected_users.end());
    EXPECT_EQ(report.byzantine_users, expected_users);
    for (const auto& inv : report.invalid_entries) {
      EXPECT_EQ(inv.block_index, 0u) << "the corrupted block, not its neighbor";
    }

    // Honest users' audits in the SAME batch are still accepted.
    EXPECT_EQ(report.verified_requests, kFleetUsers - bad.size());
    EXPECT_EQ(report.failed_requests, bad.size());
    for (std::size_t i = 0; i < kFleetUsers; ++i) {
      EXPECT_EQ(svc.registry().audited_version(fleet.handle(i)),
                is_bad(i) ? 0u : 1u);
    }

    // Cost: 1 attestation pairing + 1 aggregate pairing + one evaluation per
    // failing internal range below the reused aggregate, bounded by
    // k·⌈log2 n⌉ — far below one pairing per entry.
    const std::size_t n = kFleetUsers * kBlocksPerUser;
    const std::size_t log2n = 5;  // ceil(log2(24))
    const std::size_t bound = bad.size() * log2n;
    EXPECT_EQ(report.verify_ops.pairings, 2 + report.bisection.oracle_calls);
    EXPECT_LE(report.bisection.oracle_calls, bound);
    if (bound < n) {
      // Sparse-corruption regime: bisection must beat per-entry re-verify.
      EXPECT_LT(report.bisection.oracle_calls, n)
          << "bisection must beat per-entry re-verification";
    }

    // Forensics: every isolated Byzantine user must be attributable from
    // the ledger BYTES alone — user, epoch, batch, and a bisection path
    // that actually descends to the flagged entry. No report, no registry.
    const service::LedgerReplay forensics = service::replay_ledger(ledger.bytes());
    EXPECT_FALSE(forensics.torn_tail);
    EXPECT_EQ(forensics.malformed_payloads, 0u);
    ASSERT_EQ(forensics.entries.size(), n) << "one record per audited entry";
    std::vector<service::UserHandle> flagged;
    for (const auto& entry : forensics.entries) {
      if (entry.verdict == obs::Verdict::kVerified) continue;
      ASSERT_EQ(entry.verdict, obs::Verdict::kInvalidSignature);
      flagged.push_back(entry.user);
      EXPECT_EQ(entry.epoch, report.epoch);
      EXPECT_EQ(entry.batch, 0u) << "the one shared batch";
      EXPECT_EQ(entry.block_index, 0u);
      // The recorded descent must land exactly on the flagged entry's slot.
      std::size_t lo = 0;
      std::size_t hi = n;
      for (std::uint8_t level = 0; level < entry.isolation_depth; ++level) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if ((entry.isolation_path >> level & 1u) != 0) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      EXPECT_EQ(lo, entry.entry_in_batch) << "path must isolate the entry";
      EXPECT_EQ(hi, lo + 1) << "path must descend to a single entry";
      EXPECT_EQ(entry.batch_pairings, 2 + report.bisection.oracle_calls);
    }
    std::sort(flagged.begin(), flagged.end());
    EXPECT_EQ(flagged, expected_users)
        << "the ledger attributes exactly the Byzantine users";

    // Journey↔ledger coherence: with full sampling, every ledger record
    // links to a journey whose verdict agrees with the entry's, and a
    // bisected journey's recorded depth is the deepest descent the ledger
    // took over that request's own entries — the waterfall and the forensic
    // paths tell one story.
    const obs::JourneyReplay trail = obs::replay_journeys(journeys.stream());
    EXPECT_FALSE(trail.torn_tail);
    ASSERT_EQ(trail.records.size(), kFleetUsers) << "one journey per request";
    std::map<std::uint64_t, const obs::JourneyRecord*> by_id;
    for (const obs::JourneyRecord& j : trail.records) by_id[j.request_id] = &j;
    std::map<std::uint32_t, std::uint8_t> deepest;  // request_index → max depth
    for (const auto& entry : forensics.entries) {
      deepest[entry.request_index] =
          std::max(deepest[entry.request_index], entry.isolation_depth);
    }
    for (const auto& entry : forensics.entries) {
      ASSERT_NE(entry.journey_id, 0u) << "full sampling: every entry joins";
      const auto it = by_id.find(entry.journey_id);
      ASSERT_NE(it, by_id.end());
      const obs::JourneyRecord& j = *it->second;
      EXPECT_EQ(j.user, entry.user);
      EXPECT_EQ(j.request_index, entry.request_index);
      if (entry.verdict == obs::Verdict::kInvalidSignature) {
        EXPECT_EQ(j.verdict, obs::Verdict::kInvalidSignature);
        EXPECT_TRUE(j.sampled & obs::kJourneySampledBisected);
        EXPECT_EQ(j.bisection_depth, deepest.at(entry.request_index))
            << "journey depth = deepest descent over the request's entries";
        EXPECT_GT(j.stage_us[static_cast<std::size_t>(obs::JourneyStage::kBisect)], 0u)
            << "an isolated request must carry bisection time";
      } else if (deepest.at(entry.request_index) == 0) {
        EXPECT_EQ(j.verdict, obs::Verdict::kVerified);
        EXPECT_EQ(j.bisection_depth, 0u);
      }
    }
  }
}

TEST(TamperMatrixTest, CrossUserStaleReplayFilteredBeforeTheBatch) {
  CrossUserFixture fx;
  service::AuditService svc = fx.make_service();
  sim::FleetWorkload fleet{fx.sio,
                           {.users = kFleetUsers,
                            .active_users = kFleetUsers,
                            .blocks_per_request = kBlocksPerUser,
                            .seed = 99}};
  fleet.populate(svc);
  // Round 1: everyone honest, all audits recorded.
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  ASSERT_EQ(svc.run_epoch().verified_requests, kFleetUsers);

  // Round 2: users {1, 4, 7} replay their already-audited commits (validly
  // signed!) inside the shared batch window.
  const std::vector<std::size_t> replayers = {1, 4, 7};
  for (auto& r : fleet.make_requests(svc, [&](std::size_t i) {
         return std::find(replayers.begin(), replayers.end(), i) != replayers.end()
                    ? sim::FleetBehavior::kStaleReplay
                    : sim::FleetBehavior::kHonest;
       })) {
    svc.submit(std::move(r));
  }
  const service::EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.stale_rejected, replayers.size());
  EXPECT_EQ(report.verified_requests, kFleetUsers - replayers.size());
  // The replays never reached the batch: no extra entries, no bisection, and
  // the clean batch still costs exactly 2 pairings.
  EXPECT_EQ(report.entries, (kFleetUsers - replayers.size()) * kBlocksPerUser);
  EXPECT_EQ(report.bisection.oracle_calls, 0u);
  EXPECT_EQ(report.verify_ops.pairings, 2 * report.batches);
  EXPECT_TRUE(report.byzantine_users.empty());
  // Replayed versions did not advance anyone's high-water mark.
  for (const std::size_t i : replayers) {
    EXPECT_EQ(svc.registry().audited_version(fleet.handle(i)), 1u);
  }
}

}  // namespace
}  // namespace seccloud
