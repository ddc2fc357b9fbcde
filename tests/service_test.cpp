// Fleet-scale audit service: sharded registry semantics, bounded admission
// with backpressure, and the cross-user 2-pairing epoch pipeline (shared
// batches, stale-replay filtering, Byzantine isolation across user
// boundaries). The *Concurrent* suites are the TSan targets: registration,
// submission, and metric binding race across real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "bigint/rng.h"
#include "hash/hmac_drbg.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "ibc/keys.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "pairing/group.h"
#include "seccloud/client.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;
using service::AuditRequest;
using service::AuditService;
using service::EpochReport;
using service::RegistryConfig;
using service::ServiceConfig;
using service::ShardedRegistry;
using service::UserHandle;
using sim::FleetBehavior;
using sim::FleetConfig;
using sim::FleetWorkload;

// --- registry ---------------------------------------------------------------

TEST(ShardedRegistryTest, RegisterFindAndIdempotence) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    ShardedRegistry reg{{.shards = shards, .records_per_chunk = 16}};
    std::vector<UserHandle> handles;
    for (std::size_t i = 0; i < 1000; ++i) {
      handles.push_back(reg.register_user("user-" + std::to_string(i)));
    }
    EXPECT_EQ(reg.size(), 1000u);
    for (std::size_t i = 0; i < 1000; ++i) {
      const std::string id = "user-" + std::to_string(i);
      EXPECT_EQ(reg.register_user(id), handles[i]) << "re-register must be idempotent";
      ASSERT_TRUE(reg.find(id).has_value());
      EXPECT_EQ(*reg.find(id), handles[i]);
      EXPECT_EQ(reg.view(handles[i]).id, id);
    }
    EXPECT_EQ(reg.size(), 1000u);
    EXPECT_FALSE(reg.find("never-registered").has_value());
    EXPECT_FALSE(reg.find("").has_value());
  }
}

TEST(ShardedRegistryTest, HandlesStayValidAcrossGrowth) {
  // Small chunks force many arena chunk allocations and table rehashes;
  // handles issued early must still resolve to the same record.
  ShardedRegistry reg{{.shards = 2, .records_per_chunk = 16, .id_arena_chunk_bytes = 256}};
  const UserHandle first = reg.register_user("first-user");
  for (std::size_t i = 0; i < 5000; ++i) reg.register_user("u" + std::to_string(i));
  EXPECT_EQ(reg.view(first).id, "first-user");
  EXPECT_EQ(*reg.find("first-user"), first);
}

TEST(ShardedRegistryTest, KeyBindingIsWriteOnceAndStable) {
  ShardedRegistry reg{{.shards = 4, .key_width = 8}};
  const UserHandle u = reg.register_user("alice");
  EXPECT_TRUE(reg.key(u).empty());
  EXPECT_FALSE(reg.view(u).has_key);

  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(reg.bind_key(u, blob));
  EXPECT_FALSE(reg.bind_key(u, blob)) << "write-once";
  const auto key = reg.key(u);
  ASSERT_EQ(key.size(), 8u);
  EXPECT_TRUE(std::equal(key.begin(), key.end(), blob.begin()));
  EXPECT_TRUE(reg.view(u).has_key);

  const std::vector<std::uint8_t> short_blob = {1, 2};
  const UserHandle v = reg.register_user("bob");
  EXPECT_THROW(reg.bind_key(v, short_blob), std::invalid_argument);

  ShardedRegistry keyless{{.shards = 1}};  // key_width = 0 disables the arena
  const UserHandle w = keyless.register_user("carol");
  EXPECT_THROW(keyless.bind_key(w, blob), std::invalid_argument);
}

TEST(ShardedRegistryTest, AuditHighWaterMarkFiltersStaleVersions) {
  ShardedRegistry reg{{.shards = 1}};
  const UserHandle u = reg.register_user("alice");
  EXPECT_EQ(reg.audited_version(u), 0u);
  EXPECT_TRUE(reg.record_audit(u, 3));
  EXPECT_EQ(reg.audited_version(u), 3u);
  EXPECT_FALSE(reg.record_audit(u, 3)) << "same version is stale";
  EXPECT_FALSE(reg.record_audit(u, 1)) << "older version is stale";
  EXPECT_TRUE(reg.record_audit(u, 7));
  EXPECT_EQ(reg.audited_version(u), 7u);
  EXPECT_EQ(reg.view(u).audits_served, 4u) << "every record_audit counts";
}

TEST(ShardedRegistryTest, RejectsMalformedInputs) {
  ShardedRegistry reg{{.shards = 2, .id_arena_chunk_bytes = 256}};
  EXPECT_THROW(reg.register_user(""), std::invalid_argument);
  EXPECT_THROW(reg.register_user(std::string(300, 'x')), std::length_error);
  EXPECT_THROW(reg.view(service::kInvalidUser), std::out_of_range);
  const UserHandle u = reg.register_user("ok");
  EXPECT_THROW(reg.view(u + 1), std::out_of_range);
  EXPECT_TRUE(reg.issued(u));
  EXPECT_FALSE(reg.issued(u + 1));
  EXPECT_FALSE(reg.issued(service::kInvalidUser));
}

TEST(ShardedRegistryTest, StatsAccountForArenas) {
  ShardedRegistry reg{{.shards = 8, .key_width = 16}};
  for (std::size_t i = 0; i < 500; ++i) reg.register_user("user-" + std::to_string(i));
  const auto stats = reg.stats();
  EXPECT_EQ(stats.users, 500u);
  EXPECT_EQ(stats.keyed_users, 0u);
  EXPECT_EQ(stats.shards, 8u);
  EXPECT_GT(stats.record_bytes, 0u);
  EXPECT_GT(stats.id_bytes, 0u);
  EXPECT_GT(stats.table_bytes, 0u);
  EXPECT_EQ(stats.total_bytes(),
            stats.record_bytes + stats.id_bytes + stats.key_bytes + stats.table_bytes);
}

TEST(ShardedRegistryTest, KeySlotsRoundTripAtTheServiceWidth) {
  // The service's slot: a 129-byte serialized Q_ID followed by its 128-byte
  // pairwise key. 40 keyed users over 2 shards of 16-slot chunks span several
  // key chunks; every blob must read back byte for byte, and an unbound
  // handle must still read back empty on both sides of the slot.
  constexpr std::size_t kKeyWidth = 129;
  constexpr std::size_t kPreparedWidth = 128;
  ShardedRegistry reg{{.shards = 2,
                       .records_per_chunk = 16,
                       .key_width = kKeyWidth,
                       .prepared_width = kPreparedWidth}};
  const auto blob = [](std::size_t user, std::size_t width, std::uint8_t salt) {
    std::vector<std::uint8_t> out(width);
    for (std::size_t b = 0; b < width; ++b) {
      out[b] = static_cast<std::uint8_t>(user * 31 + b * 7 + salt);
    }
    return out;
  };
  std::vector<UserHandle> keyed;
  for (std::size_t i = 0; i < 40; ++i) {
    keyed.push_back(reg.register_user("keyed-" + std::to_string(i)));
    ASSERT_TRUE(reg.bind_key(keyed.back(), blob(i, kKeyWidth, 1), blob(i, kPreparedWidth, 2)));
  }
  const UserHandle bare = reg.register_user("bare");
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    const auto key = reg.key(keyed[i]);
    const auto prepared = reg.prepared_key(keyed[i]);
    EXPECT_EQ(std::vector<std::uint8_t>(key.begin(), key.end()), blob(i, kKeyWidth, 1)) << i;
    EXPECT_EQ(std::vector<std::uint8_t>(prepared.begin(), prepared.end()),
              blob(i, kPreparedWidth, 2))
        << i;
  }
  EXPECT_TRUE(reg.key(bare).empty());
  EXPECT_TRUE(reg.prepared_key(bare).empty());
  EXPECT_FALSE(reg.view(bare).has_key);
  EXPECT_THROW(reg.bind_key(bare, blob(0, kKeyWidth, 1)), std::invalid_argument)
      << "the prepared form is required when the slot has room for one";
  EXPECT_THROW(reg.bind_key(bare, blob(0, kKeyWidth, 1), blob(0, kKeyWidth, 2)),
               std::invalid_argument);
  EXPECT_TRUE(reg.key(bare).empty()) << "a rejected bind leaves the user unkeyed";
  const auto stats = reg.stats();
  EXPECT_EQ(stats.keyed_users, 40u);
  EXPECT_EQ(stats.key_bytes % (16 * (kKeyWidth + kPreparedWidth)), 0u);
  EXPECT_GE(stats.key_bytes, 40 * (kKeyWidth + kPreparedWidth));
}

TEST(ShardedRegistryTest, KeyChunksAreSizedForTheSlotsTheyHold) {
  // One shard, so every bind lands in the same key arena: binding n keys
  // reserves ⌈n/64⌉ chunks of 64 slots, independent of records_per_chunk.
  constexpr std::size_t kSlot = 129 + 128;
  constexpr std::size_t kPerChunk = ShardedRegistry::kKeySlotsPerChunk;
  static_assert(kPerChunk == 64);
  ShardedRegistry reg{{.shards = 1, .key_width = 129, .prepared_width = 128}};
  const std::vector<std::uint8_t> blob(129, 0x5a);
  const std::vector<std::uint8_t> prepared(128, 0xa5);
  EXPECT_EQ(reg.stats().key_bytes, 0u);
  for (std::size_t n = 1; n <= 2 * kPerChunk + 1; ++n) {
    ASSERT_TRUE(reg.bind_key(reg.register_user("k-" + std::to_string(n)), blob, prepared));
    EXPECT_EQ(reg.stats().key_bytes, (n + kPerChunk - 1) / kPerChunk * kPerChunk * kSlot)
        << n << " keys";
  }
  // Registering without binding reserves no key storage.
  for (std::size_t i = 0; i < 100; ++i) reg.register_user("bare-" + std::to_string(i));
  EXPECT_EQ(reg.stats().key_bytes, 3 * kPerChunk * kSlot);
}

TEST(ShardedRegistryConcurrentTest, ParallelRegisterAndFind) {
  ShardedRegistry reg{{.shards = 8, .records_per_chunk = 32}};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Half the ids collide across threads: idempotence under contention.
        const std::string id = "u" + std::to_string(i % 2 == 0 ? i : t * kPerThread + i);
        const UserHandle h = reg.register_user(id);
        ASSERT_EQ(reg.view(h).id, id);
        ASSERT_EQ(*reg.find(id), h);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every id registered exactly once.
  EXPECT_EQ(reg.size(), reg.stats().users);
  for (std::size_t i = 0; i < kPerThread; i += 2) {
    EXPECT_TRUE(reg.find("u" + std::to_string(i)).has_value());
  }
}

// --- admission queue --------------------------------------------------------

TEST(AdmissionQueueTest, BoundedWithRetryAfterBackpressure) {
  service::AdmissionQueue queue{{.queue_capacity = 4, .retry_after_epochs = 3}};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto admission = queue.submit({});
    EXPECT_TRUE(admission.accepted);
    EXPECT_EQ(admission.epoch, 0u);
    EXPECT_EQ(admission.retry_after_epochs, 0u);
  }
  const auto rejected = queue.submit({});
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.retry_after_epochs, 3u);
  EXPECT_EQ(queue.depth(), 4u);

  const auto drained = queue.drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.epoch(), 1u);
  EXPECT_TRUE(queue.submit({}).accepted) << "capacity frees after drain";
}

TEST(AdmissionQueueTest, DrainPreservesAdmissionOrder) {
  service::AdmissionQueue queue{{.queue_capacity = 16}};
  for (std::uint64_t v = 1; v <= 10; ++v) {
    AuditRequest r;
    r.version = v;
    ASSERT_TRUE(queue.submit(std::move(r)).accepted);
  }
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 10u);
  for (std::uint64_t v = 1; v <= 10; ++v) EXPECT_EQ(drained[v - 1].version, v);
}

TEST(AdmissionQueueConcurrentTest, SubmitRacesBindMetricsAndDrain) {
  service::AdmissionQueue queue{{.queue_capacity = 64}};
  obs::MetricsRegistry metrics;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> accepted{0};
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 200; ++i) {
        if (queue.submit({}).accepted) accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Bind metrics while submissions are in flight (the late-binding race the
  // TSan job guards), and drain concurrently to exercise the epoch boundary.
  queue.bind_metrics(metrics, "svc.queue");
  std::size_t drained = 0;
  for (std::size_t i = 0; i < 50; ++i) drained += queue.drain().size();
  for (auto& t : threads) t.join();
  drained += queue.drain().size();
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(queue.epoch(), 51u);
}

// --- epoch pipeline ---------------------------------------------------------

struct ServiceFixture : ::testing::Test {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{4242};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey da = sio.extract("agency");
  ibc::IdentityKey cs = sio.extract("cloud-server");

  AuditService make_service(std::size_t threads = 1, std::size_t batch_capacity = 8) {
    ServiceConfig config;
    config.registry.shards = 4;
    config.epoch.queue_capacity = 256;
    config.epoch.batch_capacity = batch_capacity;
    config.threads = threads;
    return AuditService{g, da, cs, config};
  }
};

TEST_F(ServiceFixture, HonestEpochVerifiesAtTwoPairingsPerBatch) {
  AuditService svc = make_service();
  FleetWorkload fleet{sio, {.users = 64, .active_users = 6, .blocks_per_request = 4, .seed = 7}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) ASSERT_TRUE(svc.submit(std::move(r)).accepted);

  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.entries, 24u);
  EXPECT_EQ(report.batches, 3u);  // 24 entries / capacity 8
  EXPECT_EQ(report.verified_requests, 6u);
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_TRUE(report.invalid_entries.empty());
  EXPECT_TRUE(report.byzantine_users.empty());
  for (const auto& batch : report.results) {
    EXPECT_TRUE(batch.verdict.accepted);
    EXPECT_TRUE(batch.verdict.attestation_valid);
    EXPECT_TRUE(batch.verdict.aggregate_valid);
  }
  // The headline number: any batch size, exactly 2 pairings per batch in the
  // verify window (1 attestation + 1 mixed-signer aggregate).
  EXPECT_EQ(report.verify_ops.pairings, 2 * report.batches);
  EXPECT_EQ(report.bisection.oracle_calls, 0u);
  // Audits recorded against the freshness high-water mark.
  EXPECT_EQ(svc.registry().audited_version(fleet.handle(0)), 1u);
}

TEST_F(ServiceFixture, PrecomputedKeysKeepAttestationsAndCountersBitIdentical) {
  // The service signs and checks through keys prepared once (the attestor's
  // DvSigner, sk_B Miller lines, the pairwise keys of the attestor and of
  // every bound user), shared by two lanes over two epochs. Every attestation
  // must equal the plain ibs_sign + dv_transform from the same per-(seed,
  // epoch, batch) DRBG, and each epoch's verify counters must equal the
  // values the unprepared IdentityKey path spends on the same traffic with
  // every G1 term moved into GT.
  AuditService svc = make_service(/*threads=*/2, /*batch_capacity=*/8);
  FleetWorkload fleet{sio, {.users = 32, .active_users = 6, .blocks_per_request = 3, .seed = 29}};
  fleet.populate(svc);
  // Per batch: signing is U = r·Q_CS (1 point_mul) and Σ = g^(r+h) (1
  // gt_exp), where the textbook path pays 2 point_muls and the dv_transform
  // pairing. The unprepared check is the attestation's point_mul and pairing
  // plus the aggregate's pairing and one msm_term per signer; epoch 0's two
  // bad entries, one in each of two 8-entry batches, add 6 oracle pairings
  // (one left-half range per level below the reused aggregate) and their
  // range MSMs. The service raises pairwise keys instead: the attestation's
  // h·Q_CS and each signer's s_j·Q_j become one gt_msm_term each.
  const pairing::OpCounters assembly_signed{.point_muls = 3, .gt_exps = 3};
  const std::vector<pairing::OpCounters> verify_unprepared{
      {.pairings = 12, .miller_loops = 12, .final_exps = 12, .point_muls = 3, .msm_terms = 16},
      {.pairings = 6, .miller_loops = 6, .final_exps = 6, .point_muls = 3, .msm_terms = 8}};
  const std::vector<pairing::OpCounters> verify_prepared{
      {.pairings = 12, .miller_loops = 12, .final_exps = 12, .gt_msm_terms = 19},
      {.pairings = 6, .miller_loops = 6, .final_exps = 6, .gt_msm_terms = 11}};
  for (std::size_t epoch = 0; epoch < 2; ++epoch) {
    pairing::OpCounters moved = verify_unprepared[epoch];
    moved.gt_msm_terms = moved.point_muls + moved.msm_terms;
    moved.point_muls = 0;
    moved.msm_terms = 0;
    EXPECT_EQ(moved, verify_prepared[epoch]) << "epoch " << epoch;
  }
  for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
    auto behaviors = [epoch](std::size_t i) {
      return epoch == 0 && (i == 1 || i == 4) ? FleetBehavior::kBadSignature
                                              : FleetBehavior::kHonest;
    };
    for (auto& r : fleet.make_requests(svc, behaviors)) {
      ASSERT_TRUE(svc.submit(std::move(r)).accepted);
    }
    const EpochReport report = svc.run_epoch();
    ASSERT_EQ(report.batches, 3u);  // 18 entries / capacity 8
    EXPECT_EQ(report.byzantine_users.size(), epoch == 0 ? 2u : 0u);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const service::BatchResult& br = report.results[i];
      EXPECT_TRUE(br.verdict.attestation_valid);
      core::Bytes seed(svc.config().attestor_seed.begin(), svc.config().attestor_seed.end());
      for (const std::uint64_t v : {epoch, std::uint64_t{i}}) {
        for (int b = 0; b < 8; ++b) seed.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
      }
      hash::HmacDrbg drbg{std::span<const std::uint8_t>{seed}};
      EXPECT_EQ(br.attestation,
                ibc::dv_transform(g, ibc::ibs_sign(g, cs, br.attestation_message, drbg),
                                  da.q_id))
          << "epoch " << epoch << " batch " << i;
    }
    EXPECT_EQ(report.assembly_ops, assembly_signed) << "epoch " << epoch;
    EXPECT_EQ(report.verify_ops, verify_prepared[epoch]) << "epoch " << epoch;
    EXPECT_EQ(report.verify_ops.pairings, 2 * report.batches + report.bisection.oracle_calls);
  }
}

TEST_F(ServiceFixture, TwoLanesReadPairwiseKeysWhileUsersActivate) {
  // Two lanes verify batches filed by pairwise keys while another thread
  // registers and activates users, whose keys the registry publishes under
  // its shard locks. Every epoch must verify all of its traffic, with one GT
  // term per distinct signer and per attestation and no G1 term at all.
  AuditService svc = make_service(/*threads=*/2, /*batch_capacity=*/4);
  FleetWorkload fleet{sio, {.users = 16, .active_users = 8, .blocks_per_request = 2, .seed = 37}};
  fleet.populate(svc);
  std::vector<pairing::Point> late_keys;
  for (std::size_t i = 0; i < 12; ++i) {
    late_keys.push_back(sio.extract("late-" + std::to_string(i)).q_id);
  }
  // jthread: a failed ASSERT below still joins before svc goes away.
  std::jthread activator([&] {
    for (std::size_t i = 0; i < late_keys.size(); ++i) {
      svc.register_user("late-" + std::to_string(i), late_keys[i]);
    }
  });
  for (std::size_t epoch = 0; epoch < 3; ++epoch) {
    for (auto& r : fleet.make_requests(svc)) ASSERT_TRUE(svc.submit(std::move(r)).accepted);
    const EpochReport report = svc.run_epoch();
    EXPECT_EQ(report.verified_requests, 8u) << "epoch " << epoch;
    EXPECT_EQ(report.batches, 4u);
    // 8 users × 2 blocks in batches of 4: each batch holds 2 signers. The
    // activations' pairings land in the same global counter window, so only
    // the terms no activation spends are exact here.
    EXPECT_EQ(report.verify_ops.gt_msm_terms, 4u * 2 + 4) << "epoch " << epoch;
    EXPECT_EQ(report.verify_ops.msm_terms, 0u);
    EXPECT_EQ(report.verify_ops.point_muls, 0u);
    EXPECT_GE(report.verify_ops.pairings, 2 * report.batches);
  }
  activator.join();
  for (std::size_t i = 0; i < late_keys.size(); ++i) {
    const auto handle = svc.registry().find("late-" + std::to_string(i));
    ASSERT_TRUE(handle.has_value());
    EXPECT_EQ(svc.user_q_id(*handle), late_keys[i]);
  }
}

TEST_F(ServiceFixture, StaleReplayIsFilteredAtZeroPairingCost) {
  AuditService svc = make_service();
  FleetWorkload fleet{sio, {.users = 16, .active_users = 3, .blocks_per_request = 2, .seed = 11}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  ASSERT_EQ(svc.run_epoch().verified_requests, 3u);

  // Round 2: user 1 replays its already-audited version.
  auto behaviors = [](std::size_t i) {
    return i == 1 ? FleetBehavior::kStaleReplay : FleetBehavior::kHonest;
  };
  for (auto& r : fleet.make_requests(svc, behaviors)) svc.submit(std::move(r));
  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.stale_rejected, 1u);
  EXPECT_EQ(report.verified_requests, 2u);
  EXPECT_EQ(report.failed_requests, 1u);
  EXPECT_EQ(report.entries, 4u) << "stale request never reaches a batch";
  EXPECT_EQ(report.verify_ops.pairings, 2 * report.batches)
      << "the replay cost zero extra pairings";
  EXPECT_TRUE(report.byzantine_users.empty())
      << "a stale replay is filtered, not isolated";
}

TEST_F(ServiceFixture, InEpochReplayIsFilteredAsStale) {
  // Every request submitted twice in ONE epoch: the second copy carries a
  // version already admitted for its user this epoch, so it is a replay
  // and must be filtered like a cross-epoch one, not verified again.
  AuditService svc = make_service();
  FleetWorkload fleet{sio, {.users = 16, .active_users = 4, .blocks_per_request = 2, .seed = 17}};
  fleet.populate(svc);
  const std::vector<AuditRequest> requests = fleet.make_requests(svc);
  for (const AuditRequest& r : requests) ASSERT_TRUE(svc.submit(r).accepted);
  for (const AuditRequest& r : requests) ASSERT_TRUE(svc.submit(r).accepted);

  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.requests, 8u);
  EXPECT_EQ(report.verified_requests, 4u);
  EXPECT_EQ(report.stale_rejected, 4u);
  EXPECT_EQ(report.failed_requests, 4u);
  EXPECT_EQ(report.entries, 8u) << "the replayed copies never reach a batch";
  EXPECT_TRUE(report.byzantine_users.empty());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(svc.registry().audited_version(fleet.handle(i)), requests[i].version);
  }
}

TEST_F(ServiceFixture, ByzantineSignerIsolatedWithoutPoisoningTheBatch) {
  AuditService svc = make_service(/*threads=*/1, /*batch_capacity=*/16);
  FleetWorkload fleet{sio, {.users = 32, .active_users = 5, .blocks_per_request = 3, .seed = 13}};
  fleet.populate(svc);
  auto behaviors = [](std::size_t i) {
    return i == 2 ? FleetBehavior::kBadSignature : FleetBehavior::kHonest;
  };
  for (auto& r : fleet.make_requests(svc, behaviors)) svc.submit(std::move(r));

  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.entries, 15u);
  EXPECT_EQ(report.batches, 1u);
  ASSERT_EQ(report.invalid_entries.size(), 1u);
  EXPECT_EQ(report.invalid_entries[0].user, fleet.handle(2));
  EXPECT_EQ(report.invalid_entries[0].block_index, 0u);
  ASSERT_EQ(report.byzantine_users.size(), 1u);
  EXPECT_EQ(report.byzantine_users[0], fleet.handle(2));
  EXPECT_EQ(report.failed_requests, 1u);
  EXPECT_EQ(report.verified_requests, 4u) << "honest users still accepted";
  // 2 pairings for the batch + at most k·⌈log2 n⌉ isolation oracle calls.
  EXPECT_GT(report.bisection.oracle_calls, 0u);
  EXPECT_EQ(report.verify_ops.pairings,
            2 * report.batches + report.bisection.oracle_calls);
  // The Byzantine user's version did NOT advance: a later honest submission
  // at the same version must succeed.
  EXPECT_EQ(svc.registry().audited_version(fleet.handle(2)), 0u);
}

TEST_F(ServiceFixture, SmallOrderBoundKeyGetsThePerEntryVerdict) {
  // Binding only checks that a key is on the curve, so a hostile user can
  // bind a point of order 2 or 3 (outside G1). ê(·, sk_B) maps it to the
  // identity, so its bound pairwise key is 1 and its blocks are checked as
  // ê(U, sk_B) == Σ'. run_epoch must not throw; each such user's outcome must
  // be what per-entry dv_verify says about its blocks, and the honest users
  // sharing the batch still verify.
  AuditService svc = make_service(/*threads=*/2, /*batch_capacity=*/16);
  FleetWorkload fleet{sio, {.users = 16, .active_users = 3, .blocks_per_request = 2, .seed = 19}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) ASSERT_TRUE(svc.submit(std::move(r)).accepted);

  // Σ' = ê(sk_DA, U + h·Q) passes dv_verify under key Q; an unrelated Σ'
  // fails. U is drawn until h·Q ≠ O, so every block's target carries the
  // torsion and the check cannot pass by h ≡ 0 mod the key's order.
  const auto make_block = [&](const pairing::Point& q, std::uint64_t index, bool consistent) {
    core::SignedBlock sb;
    sb.block = core::DataBlock::from_value(index, 77 + index);
    num::BigUint h;
    do {
      sb.sig.u = g.mul(g.random_scalar(rng), g.generator());
      h = ibc::tag_hash(g, sb.sig.u, core::block_message_bytes(sb.block));
    } while (g.curve().mul(h, q).infinity);
    sb.sig.sigma_da = consistent ? g.pair(da.secret, g.add(sb.sig.u, g.mul(h, q)))
                                 : g.pair(g.generator(), sb.sig.u);
    sb.sig.sigma_cs = sb.sig.sigma_da;
    return sb;
  };
  const ibc::DesignatedVerifier dv{g, da};
  const std::vector<std::uint8_t> identity_key = g.gt_serialize(g.gt_one());
  struct Hostile {
    UserHandle user;
    bool per_entry_valid;
  };
  std::vector<Hostile> hostile;
  for (const std::uint64_t order : {2u, 3u}) {
    const num::BigUint cofactor = (g.params().p + num::BigUint{1}) / num::BigUint{order};
    pairing::Point key = pairing::Point::at_infinity();
    while (key.infinity) key = g.curve().mul(cofactor, g.curve().random_point(rng));
    for (const bool consistent : {true, false}) {
      AuditRequest r;
      r.user = svc.register_user(
          "torsion-" + std::to_string(order) + (consistent ? "-consistent" : "-forged"), key);
      const auto bound = svc.registry().prepared_key(r.user);
      EXPECT_TRUE(std::equal(bound.begin(), bound.end(), identity_key.begin(),
                             identity_key.end()))
          << "order " << order << ": the pairwise key of a torsion point is 1";
      r.version = 1;
      r.blocks = {make_block(key, 0, true), make_block(key, 1, consistent)};
      bool valid = true;
      for (const core::SignedBlock& sb : r.blocks) {
        const auto message = core::block_message_bytes(sb.block);
        const bool entry_valid = ibc::dv_verify(g, key, message, sb.sig.for_da(), da);
        EXPECT_EQ(dv.verify(key, message, sb.sig.for_da()), entry_valid);
        EXPECT_EQ(dv.verify(dv.pairwise_key(key), message, sb.sig.for_da()), entry_valid);
        valid = valid && entry_valid;
      }
      hostile.push_back({r.user, valid});
      ASSERT_TRUE(svc.submit(std::move(r)).accepted);
    }
  }

  ASSERT_EQ(std::count_if(hostile.begin(), hostile.end(),
                          [](const Hostile& h) { return h.per_entry_valid; }),
            2) << "one consistent and one forged request per key";

  EpochReport report;
  ASSERT_NO_THROW(report = svc.run_epoch());
  EXPECT_EQ(report.requests, 7u);
  for (const Hostile& h : hostile) {
    EXPECT_EQ(svc.registry().audited_version(h.user), h.per_entry_valid ? 1u : 0u);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.registry().audited_version(fleet.handle(i)), 1u) << "honest user " << i;
  }
}

TEST_F(ServiceFixture, UnkeyedUsersAreRejectedBeforeBatching) {
  AuditService svc = make_service();
  const UserHandle ghost = svc.register_user("ghost");  // record, no key
  AuditRequest r;
  r.user = ghost;
  r.version = 1;
  r.blocks.resize(1);
  svc.submit(std::move(r));
  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.unkeyed_rejected, 1u);
  EXPECT_EQ(report.entries, 0u);
  EXPECT_EQ(report.verify_ops.pairings, 0u);
}

TEST_F(ServiceFixture, ForeignHandlesAreFiledUnkeyedAndHonestRequestsStillVerify) {
  // Handles this registry never issued: a shard past the last one
  // (kInvalidUser) and an index one past the last record of a shard.
  // AuditService::submit refuses them, so they reach the queue here only
  // through AdmissionQueue::submit, which admits any handle; the epoch must
  // still file them as unkeyed instead of throwing after the drain and
  // losing every honest request drained beside them. Submission runs on its
  // own thread so the TSan job covers submit-then-run_epoch.
  AuditService svc = make_service(/*threads=*/2);
  service::VerdictLedger ledger;
  obs::JourneyRecorder journeys{{.sample_every = 1}};
  svc.attach_ledger(&ledger);
  svc.attach_journeys(&journeys);
  FleetWorkload fleet{sio, {.users = 8, .active_users = 4, .blocks_per_request = 2, .seed = 29}};
  fleet.populate(svc);
  const UserHandle past_last_index = svc.register_user("last-registered") + 1;

  std::vector<AuditRequest> traffic = fleet.make_requests(svc);
  for (const UserHandle foreign : {service::kInvalidUser, past_last_index}) {
    AuditRequest r = traffic[0];
    r.user = foreign;
    traffic.insert(traffic.begin(), std::move(r));
  }
  std::thread submitter{[&] {
    for (AuditRequest& r : traffic) {
      if (svc.registry().issued(r.user)) {
        EXPECT_TRUE(svc.submit(std::move(r)).accepted);
      } else {
        EXPECT_FALSE(svc.submit(r).accepted) << "refused before the queue";
        EXPECT_TRUE(svc.queue().submit(std::move(r)).accepted);
      }
    }
  }};
  submitter.join();

  EpochReport report;
  ASSERT_NO_THROW(report = svc.run_epoch());
  EXPECT_EQ(report.requests, 6u);
  EXPECT_EQ(report.unkeyed_rejected, 2u);
  EXPECT_EQ(report.verified_requests, 4u) << "the honest requests of the same epoch";
  EXPECT_EQ(report.failed_requests, 2u);
  EXPECT_EQ(report.entries, 8u) << "foreign requests never reach a batch";
  EXPECT_EQ(svc.queue().depth(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(svc.registry().audited_version(fleet.handle(i)), 1u) << "user " << i;
  }

  std::vector<UserHandle> unkeyed_ledger;
  for (const service::LedgerEntry& e : service::replay_ledger(ledger.bytes()).entries) {
    if (std::string{to_string(e.verdict)} == "unkeyed") unkeyed_ledger.push_back(e.user);
  }
  EXPECT_EQ(unkeyed_ledger, (std::vector<UserHandle>{past_last_index, service::kInvalidUser}));
  std::vector<UserHandle> unkeyed_journeys;
  for (const obs::JourneyRecord& j : obs::replay_journeys(journeys.stream()).records) {
    if (std::string{to_string(j.verdict)} == "unkeyed") unkeyed_journeys.push_back(j.user);
  }
  EXPECT_EQ(unkeyed_journeys, unkeyed_ledger);
}

TEST_F(ServiceFixture, SubmitRefusesForeignHandlesWithoutTakingAQueueSlot) {
  // A burst of handles the registry never issued must not fill the queue
  // ahead of honest traffic: each is refused at submit, takes no slot and no
  // request id, and the honest requests after it are all admitted and
  // verified. Submission runs on its own thread for the TSan job.
  ServiceConfig config;
  config.registry.shards = 4;
  config.epoch.queue_capacity = 4;
  AuditService svc{g, da, cs, config};
  FleetWorkload fleet{sio, {.users = 8, .active_users = 4, .blocks_per_request = 2, .seed = 31}};
  fleet.populate(svc);
  const UserHandle past_last_index = svc.register_user("last-registered") + 1;
  std::vector<AuditRequest> honest = fleet.make_requests(svc);

  std::thread submitter{[&] {
    for (std::size_t i = 0; i < 2 * config.epoch.queue_capacity; ++i) {
      AuditRequest r = honest[i % honest.size()];
      r.user = i % 2 == 0 ? service::kInvalidUser : past_last_index;
      const service::Admission refused = svc.submit(std::move(r));
      EXPECT_FALSE(refused.accepted) << "foreign request " << i;
      EXPECT_EQ(refused.retry_after_epochs, 0u) << "a retry cannot help";
      EXPECT_EQ(refused.request_id, 0u);
    }
    EXPECT_EQ(svc.queue().depth(), 0u);
    for (AuditRequest& r : honest) EXPECT_TRUE(svc.submit(std::move(r)).accepted);
  }};
  submitter.join();
  EXPECT_EQ(svc.queue().rejected_total(), 0u) << "refusals are not backpressure";

  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.requests, 4u);
  EXPECT_EQ(report.verified_requests, 4u);
  EXPECT_EQ(report.unkeyed_rejected, 0u);
}

TEST_F(ServiceFixture, MetricsFlowThroughTheRegistry) {
  obs::MetricsRegistry metrics;  // must outlive the service's pool threads
  AuditService svc = make_service();
  svc.bind_metrics(metrics, "svc");
  FleetWorkload fleet{sio, {.users = 8, .active_users = 2, .blocks_per_request = 2, .seed = 3}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  svc.run_epoch();

  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("svc.queue.admitted"), 2u);
  EXPECT_EQ(snap.counters.at("svc.requests.verified"), 2u);
  EXPECT_EQ(snap.counters.at("svc.epochs"), 1u);
  EXPECT_EQ(snap.histograms.at("svc.epoch_ms").count, 1u);
  EXPECT_EQ(snap.gauges.at("svc.queue.queue_depth").max, 2);
  // The backpressure hint is a surfaced gauge, not a buried config knob.
  EXPECT_EQ(snap.gauges.at("svc.queue.retry_after_epochs").value,
            static_cast<std::int64_t>(svc.queue().config().retry_after_epochs));
}

TEST_F(ServiceFixture, AdmissionTotalsAndRetryHintSurviveBackpressure) {
  obs::MetricsRegistry metrics;
  ServiceConfig config;
  config.registry.shards = 2;
  config.epoch.queue_capacity = 4;
  config.epoch.retry_after_epochs = 3;
  config.threads = 1;
  AuditService svc{g, da, cs, config};
  svc.bind_metrics(metrics, "svc");
  FleetWorkload fleet{sio, {.users = 8, .active_users = 8, .blocks_per_request = 1, .seed = 23}};
  fleet.populate(svc);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (auto& r : fleet.make_requests(svc)) {
    const auto ticket = svc.submit(std::move(r));
    if (ticket.accepted) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_EQ(ticket.retry_after_epochs, 3u) << "hint attached to the reject";
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 4u);
  EXPECT_EQ(svc.queue().admitted_total(), 4u);
  EXPECT_EQ(svc.queue().rejected_total(), 4u);
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.gauges.at("svc.queue.retry_after_epochs").value, 3);

  // The epoch report republishes the hint in its JSON summary.
  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.retry_after_epochs, 3u);
  EXPECT_NE(report.to_json().find("\"retry_after_epochs\":3"), std::string::npos)
      << report.to_json();
}

TEST_F(ServiceFixture, ConcurrentSubmittersWithEpochDriver) {
  // The registry must outlive the service: pool workers can still be
  // recording task latency into the bound histograms for a moment after
  // run_epoch() returns, so destroying the registry first is use-after-free
  // (the TSan job catches exactly this ordering).
  obs::MetricsRegistry metrics;
  AuditService svc = make_service(/*threads=*/2);
  FleetWorkload fleet{sio, {.users = 16, .active_users = 4, .blocks_per_request = 1, .seed = 17}};
  fleet.populate(svc);
  // Pre-build three rounds of traffic, then submit from racing threads while
  // metrics bind late — verification itself stays on the driver thread.
  std::vector<service::AuditRequest> traffic;
  for (int round = 0; round < 3; ++round) {
    for (auto& r : fleet.make_requests(svc)) traffic.push_back(std::move(r));
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= traffic.size()) return;
        svc.submit(std::move(traffic[i]));
      }
    });
  }
  svc.bind_metrics(metrics, "svc");
  for (auto& t : submitters) t.join();

  std::size_t verified = 0;
  // Out-of-order versions across rounds may reject some as stale; every
  // entry must still be either verified or filtered — never lost.
  std::size_t outcomes = 0;
  for (int epoch = 0; epoch < 2; ++epoch) {
    const EpochReport report = svc.run_epoch();
    verified += report.verified_requests;
    outcomes += report.verified_requests + report.failed_requests;
  }
  EXPECT_EQ(outcomes, traffic.size());
  EXPECT_GE(verified, 4u) << "at least the newest version per user verifies";
}

}  // namespace
}  // namespace seccloud
