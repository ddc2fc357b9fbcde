// Forensic verdict ledger: the fixed-width entry codec (round-trip +
// every-byte truncation sweep, the PR-4 crash-sweep pattern), the
// bisection-path recomputation against the actual split rule, the service
// integration (attribution from ledger bytes alone, pre-batch filter
// records), registry occupancy sanity, and the epoch-report JSON summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bigint/rng.h"
#include "ibc/keys.h"
#include "obs/telemetry.h"
#include "pairing/group.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud::service {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

LedgerEntry sample_entry() {
  LedgerEntry e;
  e.epoch = 17;
  e.user = 0xdeadbeefcafe;
  e.version = 9;
  e.batch = 3;
  e.request_index = 41;
  e.block_index = 2;
  e.entry_in_batch = 11;
  e.verdict = obs::Verdict::kInvalidSignature;
  e.isolation_depth = 5;
  e.isolation_path = 0b10110;
  e.batch_pairings = 14;
  e.journey_id = 0x0123456789abcdef;
  return e;
}

// --- codec ------------------------------------------------------------------

TEST(LedgerCodec, EntryRoundTrips) {
  const LedgerEntry entry = sample_entry();
  const auto payload = encode_ledger_entry(entry);
  EXPECT_EQ(payload.size(), 64u) << "fixed-width payload";
  const auto decoded = decode_ledger_entry(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, entry);
}

TEST(LedgerCodec, FilteredRequestRecordRoundTrips) {
  LedgerEntry entry;
  entry.epoch = 2;
  entry.user = 7;
  entry.version = 1;
  entry.batch = obs::kNoBatch;  // filtered before batching
  entry.verdict = obs::Verdict::kStaleReplay;
  const auto decoded = decode_ledger_entry(encode_ledger_entry(entry));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, entry);
}

TEST(LedgerCodec, RejectsWrongSizeAndBadVerdict) {
  auto payload = encode_ledger_entry(sample_entry());
  EXPECT_FALSE(decode_ledger_entry({payload.data(), payload.size() - 1}));
  payload[40] = 0;  // verdict byte below the enum range
  EXPECT_FALSE(decode_ledger_entry(payload).has_value());
  payload[40] = 6;  // rejected-admission: it ends a journey, never a ledger record
  EXPECT_FALSE(decode_ledger_entry(payload).has_value());
}

TEST(LedgerStream, EveryTruncationPointYieldsAnIntactPrefix) {
  VerdictLedger ledger{/*stream_id=*/5};
  for (std::uint64_t i = 0; i < 4; ++i) {
    LedgerEntry entry = sample_entry();
    entry.epoch = i;
    ledger.append(entry);
  }
  EXPECT_EQ(ledger.records(), 4u);
  const auto bytes = ledger.bytes();
  const std::size_t record_size = bytes.size() / 4;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const LedgerReplay replay = replay_ledger(bytes.subspan(0, cut));
    EXPECT_EQ(replay.entries.size(), cut / record_size) << "cut=" << cut;
    EXPECT_EQ(replay.torn_tail, cut % record_size != 0) << "cut=" << cut;
    EXPECT_EQ(replay.malformed_payloads, 0u);
    for (std::size_t i = 0; i < replay.entries.size(); ++i) {
      EXPECT_EQ(replay.entries[i].epoch, i) << "append order preserved";
    }
  }
}

TEST(LedgerStream, ForeignRecordTypesCountAsMalformedNotEntries) {
  // A ledger stream should hold only kLedgerEntry records; a snapshot
  // record spliced in frame-decodes but must be surfaced, not dropped.
  VerdictLedger ledger;
  ledger.append(sample_entry());
  std::vector<std::uint8_t> stream{ledger.bytes().begin(), ledger.bytes().end()};
  obs::TelemetryRecord alien;
  alien.type = obs::TelemetryRecordType::kEpochSnapshot;
  alien.seq = 1;
  alien.payload = {'{', '}'};
  const auto alien_bytes = obs::encode_telemetry_record(alien);
  stream.insert(stream.end(), alien_bytes.begin(), alien_bytes.end());

  const LedgerReplay replay = replay_ledger(stream);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.malformed_payloads, 1u);
}

// --- bisection path ---------------------------------------------------------

TEST(IsolationPathTest, DescentReachesExactlyTheIndexedEntry) {
  // For every (index, n) the recomputed path, replayed against the actual
  // split rule (mid = lo + (hi-lo)/2, left first), must shrink [0, n) to
  // exactly [index, index+1).
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 24u, 100u}) {
    for (std::size_t index = 0; index < n; ++index) {
      const IsolationPath path = bisection_path(index, n);
      std::size_t lo = 0;
      std::size_t hi = n;
      for (std::uint8_t level = 0; level < path.depth; ++level) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if ((path.bits >> level & 1u) != 0) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      EXPECT_EQ(lo, index) << "n=" << n;
      EXPECT_EQ(hi, index + 1) << "n=" << n;
      // Depth is the exact number of halvings needed, ≤ ceil(log2 n).
      std::size_t ceil_log2 = 0;
      while ((std::size_t{1} << ceil_log2) < n) ++ceil_log2;
      EXPECT_LE(path.depth, ceil_log2) << "index=" << index << " n=" << n;
    }
  }
}

TEST(IsolationPathTest, SingletonBatchNeedsNoDescent) {
  const IsolationPath path = bisection_path(0, 1);
  EXPECT_EQ(path.depth, 0u);
  EXPECT_EQ(path.bits, 0u);
}

// --- service integration ----------------------------------------------------

struct LedgerServiceFixture : ::testing::Test {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{5151};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey da = sio.extract("agency@ledger");
  ibc::IdentityKey cs = sio.extract("cs@ledger");

  AuditService make_service(std::size_t batch_capacity = 32) {
    ServiceConfig config;
    config.registry.shards = 4;
    config.epoch.batch_capacity = batch_capacity;
    config.threads = 1;
    return AuditService{g, da, cs, config};
  }
};

TEST_F(LedgerServiceFixture, EveryAuditedEntryGetsExactlyOneRecord) {
  AuditService svc = make_service(/*batch_capacity=*/8);
  VerdictLedger ledger;
  svc.attach_ledger(&ledger);
  sim::FleetWorkload fleet{
      sio, {.users = 16, .active_users = 5, .blocks_per_request = 3, .seed = 21}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  const EpochReport report = svc.run_epoch();
  ASSERT_EQ(report.verified_requests, 5u);

  const LedgerReplay replay = replay_ledger(ledger.bytes());
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.entries.size(), 15u) << "5 requests x 3 blocks";
  for (const auto& entry : replay.entries) {
    EXPECT_EQ(entry.verdict, obs::Verdict::kVerified);
    EXPECT_NE(entry.batch, obs::kNoBatch);
    EXPECT_LT(entry.batch, report.batches);
    EXPECT_EQ(entry.epoch, report.epoch);
    EXPECT_EQ(entry.isolation_depth, 0u) << "clean entries take no descent";
    EXPECT_EQ(entry.batch_pairings, 2u) << "the clean-batch invariant";
    EXPECT_EQ(entry.version, 1u);
    EXPECT_EQ(entry.journey_id, 0u) << "no journey recorder attached";
  }
}

TEST_F(LedgerServiceFixture, PreBatchFiltersAreRecordedWithNoBatch) {
  AuditService svc = make_service();
  VerdictLedger ledger;
  svc.attach_ledger(&ledger);
  sim::FleetWorkload fleet{
      sio, {.users = 8, .active_users = 3, .blocks_per_request = 2, .seed = 31}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  svc.run_epoch();
  const std::size_t round1 = replay_ledger(ledger.bytes()).entries.size();
  ASSERT_EQ(round1, 6u);

  // Round 2: user 0 replays its audited version; a ghost user has no key.
  for (auto& r : fleet.make_requests(svc, [](std::size_t i) {
         return i == 0 ? sim::FleetBehavior::kStaleReplay
                       : sim::FleetBehavior::kHonest;
       })) {
    svc.submit(std::move(r));
  }
  AuditRequest ghost;
  ghost.user = svc.register_user("ghost@ledger");
  ghost.version = 1;
  ghost.blocks.resize(1);
  svc.submit(std::move(ghost));
  const EpochReport report = svc.run_epoch();
  ASSERT_EQ(report.stale_rejected, 1u);
  ASSERT_EQ(report.unkeyed_rejected, 1u);

  const LedgerReplay replay = replay_ledger(ledger.bytes());
  std::vector<LedgerEntry> filtered;
  for (std::size_t i = round1; i < replay.entries.size(); ++i) {
    if (replay.entries[i].verdict != obs::Verdict::kVerified) {
      filtered.push_back(replay.entries[i]);
    }
  }
  ASSERT_EQ(filtered.size(), 2u);
  for (const auto& entry : filtered) {
    EXPECT_EQ(entry.batch, obs::kNoBatch) << "filtered before any batch formed";
    EXPECT_EQ(entry.batch_pairings, 0u) << "filters cost zero pairings";
    EXPECT_EQ(entry.epoch, report.epoch);
  }
  EXPECT_EQ(filtered[0].verdict, obs::Verdict::kStaleReplay);
  EXPECT_EQ(filtered[0].user, fleet.handle(0));
  EXPECT_EQ(filtered[1].verdict, obs::Verdict::kUnkeyed);
}

TEST_F(LedgerServiceFixture, SnapshotShardHeatMatchesRegistryOccupancy) {
  obs::MetricsRegistry metrics;
  AuditService svc = make_service();
  obs::TelemetrySink sink{metrics};
  svc.attach_telemetry(&sink);
  sim::FleetWorkload fleet{
      sio, {.users = 200, .active_users = 4, .blocks_per_request = 1, .seed = 41}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  svc.run_epoch();

  ASSERT_EQ(sink.ring().size(), 1u);
  const obs::EpochSnapshot& snap = sink.ring().back();
  const auto occupancy = svc.registry().occupancy();
  ASSERT_EQ(snap.shards.size(), occupancy.size());
  std::uint64_t users = 0;
  std::uint64_t keyed = 0;
  for (std::size_t i = 0; i < occupancy.size(); ++i) {
    EXPECT_EQ(snap.shards[i].users, occupancy[i].users);
    EXPECT_EQ(snap.shards[i].probe_max, occupancy[i].probe_max);
    users += occupancy[i].users;
    keyed += occupancy[i].keyed;
    // Probe stats stay coherent: the max probe can't exceed the total, and
    // a populated shard's table must hold its users below the load factor.
    EXPECT_LE(occupancy[i].probe_max, occupancy[i].probe_total);
    if (occupancy[i].users > 0) {
      EXPECT_GT(occupancy[i].table_slots, occupancy[i].users);
    }
  }
  EXPECT_EQ(users, svc.registry().size()) << "occupancy covers every user";
  EXPECT_EQ(users, 200u);
  EXPECT_EQ(keyed, 4u);
}

TEST_F(LedgerServiceFixture, EpochReportJsonCarriesTheSummaryFields) {
  AuditService svc = make_service();
  VerdictLedger ledger;
  svc.attach_ledger(&ledger);
  sim::FleetWorkload fleet{
      sio, {.users = 8, .active_users = 2, .blocks_per_request = 2, .seed = 51}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  const EpochReport report = svc.run_epoch();
  const std::string json = report.to_json();
  for (const char* key :
       {"\"epoch\"", "\"requests\"", "\"verified_requests\"", "\"batches\"",
        "\"verify_pairings\"", "\"retry_after_epochs\"", "\"epoch_ms\"",
        "\"telemetry_ms\"", "\"byzantine_users\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(LedgerVerdictTest, NamesAreStable) {
  EXPECT_STREQ(to_string(obs::Verdict::kVerified), "verified");
  EXPECT_STREQ(to_string(obs::Verdict::kInvalidSignature), "invalid-signature");
  EXPECT_STREQ(to_string(obs::Verdict::kStaleReplay), "stale-replay");
  EXPECT_STREQ(to_string(obs::Verdict::kUnkeyed), "unkeyed");
  EXPECT_STREQ(to_string(obs::Verdict::kAttestationFailed), "attestation-failed");
}

}  // namespace
}  // namespace seccloud::service
