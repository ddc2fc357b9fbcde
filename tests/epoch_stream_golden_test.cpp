// Golden epoch streams: one seeded mixed epoch of the audit service — honest
// users, a bad signature, a stale replay, an in-epoch duplicate, an unkeyed
// probe and a backpressure reject — run at 1, 2 and 4 engine lanes. The
// verdict ledger bytes, every non-timing field of each journey record and
// the deterministic fields of the epoch snapshot are pinned as literals, so
// any rework of the epoch driver must reproduce all three streams exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bigint/rng.h"
#include "hash/sha256.h"
#include "ibc/keys.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "pairing/group.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud::service {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "0x";
  bool leading = true;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const char c = digits[(v >> shift) & 0xF];
    if (leading && c == '0' && shift != 0) continue;
    leading = false;
    out.push_back(c);
  }
  return out;
}

/// A batch id, with the "no batch" sentinel spelled out.
std::string batch_id(std::uint32_t batch) {
  return batch == ~std::uint32_t{0} ? "-" : std::to_string(batch);
}

std::string ledger_row(const LedgerEntry& e) {
  return "epoch=" + std::to_string(e.epoch) + " user=" + hex64(e.user) +
         " version=" + std::to_string(e.version) + " batch=" + batch_id(e.batch) +
         " request=" + std::to_string(e.request_index) +
         " block=" + std::to_string(e.block_index) +
         " entry=" + std::to_string(e.entry_in_batch) + " " + to_string(e.verdict) +
         " depth=" + std::to_string(e.isolation_depth) +
         " path=" + std::to_string(e.isolation_path) +
         " pairings=" + std::to_string(e.batch_pairings) +
         " journey=" + std::to_string(e.journey_id);
}

/// Every field except stage_us, end_to_end_us and the slowest-of-epoch
/// sampling bit, which depend on the clock.
std::string journey_row(const obs::JourneyRecord& j) {
  const unsigned sampled = j.sampled & ~unsigned{obs::kJourneySampledSlowest};
  const std::string request_index = j.request_index == obs::kJourneyNoRequest
                                        ? "-"
                                        : std::to_string(j.request_index);
  return "id=" + std::to_string(j.request_id) + " user=" + hex64(j.user) +
         " epoch=" + std::to_string(j.epoch) + " batch=" + batch_id(j.batch) +
         " request=" + request_index + " blocks=" + std::to_string(j.blocks) +
         " retry=" + std::to_string(j.retry_after_epochs) + " " + to_string(j.verdict) +
         " sampled=" + std::to_string(sampled) +
         " depth=" + std::to_string(j.bisection_depth) +
         " milli=" + std::to_string(j.amortized_pairings_milli);
}

struct EpochStreams {
  std::size_t ledger_bytes = 0;
  std::string ledger_sha256;
  std::vector<std::string> ledger_rows;
  std::vector<std::string> journey_rows;
  std::string snapshot_json;  ///< with epoch_ms, telemetry_ms and counter_deltas cleared
};

EpochStreams run_mixed_epoch(std::size_t lanes) {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{0xE90C};
  const ibc::Sio sio{g, rng};
  const ibc::IdentityKey da = sio.extract("agency@epoch-golden");
  const ibc::IdentityKey cs = sio.extract("cs@epoch-golden");
  ServiceConfig config;
  config.registry.shards = 4;
  config.epoch.queue_capacity = 7;
  config.epoch.batch_capacity = 3;
  config.threads = lanes;
  AuditService svc{g, da, cs, config};

  obs::MetricsRegistry metrics;
  svc.bind_metrics(metrics, "svc");
  obs::TelemetrySink telemetry{metrics};
  VerdictLedger ledger;
  obs::JourneyRecorder journeys{{.sample_every = 1}};
  svc.attach_telemetry(&telemetry);
  svc.attach_ledger(&ledger);
  svc.attach_journeys(&journeys);

  sim::FleetWorkload fleet{sio,
                           {.users = 12,
                            .active_users = 6,
                            .blocks_per_request = 2,
                            .seed = 23,
                            .include_unkeyed_probe = true}};
  fleet.populate(svc);
  // User 0 flips a payload byte, user 1 replays version 0, user 2 submits
  // under the unkeyed probe, users 3-5 stay honest. User 4's request is then
  // submitted twice more: the first copy is an in-epoch duplicate, the
  // second finds the queue full.
  std::vector<AuditRequest> requests = fleet.make_requests(svc, [](std::size_t i) {
    switch (i) {
      case 0: return sim::FleetBehavior::kBadSignature;
      case 1: return sim::FleetBehavior::kStaleReplay;
      case 2: return sim::FleetBehavior::kUnkeyedProbe;
      default: return sim::FleetBehavior::kHonest;
    }
  });
  const AuditRequest duplicate = requests[4];
  for (AuditRequest& r : requests) EXPECT_TRUE(svc.submit(std::move(r)).accepted);
  EXPECT_TRUE(svc.submit(duplicate).accepted);
  EXPECT_FALSE(svc.submit(duplicate).accepted);
  const EpochReport report = svc.run_epoch();
  EXPECT_EQ(report.requests, 7u);

  EpochStreams out;
  out.ledger_bytes = ledger.bytes().size();
  out.ledger_sha256 = hash::to_hex(hash::Sha256::digest(ledger.bytes()));
  const LedgerReplay ledger_replay = replay_ledger(ledger.bytes());
  EXPECT_FALSE(ledger_replay.torn_tail);
  EXPECT_EQ(ledger_replay.malformed_payloads, 0u);
  for (const LedgerEntry& e : ledger_replay.entries) out.ledger_rows.push_back(ledger_row(e));
  const obs::JourneyReplay journey_replay = obs::replay_journeys(journeys.stream());
  EXPECT_FALSE(journey_replay.torn_tail);
  EXPECT_EQ(journey_replay.malformed_payloads, 0u);
  for (const obs::JourneyRecord& j : journey_replay.records) {
    out.journey_rows.push_back(journey_row(j));
  }
  EXPECT_EQ(telemetry.ring().size(), 1u);
  if (!telemetry.ring().empty()) {
    obs::EpochSnapshot snap = telemetry.ring().back();
    snap.epoch_ms = 0.0;
    snap.telemetry_ms = 0.0;
    snap.counter_deltas.clear();
    out.snapshot_json = snap.to_json();
  }
  return out;
}

class EpochStreamGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpochStreamGolden, MixedEpoch) {
  const EpochStreams streams = run_mixed_epoch(GetParam());

  // Pre-batch filters first, then every flattened entry batch by batch.
  const std::vector<std::string> ledger_rows = {
      "epoch=0 user=0x10000000000 version=0 batch=- request=1 block=0 entry=0 stale-replay depth=0 path=0 pairings=0 journey=2",
      "epoch=0 user=0x3 version=1 batch=- request=2 block=0 entry=0 unkeyed depth=0 path=0 pairings=0 journey=3",
      "epoch=0 user=0x30000000002 version=1 batch=- request=6 block=0 entry=0 stale-replay depth=0 path=0 pairings=0 journey=7",
      "epoch=0 user=0x0 version=1 batch=0 request=0 block=0 entry=0 invalid-signature depth=1 path=0 pairings=3 journey=1",
      "epoch=0 user=0x0 version=1 batch=0 request=0 block=1 entry=1 verified depth=0 path=0 pairings=3 journey=1",
      "epoch=0 user=0x30000000001 version=1 batch=0 request=3 block=0 entry=2 verified depth=0 path=0 pairings=3 journey=4",
      "epoch=0 user=0x30000000001 version=1 batch=1 request=3 block=1 entry=0 verified depth=0 path=0 pairings=2 journey=4",
      "epoch=0 user=0x30000000002 version=1 batch=1 request=4 block=0 entry=1 verified depth=0 path=0 pairings=2 journey=5",
      "epoch=0 user=0x30000000002 version=1 batch=1 request=4 block=1 entry=2 verified depth=0 path=0 pairings=2 journey=5",
      "epoch=0 user=0x30000000003 version=1 batch=2 request=5 block=0 entry=0 verified depth=0 path=0 pairings=2 journey=6",
      "epoch=0 user=0x30000000003 version=1 batch=2 request=5 block=1 entry=1 verified depth=0 path=0 pairings=2 journey=6",
  };
  EXPECT_EQ(streams.ledger_rows, ledger_rows);
  EXPECT_EQ(streams.ledger_bytes, 968u);
  EXPECT_EQ(streams.ledger_sha256,
            "d8457b9c38a0ed7163253047325bb8c0e52bcda10aeb0e04c60029e47286389f");

  const std::vector<std::string> journey_rows = {
      "id=1 user=0x0 epoch=0 batch=0 request=0 blocks=2 retry=0 invalid-signature sampled=11 depth=1 milli=1000",
      "id=2 user=0x10000000000 epoch=0 batch=- request=1 blocks=2 retry=0 stale-replay sampled=9 depth=0 milli=0",
      "id=3 user=0x3 epoch=0 batch=- request=2 blocks=2 retry=0 unkeyed sampled=9 depth=0 milli=0",
      "id=4 user=0x30000000001 epoch=0 batch=0 request=3 blocks=2 retry=0 verified sampled=8 depth=0 milli=1000",
      "id=5 user=0x30000000002 epoch=0 batch=1 request=4 blocks=2 retry=0 verified sampled=8 depth=0 milli=666",
      "id=6 user=0x30000000003 epoch=0 batch=2 request=5 blocks=2 retry=0 verified sampled=8 depth=0 milli=1000",
      "id=7 user=0x30000000002 epoch=0 batch=- request=6 blocks=2 retry=0 stale-replay sampled=9 depth=0 milli=0",
      "id=8 user=0x30000000002 epoch=0 batch=- request=- blocks=0 retry=1 rejected-admission sampled=9 depth=0 milli=0",
  };
  EXPECT_EQ(streams.journey_rows, journey_rows);

  EXPECT_EQ(streams.snapshot_json,
            R"({"epoch":0,"epoch_ms":0,"telemetry_ms":0,"requests":7,)"
            R"("stale_rejected":2,"unkeyed_rejected":1,"entries":8,"batches":3,)"
            R"("verified_requests":3,"failed_requests":4,"byzantine_users":1,)"
            R"("assembly_pairings":0,"verify_pairings":7,)"
            R"("pairings_per_batch":2.3333333333333335,"bisection_oracle_calls":1,)"
            R"("bisection_max_depth":1,"queue_depth_at_drain":7,"queue_admitted":7,)"
            R"("queue_rejected":1,"retry_after_epochs":1,"shards":[{"users":4,)"
            R"("keyed":1,"table_slots":64,"probe_max":0,"probe_total":0},{"users":2,)"
            R"("keyed":1,"table_slots":64,"probe_max":0,"probe_total":0},{"users":3,)"
            R"("keyed":0,"table_slots":64,"probe_max":0,"probe_total":0},{"users":4,)"
            R"("keyed":4,"table_slots":64,"probe_max":0,"probe_total":0}],)"
            R"("counter_deltas":{}})");
}

INSTANTIATE_TEST_SUITE_P(Lanes, EpochStreamGolden, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& param_info) {
                           return "lanes" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace seccloud::service
