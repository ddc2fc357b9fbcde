// Request-lifecycle journey tracing: the 88-byte record codec (round-trip +
// every-byte truncation sweep, the PR-4 crash-sweep pattern), magic
// separation from the telemetry stream, the bounded recorder ring, the
// deterministic sampling coin, hand-computed critical-path attribution, and
// the service integration — full-sampling stage-sum identity, the
// always-sample policy over rejected/filtered/bisected/slowest requests,
// the journey↔ledger join, and the EpochReport JSON round-trip through
// obs::json_parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bigint/rng.h"
#include "hash/sha256.h"
#include "ibc/keys.h"
#include "obs/export.h"
#include "obs/journey.h"
#include "obs/telemetry.h"
#include "pairing/group.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

namespace seccloud::obs {
namespace {

using num::Xoshiro256;
using pairing::tiny_group;

JourneyRecord sample_record() {
  JourneyRecord r;
  r.request_id = 0x1122334455667788;
  r.user = 0xdeadbeefcafe;
  r.epoch = 17;
  r.batch = 3;
  r.request_index = 41;
  r.blocks = 4;
  r.retry_after_epochs = 0;
  r.verdict = Verdict::kInvalidSignature;
  r.sampled = kJourneySampledRejected | kJourneySampledBisected;
  r.bisection_depth = 5;
  r.amortized_pairings_milli = 250;
  r.stage_us = {60, 940, 3, 2, 5, 80, 8, 2};
  r.end_to_end_us = 1100;
  return r;
}

// --- codec ------------------------------------------------------------------

TEST(JourneyCodec, RecordRoundTrips) {
  const JourneyRecord record = sample_record();
  const auto payload = encode_journey_record(record);
  EXPECT_EQ(payload.size(), kJourneyPayloadBytes);
  const auto decoded = decode_journey_record(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);
  EXPECT_EQ(decoded->stage_sum_us(), 1100u);
}

TEST(JourneyCodec, RejectedAdmissionRecordRoundTrips) {
  JourneyRecord record;
  record.request_id = 9;
  record.user = 2;
  record.epoch = 0;
  record.retry_after_epochs = 1;
  record.verdict = Verdict::kRejectedAdmission;
  record.stage_us[0] = 45;
  record.end_to_end_us = 45;
  EXPECT_EQ(record.batch, kNoBatch);
  EXPECT_EQ(record.request_index, kJourneyNoRequest);
  const auto decoded = decode_journey_record(encode_journey_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);
}

TEST(JourneyCodec, RejectsWrongSizeAndBadVerdict) {
  auto payload = encode_journey_record(sample_record());
  EXPECT_FALSE(decode_journey_record({payload.data(), payload.size() - 1}));
  payload[40] = 0;  // verdict byte below the enum range
  EXPECT_FALSE(decode_journey_record(payload).has_value());
  payload[40] = 7;  // above the range
  EXPECT_FALSE(decode_journey_record(payload).has_value());
}

// --- framed stream ----------------------------------------------------------

TEST(JourneyStream, EveryTruncationPointYieldsAnIntactPrefix) {
  JourneyRecorder recorder{{.ring_capacity = 8, .stream_id = 5}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    JourneyRecord record = sample_record();
    record.epoch = i;
    recorder.record(record);
  }
  EXPECT_EQ(recorder.records(), 4u);
  const auto bytes = recorder.stream();
  const std::size_t record_size = bytes.size() / 4;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const JourneyReplay replay = replay_journeys(bytes.subspan(0, cut));
    EXPECT_EQ(replay.records.size(), cut / record_size) << "cut=" << cut;
    EXPECT_EQ(replay.torn_tail, cut % record_size != 0) << "cut=" << cut;
    EXPECT_EQ(replay.malformed_payloads, 0u);
    for (std::size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i].epoch, i) << "append order preserved";
    }
  }
}

TEST(JourneyStream, FlippedByteTruncatesAtTheCorruptRecord) {
  JourneyRecorder recorder;
  for (int i = 0; i < 3; ++i) recorder.record(sample_record());
  std::vector<std::uint8_t> bytes{recorder.stream().begin(), recorder.stream().end()};
  bytes[bytes.size() / 2] ^= 0x01;  // inside record #1
  const JourneyReplay replay = replay_journeys(bytes);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.records.size(), 1u) << "the intact prefix stands";
}

TEST(JourneyStream, MalformedPayloadIsCountedNotDropped) {
  // Rebuild a frame whose payload carries an invalid verdict byte with a
  // valid checksum: the frame replays, the payload loss stays visible.
  JourneyRecorder recorder;
  recorder.record(sample_record());
  recorder.record(sample_record());
  std::vector<std::uint8_t> bytes{recorder.stream().begin(), recorder.stream().end()};
  const std::size_t frame_size = bytes.size() / 2;
  bytes[framing::kHeaderBytes + 40] = 0;  // first record's verdict byte
  const auto digest = hash::Sha256::digest(
      std::span<const std::uint8_t>{bytes.data(), frame_size - 8});
  std::copy(digest.begin(), digest.begin() + 8, bytes.begin() +
            static_cast<std::ptrdiff_t>(frame_size - 8));
  const JourneyReplay replay = replay_journeys(bytes);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.malformed_payloads, 1u);
  EXPECT_EQ(replay.records.size(), 1u);
}

TEST(JourneyStream, MagicSeparatesJourneysFromTelemetry) {
  // A journey stream must never replay as telemetry and vice versa: the
  // 'SY' magic fails the 'ST' check at byte 1 (and both fail the session
  // journal's 'SJ'), so cross-feeding streams yields zero records.
  JourneyRecorder recorder;
  recorder.record(sample_record());
  const TelemetryReplay as_telemetry = replay_telemetry(recorder.stream());
  EXPECT_TRUE(as_telemetry.torn_tail);
  EXPECT_TRUE(as_telemetry.frames.empty());

  TelemetryRecord alien;
  alien.type = TelemetryRecordType::kEpochSnapshot;
  alien.payload = {'{', '}'};
  const auto telemetry_bytes = encode_telemetry_record(alien);
  const JourneyReplay as_journeys = replay_journeys(telemetry_bytes);
  EXPECT_TRUE(as_journeys.torn_tail);
  EXPECT_TRUE(as_journeys.records.empty());
}

// --- the recorder -----------------------------------------------------------

TEST(JourneyRecorderTest, RingIsBoundedTheStreamIsNot) {
  JourneyRecorder recorder{{.ring_capacity = 2}};
  for (std::uint64_t i = 0; i < 5; ++i) {
    JourneyRecord record = sample_record();
    record.request_id = i;
    recorder.record(record);
  }
  EXPECT_EQ(recorder.records(), 5u);
  ASSERT_EQ(recorder.ring().size(), 2u) << "ring evicts past capacity";
  EXPECT_EQ(recorder.ring().front().request_id, 3u);
  EXPECT_EQ(recorder.ring().back().request_id, 4u);
  const JourneyReplay replay = replay_journeys(recorder.stream());
  EXPECT_EQ(replay.records.size(), 5u) << "the stream keeps everything";
  EXPECT_GT(recorder.capture_ms(), 0.0);
}

TEST(JourneyRecorderTest, ProbabilisticCoinIsSeededAndDeterministic) {
  const JourneyRecorder a{{.sample_seed = 1, .sample_every = 16}};
  const JourneyRecorder b{{.sample_seed = 1, .sample_every = 16}};
  const JourneyRecorder c{{.sample_seed = 2, .sample_every = 16}};
  const JourneyRecorder keep_all{{.sample_every = 1}};
  std::size_t kept = 0;
  bool seeds_differ = false;
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    EXPECT_EQ(a.sample_probabilistic(3, id), b.sample_probabilistic(3, id));
    EXPECT_TRUE(keep_all.sample_probabilistic(3, id));
    if (a.sample_probabilistic(3, id) != c.sample_probabilistic(3, id)) {
      seeds_differ = true;
    }
    if (a.sample_probabilistic(3, id)) ++kept;
  }
  EXPECT_TRUE(seeds_differ) << "the seed must matter";
  // 1-in-16 coin over 10k ids: a loose band around 625 (SplitMix64 mixes
  // well; this is a sanity bound, not a statistical test).
  EXPECT_GT(kept, 10'000 / 32);
  EXPECT_LT(kept, 10'000 / 8);
}

// --- critical-path attribution ----------------------------------------------

TEST(JourneyAttributionTest, HandComputedPercentilesAndShares) {
  // Three journeys: 45us reject, 1004us stale filter, 1100us bisected
  // verify. Nearest-rank p99 over {45, 1004, 1100} is 1100, defined by
  // request 101, whose admit stage owns 940/1100 of the critical path.
  std::vector<JourneyRecord> records(3);
  records[0].request_id = 101;
  records[0].stage_us = {60, 940, 3, 2, 5, 80, 8, 2};
  records[0].end_to_end_us = 1100;
  records[1].request_id = 102;
  records[1].stage_us = {55, 946, 3, 0, 0, 0, 0, 0};
  records[1].end_to_end_us = 1004;
  records[2].request_id = 103;
  records[2].stage_us = {45, 0, 0, 0, 0, 0, 0, 0};
  records[2].end_to_end_us = 45;

  const JourneyAttribution attribution = attribute_journeys(records);
  EXPECT_EQ(attribution.journeys, 3u);
  EXPECT_EQ(attribution.p99_end_to_end_us, 1100u);
  EXPECT_EQ(attribution.p99_request_id, 101u);
  const auto admit = static_cast<std::size_t>(JourneyStage::kAdmit);
  EXPECT_EQ(attribution.stages[admit].p50_us, 940u);
  EXPECT_EQ(attribution.stages[admit].p95_us, 946u);
  EXPECT_EQ(attribution.stages[admit].p99_us, 946u);
  EXPECT_EQ(attribution.stages[admit].total_us, 940u + 946u);
  const auto enqueue = static_cast<std::size_t>(JourneyStage::kEnqueue);
  EXPECT_EQ(attribution.stages[enqueue].p50_us, 55u);
  EXPECT_DOUBLE_EQ(attribution.p99_share[admit], 940.0 / 1100.0);
  double share_sum = 0.0;
  for (const double share : attribution.p99_share) share_sum += share;
  EXPECT_DOUBLE_EQ(share_sum, 1.0) << "shares cover the whole critical path";
}

TEST(JourneyAttributionTest, EmptySetIsAllZero) {
  const JourneyAttribution attribution = attribute_journeys({});
  EXPECT_EQ(attribution, JourneyAttribution{});
}

TEST(JourneyNames, AreStable) {
  EXPECT_STREQ(to_string(JourneyStage::kEnqueue), "enqueue");
  EXPECT_STREQ(to_string(JourneyStage::kAdmit), "admit");
  EXPECT_STREQ(to_string(JourneyStage::kFilter), "filter");
  EXPECT_STREQ(to_string(JourneyStage::kFlatten), "flatten");
  EXPECT_STREQ(to_string(JourneyStage::kAttest), "attest");
  EXPECT_STREQ(to_string(JourneyStage::kVerify), "verify");
  EXPECT_STREQ(to_string(JourneyStage::kBisect), "bisect");
  EXPECT_STREQ(to_string(JourneyStage::kVerdict), "verdict");
  EXPECT_STREQ(to_string(Verdict::kVerified), "verified");
  EXPECT_STREQ(to_string(Verdict::kRejectedAdmission), "rejected-admission");
}

// --- service integration ----------------------------------------------------

struct JourneyServiceFixture : ::testing::Test {
  const pairing::PairingGroup& g = tiny_group();
  Xoshiro256 rng{7171};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey da = sio.extract("agency@journey");
  ibc::IdentityKey cs = sio.extract("cs@journey");

  service::AuditService make_service(std::size_t queue_capacity = 64,
                                     std::size_t batch_capacity = 8) {
    service::ServiceConfig config;
    config.registry.shards = 4;
    config.epoch.queue_capacity = queue_capacity;
    config.epoch.batch_capacity = batch_capacity;
    config.threads = 1;
    return service::AuditService{g, da, cs, config};
  }
};

TEST_F(JourneyServiceFixture, FullSamplingKeepsEveryRequestWithStageSumIdentity) {
  service::AuditService svc = make_service();
  JourneyRecorder recorder{{.sample_every = 1}};  // full-fidelity mode
  svc.attach_journeys(&recorder);
  sim::FleetWorkload fleet{
      sio, {.users = 16, .active_users = 5, .blocks_per_request = 3, .seed = 61}};
  fleet.populate(svc);

  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  const service::EpochReport first = svc.run_epoch();
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  const service::EpochReport second = svc.run_epoch();
  ASSERT_EQ(first.verified_requests, 5u);
  ASSERT_EQ(second.verified_requests, 5u);

  const JourneyReplay replay = replay_journeys(recorder.stream());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.malformed_payloads, 0u);
  ASSERT_EQ(replay.records.size(), 10u) << "one journey per request per epoch";
  std::uint64_t last_id = 0;
  for (const JourneyRecord& j : replay.records) {
    EXPECT_GT(j.request_id, last_id) << "global admission ordinal, never reused";
    last_id = j.request_id;
    EXPECT_EQ(j.verdict, Verdict::kVerified);
    EXPECT_NE(j.batch, kNoBatch);
    EXPECT_EQ(j.blocks, 3u);
    EXPECT_EQ(j.bisection_depth, 0u);
    EXPECT_EQ(j.retry_after_epochs, 0u);
    EXPECT_GT(j.amortized_pairings_milli, 0u) << "its share of the 2-pairing batch";
    // The acceptance identity: the stage telescoping reproduces the
    // measured end-to-end within one clock quantum per stage boundary.
    const std::uint64_t sum = j.stage_sum_us();
    const std::uint64_t e2e = j.end_to_end_us;
    EXPECT_LE(sum > e2e ? sum - e2e : e2e - sum, 8u)
        << "request " << j.request_id << ": stage sum " << sum
        << "us vs end-to-end " << e2e << "us";
    EXPECT_TRUE(j.sampled & kJourneySampledProbabilistic) << "keep-all coin";
  }
  // Exactly one slowest-of-epoch journey per epoch.
  for (const service::EpochReport* report : {&first, &second}) {
    std::size_t slowest = 0;
    for (const JourneyRecord& j : replay.records) {
      if (j.epoch == report->epoch && (j.sampled & kJourneySampledSlowest)) ++slowest;
    }
    EXPECT_EQ(slowest, 1u) << "epoch " << report->epoch;
  }

  // With every journey sampled, recomputing the attribution from the
  // replayed bytes alone must reproduce the report's block exactly.
  std::vector<JourneyRecord> second_epoch;
  for (JourneyRecord j : replay.records) {
    if (j.epoch != second.epoch) continue;
    j.sampled = 0;  // the report attributed pre-sampling records
    second_epoch.push_back(j);
  }
  EXPECT_EQ(second.attribution, attribute_journeys(second_epoch));
  EXPECT_EQ(second.attribution.journeys, 5u);
  double share_sum = 0.0;
  for (const double share : second.attribution.p99_share) share_sum += share;
  EXPECT_DOUBLE_EQ(share_sum, 1.0);
}

TEST_F(JourneyServiceFixture, AlwaysSamplePolicyKeepsTheForensicTail) {
  // Coin effectively off (1-in-2^32): what survives is exactly the
  // always-sample set — backpressure rejects, pre-batch filters, bisected
  // requests, and each epoch's slowest journey.
  service::AuditService svc = make_service(/*queue_capacity=*/4);
  JourneyRecorder recorder{{.sample_every = 0xFFFFFFFF}};
  svc.attach_journeys(&recorder);
  sim::FleetWorkload fleet{sio,
                           {.users = 8,
                            .active_users = 4,
                            .blocks_per_request = 2,
                            .seed = 71,
                            .include_unkeyed_probe = true}};
  fleet.populate(svc);

  // Epoch 0: honest wave fills the queue exactly; a duplicate wave must be
  // rejected with a retry-after hint, producing rejected-admission journeys.
  // The duplicates resubmit the already-issued version (kStaleReplay) so the
  // fleet's version bookkeeping stays aligned with what actually got audited.
  for (auto& r : fleet.make_requests(svc)) ASSERT_TRUE(svc.submit(std::move(r)).accepted);
  std::size_t rejected = 0;
  for (auto& r : fleet.make_requests(
           svc, [](std::size_t) { return sim::FleetBehavior::kStaleReplay; })) {
    const service::Admission a = svc.submit(std::move(r));
    if (!a.accepted) {
      ++rejected;
      EXPECT_GT(a.retry_after_epochs, 0u);
    }
  }
  ASSERT_EQ(rejected, 4u);
  const service::EpochReport first = svc.run_epoch();
  ASSERT_EQ(first.requests, 4u);

  // Epoch 1: user 0 flips a payload byte (bisection isolates it), user 1
  // replays its audited version (stale filter), user 2 submits under the
  // unkeyed probe (unkeyed filter), user 3 stays honest.
  for (auto& r : fleet.make_requests(svc, [](std::size_t i) {
         switch (i) {
           case 0: return sim::FleetBehavior::kBadSignature;
           case 1: return sim::FleetBehavior::kStaleReplay;
           case 2: return sim::FleetBehavior::kUnkeyedProbe;
           default: return sim::FleetBehavior::kHonest;
         }
       })) {
    svc.submit(std::move(r));
  }
  const service::EpochReport second = svc.run_epoch();
  ASSERT_EQ(second.stale_rejected, 1u);
  ASSERT_EQ(second.unkeyed_rejected, 1u);
  ASSERT_FALSE(second.byzantine_users.empty());

  const JourneyReplay replay = replay_journeys(recorder.stream());
  ASSERT_FALSE(replay.torn_tail);
  std::map<std::string, std::size_t> verdicts;
  for (const JourneyRecord& j : replay.records) {
    verdicts[to_string(j.verdict)] += 1;
    EXPECT_NE(j.sampled, 0u);
    if (j.verdict != Verdict::kVerified) {
      EXPECT_TRUE(j.sampled & kJourneySampledRejected)
          << "always-sample covers every non-verified journey";
    }
    if (j.verdict == Verdict::kRejectedAdmission) {
      EXPECT_EQ(j.request_index, kJourneyNoRequest) << "never drained";
      EXPECT_EQ(j.batch, kNoBatch);
      EXPECT_GT(j.retry_after_epochs, 0u);
      EXPECT_EQ(j.end_to_end_us, j.stage_sum_us()) << "enqueue-only journey";
    }
    if (j.verdict == Verdict::kInvalidSignature) {
      EXPECT_TRUE(j.sampled & kJourneySampledBisected);
      EXPECT_GT(j.bisection_depth, 0u) << "descent isolated its entry";
    }
  }
  EXPECT_EQ(verdicts["rejected-admission"], 4u);
  EXPECT_EQ(verdicts["stale-replay"], 1u);
  EXPECT_EQ(verdicts["unkeyed"], 1u);
  EXPECT_EQ(verdicts["invalid-signature"], 1u);
  // Plus the slowest-of-epoch journeys: epoch 0's slowest is one of its four
  // verified requests; epoch 1's may coincide with an always-sampled record.
  EXPECT_GE(replay.records.size(), 8u);
  EXPECT_LE(replay.records.size(), 9u);
  // Attribution still covered every journey, sampled or not.
  EXPECT_EQ(second.attribution.journeys, second.requests);
}

TEST_F(JourneyServiceFixture, LedgerJoinCarriesSampledJourneyIds) {
  service::AuditService svc = make_service();
  JourneyRecorder recorder{{.sample_every = 1}};
  service::VerdictLedger ledger;
  svc.attach_journeys(&recorder);
  svc.attach_ledger(&ledger);
  sim::FleetWorkload fleet{
      sio, {.users = 8, .active_users = 4, .blocks_per_request = 2, .seed = 81}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc, [](std::size_t i) {
         return i == 0 ? sim::FleetBehavior::kBadSignature
                       : sim::FleetBehavior::kHonest;
       })) {
    svc.submit(std::move(r));
  }
  const service::EpochReport report = svc.run_epoch();
  ASSERT_EQ(report.requests, 4u);

  const JourneyReplay journeys = replay_journeys(recorder.stream());
  std::map<std::uint64_t, const JourneyRecord*> by_id;
  for (const JourneyRecord& j : journeys.records) by_id[j.request_id] = &j;

  const service::LedgerReplay entries = service::replay_ledger(ledger.bytes());
  ASSERT_EQ(entries.entries.size(), 8u) << "4 requests x 2 blocks";
  for (const service::LedgerEntry& entry : entries.entries) {
    ASSERT_NE(entry.journey_id, 0u)
        << "full sampling: every ledger record links to a journey";
    const auto it = by_id.find(entry.journey_id);
    ASSERT_NE(it, by_id.end()) << "the linked journey is in the stream";
    const JourneyRecord& j = *it->second;
    EXPECT_EQ(j.user, entry.user);
    EXPECT_EQ(j.epoch, entry.epoch);
    EXPECT_EQ(j.request_index, entry.request_index);
    if (entry.verdict == obs::Verdict::kInvalidSignature) {
      EXPECT_EQ(j.verdict, Verdict::kInvalidSignature);
      EXPECT_GE(j.bisection_depth, entry.isolation_depth)
          << "the journey's depth is the max over the request's own entries";
    }
  }
}

TEST_F(JourneyServiceFixture, EpochReportJsonRoundTripsThroughJsonParse) {
  service::AuditService svc = make_service();
  JourneyRecorder recorder{{.sample_every = 1}};
  svc.attach_journeys(&recorder);
  sim::FleetWorkload fleet{
      sio, {.users = 8, .active_users = 3, .blocks_per_request = 2, .seed = 91}};
  fleet.populate(svc);
  for (auto& r : fleet.make_requests(svc)) svc.submit(std::move(r));
  const service::EpochReport report = svc.run_epoch();

  const auto parsed = json_parse(report.to_json());
  ASSERT_TRUE(parsed.has_value()) << report.to_json();
  ASSERT_TRUE(parsed->is_object());
  const auto number = [&](const char* key) {
    const JsonValue* v = parsed->find(key);
    EXPECT_NE(v, nullptr) << key;
    return v != nullptr && v->is_number() ? v->number : -1.0;
  };
  EXPECT_EQ(number("epoch"), static_cast<double>(report.epoch));
  EXPECT_EQ(number("requests"), static_cast<double>(report.requests));
  EXPECT_EQ(number("stale_rejected"), static_cast<double>(report.stale_rejected));
  EXPECT_EQ(number("unkeyed_rejected"), static_cast<double>(report.unkeyed_rejected));
  EXPECT_EQ(number("entries"), static_cast<double>(report.entries));
  EXPECT_EQ(number("batches"), static_cast<double>(report.batches));
  EXPECT_EQ(number("verified_requests"), static_cast<double>(report.verified_requests));
  EXPECT_EQ(number("failed_requests"), static_cast<double>(report.failed_requests));
  EXPECT_EQ(number("invalid_entries"), static_cast<double>(report.invalid_entries.size()));
  EXPECT_EQ(number("assembly_pairings"), static_cast<double>(report.assembly_ops.pairings));
  EXPECT_EQ(number("verify_pairings"), static_cast<double>(report.verify_ops.pairings));
  EXPECT_EQ(number("bisection_oracle_calls"),
            static_cast<double>(report.bisection.oracle_calls));
  EXPECT_EQ(number("bisection_max_depth"),
            static_cast<double>(report.bisection.max_depth));
  EXPECT_EQ(number("retry_after_epochs"), static_cast<double>(report.retry_after_epochs));
  EXPECT_EQ(number("epoch_ms"), report.epoch_ms);
  EXPECT_EQ(number("telemetry_ms"), report.telemetry_ms);
  const JsonValue* byzantine = parsed->find("byzantine_users");
  ASSERT_NE(byzantine, nullptr);
  EXPECT_TRUE(byzantine->is_array());
  EXPECT_EQ(byzantine->array.size(), report.byzantine_users.size());

  // The attribution block, field-complete: per-stage percentiles + the p99
  // journey's shares, exactly as the report computed them.
  const JsonValue* attribution = parsed->find("p99_attribution");
  ASSERT_NE(attribution, nullptr);
  ASSERT_TRUE(attribution->is_object());
  const JsonValue* journeys = attribution->find("journeys");
  ASSERT_NE(journeys, nullptr);
  EXPECT_EQ(journeys->number, static_cast<double>(report.attribution.journeys));
  const JsonValue* p99_e2e = attribution->find("p99_end_to_end_us");
  ASSERT_NE(p99_e2e, nullptr);
  EXPECT_EQ(p99_e2e->number, static_cast<double>(report.attribution.p99_end_to_end_us));
  const JsonValue* p99_id = attribution->find("p99_request_id");
  ASSERT_NE(p99_id, nullptr);
  EXPECT_EQ(p99_id->number, static_cast<double>(report.attribution.p99_request_id));
  const JsonValue* stages = attribution->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  ASSERT_EQ(stages->array.size(), kJourneyStageCount);
  for (std::size_t i = 0; i < kJourneyStageCount; ++i) {
    const JsonValue& stage = stages->array[i];
    ASSERT_TRUE(stage.is_object());
    const JsonValue* name = stage.find("stage");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string, to_string(static_cast<JourneyStage>(i)));
    const StageAttribution& expected = report.attribution.stages[i];
    EXPECT_EQ(stage.find("p50_us")->number, static_cast<double>(expected.p50_us));
    EXPECT_EQ(stage.find("p95_us")->number, static_cast<double>(expected.p95_us));
    EXPECT_EQ(stage.find("p99_us")->number, static_cast<double>(expected.p99_us));
    EXPECT_EQ(stage.find("total_us")->number, static_cast<double>(expected.total_us));
    EXPECT_EQ(stage.find("p99_share")->number, report.attribution.p99_share[i]);
  }
}

}  // namespace
}  // namespace seccloud::obs
