// Telemetry pipeline: the framed record codec (round-trip + every-byte
// truncation sweep), EpochSnapshot JSON round-trip, the sink's counter-delta
// capture against a hand-computed registry diff, the bounded ring, and the
// SLO tracker's multi-window burn-rate math on a deterministic epoch clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"

namespace seccloud::obs {
namespace {

TelemetryRecord sample_record(std::uint32_t seq = 0) {
  TelemetryRecord r;
  r.type = TelemetryRecordType::kEpochSnapshot;
  r.stream_id = 7;
  r.seq = seq;
  r.payload = {0x01, 0x02, 0x03, 0xff, 0x00, 0x7f};
  return r;
}

EpochSnapshot sample_snapshot(std::uint64_t epoch = 3) {
  EpochSnapshot s;
  s.epoch = epoch;
  s.epoch_ms = 123.5;
  s.telemetry_ms = 0.25;
  s.requests = 64;
  s.stale_rejected = 1;
  s.unkeyed_rejected = 2;
  s.entries = 128;
  s.batches = 4;
  s.verified_requests = 60;
  s.failed_requests = 4;
  s.byzantine_users = 1;
  s.assembly_pairings = 8;
  s.verify_pairings = 11;
  s.pairings_per_batch = 2.75;
  s.bisection_oracle_calls = 3;
  s.bisection_max_depth = 5;
  s.queue_depth_at_drain = 64;
  s.queue_admitted = 70;
  s.queue_rejected = 6;
  s.retry_after_epochs = 2;
  s.shards = {{100, 10, 256, 4, 120}, {90, 8, 128, 7, 200}};
  s.counter_deltas = {{"service.epochs", 1}, {"fleet.requests", 64}};
  return s;
}

// --- record codec -----------------------------------------------------------

TEST(TelemetryCodec, RecordRoundTrips) {
  const TelemetryRecord record = sample_record(42);
  const auto bytes = encode_telemetry_record(record);
  std::size_t consumed = 0;
  const auto decoded = decode_telemetry_record(bytes, &consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, record);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(TelemetryCodec, EmptyPayloadRoundTrips) {
  TelemetryRecord record;
  record.type = TelemetryRecordType::kSloAlert;
  const auto bytes = encode_telemetry_record(record);
  const auto decoded = decode_telemetry_record(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(TelemetryCodec, EveryTruncationPointIsATornTailNeverAPartialRecord) {
  // Three records back to back; cutting the stream at EVERY byte offset must
  // replay only whole records and flag the tear — the PR-4 crash-sweep
  // discipline applied to the telemetry stream.
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto bytes = encode_telemetry_record(sample_record(i));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  const std::size_t record_size = stream.size() / 3;
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    const TelemetryReplay replay =
        replay_telemetry(std::span{stream.data(), cut});
    EXPECT_EQ(replay.frames.size(), cut / record_size) << "cut=" << cut;
    EXPECT_EQ(replay.clean_bytes, (cut / record_size) * record_size);
    EXPECT_EQ(replay.torn_tail, cut % record_size != 0) << "cut=" << cut;
    for (std::size_t i = 0; i < replay.frames.size(); ++i) {
      EXPECT_EQ(replay.frames[i].seq, i);
    }
  }
}

TEST(TelemetryCodec, CorruptionAnywhereKillsTheRecordNotThePrefix) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 2; ++i) {
    const auto bytes = encode_telemetry_record(sample_record(i));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  const std::size_t record_size = stream.size() / 2;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::vector<std::uint8_t> corrupt = stream;
    corrupt[i] ^= 0x01;
    const TelemetryReplay replay = replay_telemetry(corrupt);
    // Flipping a bit in record k invalidates k and everything after; the
    // records before it must survive untouched. (A flipped length field may
    // also shift framing — the replay must still never emit a bad record.)
    EXPECT_LE(replay.frames.size(), 1u) << "flip at byte " << i;
    if (i >= record_size) {
      EXPECT_EQ(replay.frames.size(), 1u) << "flip at byte " << i;
      EXPECT_EQ(replay.frames[0], sample_record(0));
    }
    EXPECT_TRUE(replay.torn_tail);
  }
}

TEST(TelemetryCodec, RejectsForeignMagic) {
  auto bytes = encode_telemetry_record(sample_record());
  bytes[0] = 'S';
  bytes[1] = 'J';  // session-journal magic: framing twin, different stream
  EXPECT_FALSE(decode_telemetry_record(bytes).has_value());
}

// --- snapshot JSON ----------------------------------------------------------

TEST(EpochSnapshotJson, RoundTripsEveryField) {
  const EpochSnapshot snap = sample_snapshot();
  const auto decoded = EpochSnapshot::from_json(snap.to_json());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, snap);
}

TEST(EpochSnapshotJson, DefaultSnapshotRoundTrips) {
  const EpochSnapshot snap;
  const auto decoded = EpochSnapshot::from_json(snap.to_json());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, snap);
}

TEST(EpochSnapshotJson, RejectsGarbage) {
  EXPECT_FALSE(EpochSnapshot::from_json("").has_value());
  EXPECT_FALSE(EpochSnapshot::from_json("not json").has_value());
  EXPECT_FALSE(EpochSnapshot::from_json("[1,2,3]").has_value());
}

// --- sink -------------------------------------------------------------------

TEST(TelemetrySink, CounterDeltasMatchAHandComputedRegistryDiff) {
  MetricsRegistry registry;
  registry.counter("a").inc(10);
  registry.counter("b").inc(5);

  TelemetrySink sink{registry};  // baseline: a=10, b=5

  registry.counter("a").inc(7);
  registry.counter("c").inc(3);
  sink.capture(sample_snapshot(0));

  // Hand-computed diff vs the construction baseline: a 10→17, b 5→5 (zero
  // deltas are omitted), c 0→3.
  const std::map<std::string, std::uint64_t> expected1 = {{"a", 7}, {"c", 3}};
  ASSERT_EQ(sink.ring().size(), 1u);
  EXPECT_EQ(sink.ring().back().counter_deltas, expected1);

  registry.counter("b").inc(1);
  sink.capture(sample_snapshot(1));
  const std::map<std::string, std::uint64_t> expected2 = {{"b", 1}};
  EXPECT_EQ(sink.ring().back().counter_deltas, expected2);

  // The stream holds both snapshots, replayable with the deltas intact.
  const TelemetryReplay replay = replay_telemetry(sink.stream());
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.frames.size(), 2u);
  const auto snap0 = EpochSnapshot::from_json(std::string(
      replay.frames[0].payload.begin(), replay.frames[0].payload.end()));
  ASSERT_TRUE(snap0.has_value());
  EXPECT_EQ(snap0->counter_deltas, expected1);
}

TEST(TelemetrySink, RingIsBoundedStreamIsNot) {
  MetricsRegistry registry;
  TelemetrySink sink{registry, {.ring_capacity = 4, .stream_id = 9}};
  for (std::uint64_t e = 0; e < 10; ++e) sink.capture(sample_snapshot(e));

  ASSERT_EQ(sink.ring().size(), 4u) << "ring evicts past capacity";
  EXPECT_EQ(sink.ring().front().epoch, 6u);
  EXPECT_EQ(sink.ring().back().epoch, 9u);

  const TelemetryReplay replay = replay_telemetry(sink.stream());
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.frames.size(), 10u) << "stream keeps everything";
  EXPECT_EQ(sink.records(), 10u);
  for (std::size_t i = 0; i < replay.frames.size(); ++i) {
    EXPECT_EQ(replay.frames[i].seq, i);
    EXPECT_EQ(replay.frames[i].stream_id, 9u);
  }
}

TEST(TelemetrySink, AlertsInterleaveWithSnapshotsInStreamOrder) {
  MetricsRegistry registry;
  TelemetrySink sink{registry};
  sink.capture(sample_snapshot(0));
  SloAlert alert{.slo = "rejects", .epoch = 0, .firing = true, .burn = 10.0,
                 .window_epochs = 4};
  sink.alert(alert);
  sink.capture(sample_snapshot(1));

  const TelemetryReplay replay = replay_telemetry(sink.stream());
  ASSERT_EQ(replay.frames.size(), 3u);
  EXPECT_EQ(replay.frames[0].type, TelemetryRecordType::kEpochSnapshot);
  EXPECT_EQ(replay.frames[1].type, TelemetryRecordType::kSloAlert);
  EXPECT_EQ(replay.frames[2].type, TelemetryRecordType::kEpochSnapshot);

  const auto decoded = SloAlert::from_json(std::string(
      replay.frames[1].payload.begin(), replay.frames[1].payload.end()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, alert);
}

// --- SLO tracker ------------------------------------------------------------

TEST(SloTracker, BurnRateIsBadFractionOverBudget) {
  SloTracker slo;
  slo.add({.name = "rejects", .error_budget = 0.1, .windows = {{4, 1.0}}});
  slo.observe("rejects", 0, {.good = 80, .bad = 20});  // bad fraction 0.2
  EXPECT_DOUBLE_EQ(slo.burn_rate("rejects", 1), 2.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate("rejects", 4), 2.0) << "partial history";
  EXPECT_DOUBLE_EQ(slo.burn_rate("unknown", 1), 0.0);
}

TEST(SloTracker, WindowBoundaryMathIsExact) {
  // Budget 0.1; one fully bad epoch then clean epochs. The trailing-window
  // burn must be exactly (bad samples in window)/(total in window)/budget,
  // and the bad epoch must leave the window precisely when it ages out.
  SloTracker slo;
  slo.add({.name = "x", .error_budget = 0.1, .windows = {{2, 1.0}, {4, 1.0}}});
  slo.observe("x", 0, {.good = 0, .bad = 100});
  slo.observe("x", 1, {.good = 100, .bad = 0});
  // window=2 covers epochs {0,1}: bad fraction 100/200 = 0.5 → burn 5.
  EXPECT_DOUBLE_EQ(slo.burn_rate("x", 2), 5.0);
  slo.observe("x", 2, {.good = 100, .bad = 0});
  // window=2 covers {1,2}: clean → burn 0. window=4 still sees epoch 0.
  EXPECT_DOUBLE_EQ(slo.burn_rate("x", 2), 0.0);
  EXPECT_DOUBLE_EQ(slo.burn_rate("x", 4), 100.0 / 300.0 / 0.1);
  slo.observe("x", 3, {.good = 100, .bad = 0});
  slo.observe("x", 4, {.good = 100, .bad = 0});
  // Epoch 0 aged out of the 4-window: {1,2,3,4} are clean.
  EXPECT_DOUBLE_EQ(slo.burn_rate("x", 4), 0.0);
}

TEST(SloTracker, FiresOnlyWhenAllWindowsExceedAndEmitsTransitionsOnce) {
  SloTracker slo;
  slo.add({.name = "x", .error_budget = 0.05, .windows = {{1, 2.0}, {3, 1.0}}});

  // Epoch 0: disaster. Short window burns 10, long window burns 10 → fire.
  slo.observe("x", 0, {.good = 50, .bad = 50});
  auto alerts = slo.evaluate(0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].slo, "x");
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_EQ(alerts[0].epoch, 0u);
  EXPECT_GT(alerts[0].burn, 2.0);
  EXPECT_TRUE(slo.firing("x"));

  // Epoch 1: still bad. State unchanged → NO new alert (transitions only).
  slo.observe("x", 1, {.good = 50, .bad = 50});
  EXPECT_TRUE(slo.evaluate(1).empty());

  // Epoch 2: clean epoch. The 1-epoch window stops exceeding → resolve,
  // even though the 3-epoch window still burns (the fast window vetoes).
  slo.observe("x", 2, {.good = 100, .bad = 0});
  alerts = slo.evaluate(2);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_FALSE(alerts[0].firing);
  EXPECT_EQ(alerts[0].epoch, 2u);
  EXPECT_FALSE(slo.firing("x"));

  // Epoch 3: clean again, steady state → nothing.
  slo.observe("x", 3, {.good = 100, .bad = 0});
  EXPECT_TRUE(slo.evaluate(3).empty());
}

TEST(SloTracker, ExactInvariantObjectiveFiresOnAnyViolation) {
  // The pairings-per-clean-batch == 2 invariant: near-zero budget, single
  // 1-epoch window — one bad batch anywhere fires the same epoch.
  SloTracker slo;
  slo.add({.name = "ppb", .error_budget = 1e-6, .windows = {{1, 1.0}}});
  slo.observe("ppb", 0, {.good = 1000, .bad = 0});
  EXPECT_TRUE(slo.evaluate(0).empty());
  slo.observe("ppb", 1, {.good = 999, .bad = 1});
  const auto alerts = slo.evaluate(1);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].firing);
}

TEST(SloTracker, AlertJsonRoundTrips) {
  const SloAlert alert{.slo = "epoch_latency", .epoch = 17, .firing = true,
                       .burn = 3.25, .window_epochs = 8};
  const auto decoded = SloAlert::from_json(alert.to_json());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, alert);
  EXPECT_FALSE(SloAlert::from_json("{}").has_value())
      << "an alert without an objective name is meaningless";
}

}  // namespace
}  // namespace seccloud::obs
