// Golden bytes of the checksummed frame format (DESIGN.md §8) on every
// stream that writes it — the DA↔CS channel ('S','C'), the session journal
// ('S','J'), telemetry and the verdict ledger ('S','T'), and request
// journeys ('S','Y') — plus the cross-magic matrix: a frame written under
// one magic never decodes under any of the other three. The same 'ST' and
// 'SY' vectors are decoded by tools/teldump.py --self-test.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/journey.h"
#include "obs/telemetry.h"
#include "seccloud/journal.h"
#include "seccloud/service/ledger.h"
#include "seccloud/session.h"

namespace seccloud {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

// --- one frame per stream ---------------------------------------------------

/// 'SC': a storage challenge (u32 count ‖ u64 sample indices) on session
/// 0xA1B2C3D4, attempt 3.
Bytes channel_challenge() {
  const Bytes payload = {0x02, 0x00, 0x00, 0x00,                          // count
                         0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // index 5
                         0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}; // index 17
  return core::encode_frame(core::MessageType::kStorageChallenge, 0xA1B2C3D4u, 3, payload);
}

/// 'SJ': the accepting outcome of attempt 2 of session 0xA1B2C3D4.
Bytes journal_attempt_outcome() {
  core::SessionReport tallies;
  tallies.attempts = 2;
  tallies.timeouts = 1;
  tallies.corrupt_frames = 1;
  tallies.stale_replies = 0;
  tallies.duplicate_replies = 1;
  tallies.malformed_replies = 0;
  tallies.waited_units = 150;
  tallies.bytes_sent = 96;
  tallies.bytes_received = 480;
  return core::encode_journal_record(core::JournalRecord{
      core::JournalRecordType::kAttemptOutcome, 0xA1B2C3D4u, 2,
      core::encode_attempt_outcome_payload(core::AttemptOutcome::kAccepted, tallies)});
}

/// 'ST': one epoch snapshot (canonical JSON payload), stream 7, seq 3.
Bytes telemetry_epoch_snapshot() {
  obs::EpochSnapshot s;
  s.epoch = 3;
  s.epoch_ms = 12.5;
  s.telemetry_ms = 0.25;
  s.requests = 8;
  s.entries = 16;
  s.batches = 2;
  s.verified_requests = 8;
  s.assembly_pairings = 2;
  s.verify_pairings = 4;
  s.pairings_per_batch = 2.0;
  s.queue_depth_at_drain = 8;
  s.queue_admitted = 8;
  s.shards = {obs::ShardHeat{4, 2, 64, 1, 2}};
  s.counter_deltas = {{"service.epochs", 1}};
  const std::string json = s.to_json();
  return obs::encode_telemetry_record(obs::TelemetryRecord{
      obs::TelemetryRecordType::kEpochSnapshot, 7, 3, Bytes(json.begin(), json.end())});
}

/// 'ST' kLedgerEntry: one isolated entry, the first record of ledger stream 7.
Bytes ledger_entry() {
  service::LedgerEntry e;
  e.epoch = 1;
  e.user = 42;
  e.version = 7;
  e.batch = 1;
  e.request_index = 3;
  e.block_index = 0;
  e.entry_in_batch = 5;
  e.verdict = obs::Verdict::kInvalidSignature;
  e.isolation_depth = 3;
  e.isolation_path = 0b101;
  e.batch_pairings = 9;
  e.journey_id = 101;
  service::VerdictLedger ledger{/*stream_id=*/7};
  ledger.append(e);
  return Bytes(ledger.bytes().begin(), ledger.bytes().end());
}

/// 'SY': one bisected journey, the first record of journey stream 1.
Bytes journey() {
  obs::JourneyRecord r;
  r.request_id = 101;
  r.user = 1101;
  r.epoch = 0;
  r.batch = 0;
  r.request_index = 0;
  r.blocks = 4;
  r.retry_after_epochs = 0;
  r.verdict = obs::Verdict::kInvalidSignature;
  r.sampled = obs::kJourneySampledRejected | obs::kJourneySampledBisected |
              obs::kJourneySampledProbabilistic;
  r.bisection_depth = 3;
  r.amortized_pairings_milli = 250;
  r.stage_us = {60, 940, 3, 2, 5, 80, 8, 2};
  r.end_to_end_us = 1100;
  obs::JourneyRecorder recorder{{.ring_capacity = 1, .stream_id = 1}};
  recorder.record(r);
  return Bytes(recorder.stream().begin(), recorder.stream().end());
}

// --- golden vectors -----------------------------------------------------------
// Each vector is magic[2] ‖ version ‖ type ‖ stream/session id ‖ seq ‖ len ‖
// payload ‖ SHA-256[:8], integers little-endian. A change to any of them is a
// change to bytes already on disk or on the wire.

constexpr const char* kChannelChallengeHex =
    "53430103d4c3b2a103000000140000000200000005000000000000001100000000000000"
    "09226829c57d0ab9";

constexpr const char* kJournalAttemptOutcomeHex =
    "534a0103d4c3b2a102000000490000000202000000000000000100000000000000010000"
    "000000000000000000000000000100000000000000000000000000000096000000000000"
    "006000000000000000e0010000000000008b71f333659e9e82";

constexpr const char* kTelemetryEpochSnapshotHex =
    "535401010700000003000000fb0100007b2265706f6368223a332c2265706f63685f6d73"
    "223a31322e352c2274656c656d657472795f6d73223a302e32352c227265717565737473"
    "223a382c227374616c655f72656a6563746564223a302c22756e6b657965645f72656a65"
    "63746564223a302c22656e7472696573223a31362c2262617463686573223a322c227665"
    "7269666965645f7265717565737473223a382c226661696c65645f726571756573747322"
    "3a302c2262797a616e74696e655f7573657273223a302c22617373656d626c795f706169"
    "72696e6773223a322c227665726966795f70616972696e6773223a342c2270616972696e"
    "67735f7065725f6261746368223a322c22626973656374696f6e5f6f7261636c655f6361"
    "6c6c73223a302c22626973656374696f6e5f6d61785f6465707468223a302c2271756575"
    "655f64657074685f61745f647261696e223a382c2271756575655f61646d697474656422"
    "3a382c2271756575655f72656a6563746564223a302c2272657472795f61667465725f65"
    "706f636873223a302c22736861726473223a5b7b227573657273223a342c226b65796564"
    "223a322c227461626c655f736c6f7473223a36342c2270726f62655f6d6178223a312c22"
    "70726f62655f746f74616c223a327d5d2c22636f756e7465725f64656c746173223a7b22"
    "736572766963652e65706f636873223a317d7d7b3fa419cc09edee";

constexpr const char* kLedgerEntryHex =
    "5354010307000000000000004000000001000000000000002a0000000000000007000000"
    "000000000100000003000000000000000500000002030000050000000900000000000000"
    "65000000000000009008017bb3aa1bbd";

constexpr const char* kJourneyHex =
    "5359010101000000000000005800000065000000000000004d0400000000000000000000"
    "0000000000000000000000000400000000000000020b0300fa0000003c000000ac030000"
    "0300000002000000050000005000000008000000020000004c04000000000000117d5010"
    "70b42ea8";

TEST(FrameGolden, ChannelChallenge) {
  EXPECT_EQ(hex(channel_challenge()), kChannelChallengeHex);
}

TEST(FrameGolden, JournalAttemptOutcome) {
  EXPECT_EQ(hex(journal_attempt_outcome()), kJournalAttemptOutcomeHex);
}

TEST(FrameGolden, TelemetryEpochSnapshot) {
  EXPECT_EQ(hex(telemetry_epoch_snapshot()), kTelemetryEpochSnapshotHex);
}

TEST(FrameGolden, LedgerEntry) { EXPECT_EQ(hex(ledger_entry()), kLedgerEntryHex); }

TEST(FrameGolden, Journey) { EXPECT_EQ(hex(journey()), kJourneyHex); }

// --- the cross-magic matrix ---------------------------------------------------

/// Whether `bytes` holds one intact frame under each stream's decoder.
bool decodes_as_channel(const Bytes& bytes) { return core::decode_frame(bytes).has_value(); }
bool decodes_as_journal(const Bytes& bytes) {
  return core::decode_journal_record(bytes).has_value();
}
bool decodes_as_telemetry(const Bytes& bytes) {
  return obs::decode_telemetry_record(bytes).has_value();
}
bool decodes_as_journey(const Bytes& bytes) {
  const obs::JourneyReplay replay = obs::replay_journeys(bytes);
  return !replay.torn_tail && replay.clean_bytes == bytes.size();
}

TEST(FrameMagic, NoFrameDecodesUnderAnotherStreamsMagic) {
  using Decoder = bool (*)(const Bytes&);
  const Decoder decoders[] = {decodes_as_channel, decodes_as_journal, decodes_as_telemetry,
                              decodes_as_journey};
  const char* const names[] = {"SC", "SJ", "ST", "SY"};
  struct Case {
    const char* name;
    Bytes bytes;
    std::size_t stream;  ///< index into decoders
  };
  const Case cases[] = {
      {"channel challenge", channel_challenge(), 0},
      {"journal attempt outcome", journal_attempt_outcome(), 1},
      {"telemetry epoch snapshot", telemetry_epoch_snapshot(), 2},
      {"ledger entry", ledger_entry(), 2},
      {"journey", journey(), 3},
  };
  for (const Case& c : cases) {
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(decoders[d](c.bytes), d == c.stream)
          << c.name << " under the " << names[d] << " decoder";
    }
  }
}

TEST(FrameMagic, EachGoldenFrameRoundTripsUnderItsOwnStream) {
  const auto channel = core::decode_frame(channel_challenge());
  ASSERT_TRUE(channel.has_value());
  EXPECT_EQ(channel->type, core::MessageType::kStorageChallenge);
  EXPECT_EQ(channel->seq, 3u);
  EXPECT_EQ(channel->payload.size(), 20u);

  const Bytes journal = journal_attempt_outcome();
  std::size_t consumed = 0;
  const auto record = core::decode_journal_record(journal, &consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(consumed, journal.size());
  EXPECT_EQ(record->type, core::JournalRecordType::kAttemptOutcome);
  EXPECT_EQ(record->seq, 2u);
  const core::ReplayResult replayed = core::replay_journal(journal);
  EXPECT_FALSE(replayed.torn_tail);
  EXPECT_EQ(replayed.clean_bytes, journal.size());

  const auto snapshot = obs::decode_telemetry_record(telemetry_epoch_snapshot());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->type, obs::TelemetryRecordType::kEpochSnapshot);
  const auto parsed = obs::EpochSnapshot::from_json(
      std::string(snapshot->payload.begin(), snapshot->payload.end()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 3u);

  const service::LedgerReplay ledger = service::replay_ledger(ledger_entry());
  ASSERT_EQ(ledger.entries.size(), 1u);
  EXPECT_EQ(ledger.malformed_payloads, 0u);
  EXPECT_EQ(ledger.entries[0].user, 42u);
  EXPECT_EQ(ledger.entries[0].journey_id, 101u);

  const obs::JourneyReplay journeys = obs::replay_journeys(journey());
  ASSERT_EQ(journeys.records.size(), 1u);
  EXPECT_EQ(journeys.malformed_payloads, 0u);
  EXPECT_EQ(journeys.records[0].request_id, 101u);
  EXPECT_EQ(journeys.records[0].stage_sum_us(), 1100u);
}

TEST(FrameMagic, OnlyTheChannelRequiresTheWholeDatagram) {
  // A channel frame is one datagram: trailing bytes make it undecodable. A
  // log record decodes at the head of a longer stream.
  Bytes channel = channel_challenge();
  channel.push_back(0x00);
  EXPECT_FALSE(core::decode_frame(channel).has_value());

  Bytes journal = journal_attempt_outcome();
  const std::size_t record_bytes = journal.size();
  journal.push_back(0x00);
  std::size_t consumed = 0;
  ASSERT_TRUE(core::decode_journal_record(journal, &consumed).has_value());
  EXPECT_EQ(consumed, record_bytes);
}

}  // namespace
}  // namespace seccloud
