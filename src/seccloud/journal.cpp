#include "seccloud/journal.h"

#include <algorithm>

#include "obs/metrics.h"

namespace seccloud::core {

using framing::get_le;
using framing::put_le;

const char* to_string(JournalRecordType type) noexcept {
  switch (type) {
    case JournalRecordType::kSessionStart: return "session-start";
    case JournalRecordType::kAttemptStart: return "attempt-start";
    case JournalRecordType::kAttemptOutcome: return "attempt-outcome";
    case JournalRecordType::kSessionEnd: return "session-end";
  }
  return "unknown";
}

// --- payload codecs --------------------------------------------------------

Bytes encode_session_start_payload(MessageType request_type, std::uint64_t master_seed) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(request_type));
  put_le<std::uint64_t>(out, master_seed);
  return out;
}

Bytes encode_attempt_start_payload(std::uint64_t started_units) {
  Bytes out;
  put_le<std::uint64_t>(out, started_units);
  return out;
}

Bytes encode_attempt_outcome_payload(AttemptOutcome outcome, const SessionReport& tallies) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(outcome));
  put_le<std::uint64_t>(out, tallies.attempts);
  put_le<std::uint64_t>(out, tallies.timeouts);
  put_le<std::uint64_t>(out, tallies.corrupt_frames);
  put_le<std::uint64_t>(out, tallies.stale_replies);
  put_le<std::uint64_t>(out, tallies.duplicate_replies);
  put_le<std::uint64_t>(out, tallies.malformed_replies);
  put_le<std::uint64_t>(out, tallies.waited_units);
  put_le<std::uint64_t>(out, tallies.bytes_sent);
  put_le<std::uint64_t>(out, tallies.bytes_received);
  return out;
}

Bytes encode_session_end_payload(SessionVerdict verdict) {
  return Bytes{static_cast<std::uint8_t>(verdict)};
}

// --- replay & recovery -----------------------------------------------------

ReplayResult replay_journal(std::span<const std::uint8_t> bytes) {
  ReplayResult result = kJournalFormat.replay(bytes);
  obs::default_registry().counter("journal.replayed").inc(result.frames.size());
  return result;
}

namespace {

constexpr std::size_t kOutcomeTallies = 9;

/// Applies one intact kAttemptOutcome payload to the carried report.
/// Returns false if the payload is malformed.
bool apply_outcome(const Bytes& payload, RecoveredSession& rec) {
  if (payload.size() != 1 + kOutcomeTallies * 8) return false;
  const std::uint8_t code = payload[0];
  if (code > static_cast<std::uint8_t>(AttemptOutcome::kRejected)) return false;
  const std::uint8_t* p = payload.data() + 1;
  SessionReport& carried = rec.carried;
  carried.attempts = get_le<std::uint64_t>(p + 0 * 8);
  carried.timeouts = get_le<std::uint64_t>(p + 1 * 8);
  carried.corrupt_frames = get_le<std::uint64_t>(p + 2 * 8);
  carried.stale_replies = get_le<std::uint64_t>(p + 3 * 8);
  carried.duplicate_replies = get_le<std::uint64_t>(p + 4 * 8);
  carried.malformed_replies = get_le<std::uint64_t>(p + 5 * 8);
  carried.waited_units = get_le<std::uint64_t>(p + 6 * 8);
  carried.bytes_sent = get_le<std::uint64_t>(p + 7 * 8);
  carried.bytes_received = get_le<std::uint64_t>(p + 8 * 8);
  const auto outcome = static_cast<AttemptOutcome>(code);
  if (outcome == AttemptOutcome::kAccepted || outcome == AttemptOutcome::kRejected) {
    rec.concluded = true;
    rec.verdict = outcome == AttemptOutcome::kAccepted ? SessionVerdict::kAccepted
                                                       : SessionVerdict::kRejected;
    rec.carried.verdict = rec.verdict;
  }
  return true;
}

}  // namespace

RecoveredSession recover_session(std::span<const std::uint8_t> journal_bytes) {
  const ReplayResult replay = replay_journal(journal_bytes);
  RecoveredSession rec;
  rec.torn_tail = replay.torn_tail;
  std::uint32_t last_outcome_seq = 0;
  std::uint32_t pending_seq = 0;  // attempt started but outcome never landed
  for (const JournalRecord& record : replay.frames) {
    if (!rec.valid) {
      if (record.type != JournalRecordType::kSessionStart) break;
      if (record.payload.size() != 1 + 8) break;
      // Only a challenge opens a session; a reply type is a corrupt start.
      const auto request = static_cast<MessageType>(record.payload[0]);
      if (request != MessageType::kAuditChallenge &&
          request != MessageType::kStorageChallenge) {
        break;
      }
      rec.valid = true;
      rec.session_id = record.stream_id;
      rec.request_type = request;
      rec.master_seed = get_le<std::uint64_t>(record.payload.data() + 1);
      continue;
    }
    if (record.stream_id != rec.session_id) break;  // foreign record: stop
    switch (record.type) {
      case JournalRecordType::kSessionStart:
        break;  // duplicate start: ignore
      case JournalRecordType::kAttemptStart:
        if (record.payload.size() != 8) break;
        rec.carried.attempt_started_units.push_back(get_le<std::uint64_t>(record.payload.data()));
        pending_seq = record.seq;
        break;
      case JournalRecordType::kAttemptOutcome:
        if (!apply_outcome(record.payload, rec)) break;
        last_outcome_seq = record.seq;
        pending_seq = 0;
        break;
      case JournalRecordType::kSessionEnd:
        if (record.payload.size() != 1 ||
            record.payload[0] > static_cast<std::uint8_t>(SessionVerdict::kInconclusive)) {
          break;
        }
        rec.concluded = true;
        rec.verdict = static_cast<SessionVerdict>(record.payload[0]);
        rec.carried.verdict = rec.verdict;
        break;
    }
  }
  if (pending_seq != 0) {
    // The interrupted attempt re-runs from scratch: drop its provisional
    // timestamp so the re-run re-records it (the value is identical — the
    // clock is derived from the journaled cumulative waits).
    rec.carried.attempt_started_units.pop_back();
    rec.next_attempt = pending_seq;
  } else {
    rec.next_attempt = static_cast<std::size_t>(last_outcome_seq) + 1;
  }
  return rec;
}

// --- buffer journal --------------------------------------------------------

void BufferJournal::append(const JournalRecord& record) {
  const Bytes encoded = encode_journal_record(record);
  bytes_.insert(bytes_.end(), encoded.begin(), encoded.end());
  ++records_;
  obs::default_registry().counter("journal.records").inc();
}

void BufferJournal::truncate_tail(std::size_t n) {
  bytes_.resize(bytes_.size() - std::min(n, bytes_.size()));
}

}  // namespace seccloud::core
