// Durable audit-session journal (write-ahead log for the DA's auditor).
//
// A crashed auditor must not lose in-flight session state: every phase
// transition of an AuditSession is appended to a journal BEFORE the side
// effect it describes (write-ahead discipline), so recovery can replay the
// log and re-enter the session at the first attempt whose outcome never
// landed. Records are checksummed frames under magic 'S','J' (DESIGN.md §8),
// whose prefix-tolerant replay makes a torn final append (the crash
// interrupting it) end the log cleanly: everything before the tear stands.
//
// Record sequence of one session:
//   kSessionStart(seq 0)        request type + master challenge seed
//   kAttemptStart(seq k)        clock timestamp, appended before transmitting
//   kAttemptOutcome(seq k)      outcome code + cumulative channel tallies
//   ... (one start/outcome pair per attempt) ...
//   kSessionEnd(seq last)       final verdict
//
// recover_session folds a (possibly torn) journal into a RecoveredSession:
// the carried SessionReport tallies, the attempt to re-enter at, and —
// when the log already holds a conclusive outcome — the final verdict, so
// a post-conclusion crash never re-contacts the server.
#pragma once

#include "seccloud/session.h"

namespace seccloud::core {

// --- record format ---------------------------------------------------------

enum class JournalRecordType : std::uint8_t {
  kSessionStart = 1,   ///< session id, request type, master challenge seed
  kAttemptStart = 2,   ///< attempt seq + clock timestamp; precedes transmit
  kAttemptOutcome = 3, ///< attempt seq + outcome + cumulative tallies
  kSessionEnd = 4,     ///< final verdict
};

const char* to_string(JournalRecordType type) noexcept;

/// Per-attempt outcome codes journaled in kAttemptOutcome records.
enum class AttemptOutcome : std::uint8_t {
  kTimeout = 0,    ///< no usable reply — retried
  kMalformed = 1,  ///< intact frame, undecodable payload — retried
  kAccepted = 2,   ///< conclusive accept
  kRejected = 3,   ///< conclusive reject
};

/// The journal's framing: magic 'S','J', the session id in the stream-id
/// field, the attempt as seq.
inline constexpr framing::Format<JournalRecordType> kJournalFormat{
    'J', JournalRecordType::kSessionEnd};

/// One decoded journal record: header fields plus the type-specific payload.
using JournalRecord = framing::Frame<JournalRecordType>;

inline Bytes encode_journal_record(const JournalRecord& record) {
  return kJournalFormat.encode(record.type, record.stream_id, record.seq, record.payload);
}

/// The record at the head of `bytes`; `consumed` receives its size.
inline std::optional<JournalRecord> decode_journal_record(std::span<const std::uint8_t> bytes,
                                                          std::size_t* consumed = nullptr) {
  return kJournalFormat.decode(bytes, consumed);
}

// Payload builders for each record type (the session driver writes these;
// recover_session parses them back).
Bytes encode_session_start_payload(MessageType request_type, std::uint64_t master_seed);
Bytes encode_attempt_start_payload(std::uint64_t started_units);
Bytes encode_attempt_outcome_payload(AttemptOutcome outcome, const SessionReport& tallies);
Bytes encode_session_end_payload(SessionVerdict verdict);

// --- the journal sink ------------------------------------------------------

/// Where a session persists its records. append() must make the record
/// durable before returning; it may throw (disk full, crash injection —
/// see sim::CrashingJournal), in which case the record is NOT persisted.
class SessionJournal {
 public:
  virtual ~SessionJournal() = default;
  virtual void append(const JournalRecord& record) = 0;
};

/// In-memory journal: records are appended to a byte buffer exactly as they
/// would hit disk, so torn writes are simulated by truncating the buffer at
/// an arbitrary byte. Bumps the `journal.records` counter per append.
class BufferJournal : public SessionJournal {
 public:
  void append(const JournalRecord& record) override;

  const Bytes& bytes() const noexcept { return bytes_; }
  std::size_t records() const noexcept { return records_; }

  /// Simulates a torn final write: drops the last `n` bytes (clamped).
  void truncate_tail(std::size_t n);

 private:
  Bytes bytes_;
  std::size_t records_ = 0;
};

// --- replay & recovery -----------------------------------------------------

/// Every intact record of a journal in order, up to the first torn or
/// corrupt one. Bumps `journal.replayed` per record.
using ReplayResult = framing::Replay<JournalRecordType>;

ReplayResult replay_journal(std::span<const std::uint8_t> bytes);

/// A session state rebuilt from a journal, ready to hand to
/// SessionStart::resume. `valid` is false when the journal holds no intact
/// kSessionStart record naming a challenge type (nothing to resume — rerun
/// from scratch).
struct RecoveredSession {
  bool valid = false;
  bool torn_tail = false;          ///< the final record was torn mid-write
  std::uint32_t session_id = 0;
  std::uint64_t master_seed = 0;   ///< per-attempt challenge seed base
  MessageType request_type = MessageType::kAuditChallenge;
  std::size_t next_attempt = 1;    ///< first attempt to (re-)run
  bool concluded = false;          ///< a conclusive outcome already landed
  SessionVerdict verdict = SessionVerdict::kInconclusive;
  SessionReport carried;           ///< tallies as of the last journaled outcome
};

RecoveredSession recover_session(std::span<const std::uint8_t> journal_bytes);

}  // namespace seccloud::core
