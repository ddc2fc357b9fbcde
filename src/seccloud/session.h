// Resilient audit sessions over unreliable DA↔CS channels.
//
// Algorithm 1 and Protocol II assume every message arrives intact; a
// production deployment cannot. This layer wraps the audit exchanges in
// integrity-checked frames and drives them with a retry/backoff policy so
// that a flaky network is never mistaken for a cheating server:
//
//  * every message travels in a frame carrying (type, session, seq) plus a
//    truncated-SHA-256 checksum — in-flight corruption is detected at the
//    frame layer and classified as CHANNEL failure (retried), while a frame
//    that passes the checksum carries exactly the bytes the peer sent, so
//    any cryptographic failure inside it is attributable to the PEER;
//  * challenges are re-issued idempotently: each retry draws a fresh sample
//    (fresh nonce) under the SAME warrant, and the attempt number is the
//    frame sequence, so duplicated or delayed replies from earlier attempts
//    are recognized as stale instead of being verified against the wrong
//    challenge;
//  * the session separates verdicts: kAccepted / kRejected are conclusive
//    audit outcomes (the paper's accept / cheating-detected), kInconclusive
//    means the retry budget ran out before any attempt completed — a
//    channel, not audit, outcome.
#pragma once

#include "hash/framing.h"
#include "seccloud/auditor.h"

namespace seccloud::core {

class SessionJournal;      // journal.h — durable write-ahead session log
struct RecoveredSession;   // journal.h — state replayed from a journal

// --- framing -------------------------------------------------------------

/// Protocol messages that cross the DA↔CS channel during an audit session.
enum class MessageType : std::uint8_t {
  kAuditChallenge = 1,   ///< Algorithm 1 challenge (computation audit)
  kAuditResponse = 2,    ///< Algorithm 1 response
  kStorageChallenge = 3, ///< Protocol II sampled positions
  kStorageResponse = 4,  ///< Protocol II retrieved signed blocks
};

inline constexpr std::size_t kMessageTypeCount = 4;

/// Dense [0, kMessageTypeCount) index for per-type tables.
constexpr std::size_t message_type_index(MessageType type) noexcept {
  return static_cast<std::size_t>(type) - 1;
}

const char* to_string(MessageType type) noexcept;

/// The channel's framing (DESIGN.md §8): magic 'S','C', one MessageType per
/// frame, the session id in the stream-id field and the attempt as seq.
inline constexpr framing::Format<MessageType> kChannelFormat{'C', MessageType::kStorageResponse};

/// A decoded session frame: header fields plus the opaque payload.
using Frame = framing::Frame<MessageType>;

inline Bytes encode_frame(MessageType type, std::uint32_t session_id, std::uint32_t seq,
                          std::span<const std::uint8_t> payload) {
  return kChannelFormat.encode(type, session_id, seq, payload);
}

/// Total decoder for one datagram: nullopt unless `bytes` is exactly one
/// intact channel frame. A successful decode guarantees the payload is
/// bit-identical to what the sender framed.
std::optional<Frame> decode_frame(std::span<const std::uint8_t> bytes);

// --- transport abstraction ----------------------------------------------

/// One request/response exchange over a (possibly lossy) channel. The
/// implementation ships the encoded request frame toward the server party
/// and returns every raw frame that arrives back — possibly none (drop or
/// timeout), possibly several (duplicates, late replies from earlier
/// attempts), possibly corrupted. sim::FaultyAuditLink is the fault-
/// injecting implementation.
class AuditTransport {
 public:
  virtual ~AuditTransport() = default;
  virtual std::vector<Bytes> exchange(MessageType type, const Bytes& frame) = 0;
};

// --- retry policy ---------------------------------------------------------

/// Retry/timeout/backoff knobs. Time is simulated (unit-less); the session
/// only accumulates how long it would have waited.
struct RetryPolicy {
  std::size_t max_attempts = 5;       ///< total challenge issues (>= 1)
  std::uint64_t timeout_units = 100;  ///< wait charged to every failed attempt
  std::uint64_t backoff_base_units = 50;  ///< extra wait before the 2nd attempt
  double backoff_factor = 2.0;            ///< exponential growth per retry
  std::uint64_t backoff_cap_units = 1600; ///< ceiling on a single backoff

  /// Backoff charged after `failed_attempts` >= 1 consecutive failures:
  /// min(cap, base · factor^(failed_attempts − 1)).
  std::uint64_t backoff_for(std::size_t failed_attempts) const noexcept;
};

// --- simulated clock -------------------------------------------------------

/// Source of session wall-clock time (unit-less, same scale as the retry
/// policy's timeout/backoff units). Injectable so tests and the crash
/// harness control time; the session advances it by every wait it charges.
class SessionClock {
 public:
  virtual ~SessionClock() = default;
  virtual std::uint64_t now_units() = 0;
  virtual void advance(std::uint64_t units) = 0;
};

/// Default clock: starts at `origin` and moves only when the session waits.
/// A resumed session seeds the origin from the journaled cumulative waits,
/// so replayed timestamps match the uninterrupted run exactly.
class SimulatedClock final : public SessionClock {
 public:
  explicit SimulatedClock(std::uint64_t origin = 0) noexcept : now_(origin) {}
  std::uint64_t now_units() override { return now_; }
  void advance(std::uint64_t units) override { now_ += units; }

 private:
  std::uint64_t now_;
};

// --- session report --------------------------------------------------------

enum class SessionVerdict : std::uint8_t {
  kAccepted,      ///< conclusive: the audit checks passed
  kRejected,      ///< conclusive: cheating detected (or warrant refused)
  kInconclusive,  ///< retry budget exhausted — a CHANNEL failure, not an audit verdict
};

const char* to_string(SessionVerdict verdict) noexcept;

/// Outcome of one audit session, with per-fault tallies as observed from the
/// session's side of the channel.
struct SessionReport {
  SessionVerdict verdict = SessionVerdict::kInconclusive;
  std::size_t attempts = 0;           ///< challenges issued (1..max_attempts)
  std::size_t timeouts = 0;           ///< attempts that produced no usable reply
  std::size_t corrupt_frames = 0;     ///< arrivals failing the frame checksum
  std::size_t stale_replies = 0;      ///< checksum-valid but older seq / other session
  std::size_t duplicate_replies = 0;  ///< extra copies of the current reply
  std::size_t malformed_replies = 0;  ///< checksum-valid frame, undecodable payload
  std::uint64_t waited_units = 0;     ///< simulated timeout + backoff time
  std::uint64_t bytes_sent = 0;       ///< frames offered to the channel
  std::uint64_t bytes_received = 0;   ///< frames delivered back (incl. corrupt)
  /// Clock reading (see SessionClock) when each attempt issued its
  /// challenge, in attempt order — lets a journal replay be diffed against
  /// the live run it recovered.
  std::vector<std::uint64_t> attempt_started_units;

  /// Detail of the concluding verification. `computation` is meaningful for
  /// computation sessions, `storage` for storage sessions, and only when the
  /// verdict is conclusive.
  AuditReport computation;
  StorageAuditReport storage;

  bool conclusive() const noexcept { return verdict != SessionVerdict::kInconclusive; }

  /// Machine-readable form of the whole report (verdict, retry/fault
  /// tallies, wait/byte totals, and the concluding audit detail with its op
  /// counters) — what ablation_faulty_channel and the session tests consume.
  std::string to_json() const;
};

// --- the session driver -----------------------------------------------------

/// Where a session starts. A fresh session draws its id and master challenge
/// seed from the caller's rng; a resumed one continues a session replayed
/// from a journal (journal.h's recover_session) at its first unfinished
/// attempt, with the journaled tallies, timestamps and clock carried over.
class SessionStart {
 public:
  static SessionStart fresh(num::RandomSource& rng);
  static SessionStart resume(const RecoveredSession& recovered);

 private:
  friend class AuditSession;
  SessionStart() = default;

  std::uint32_t session_id_ = 0;
  std::uint64_t master_seed_ = 0;
  std::size_t first_attempt_ = 1;
  SessionReport carried_;  ///< journaled tallies; the verdict once concluded
  bool resumed_ = false;
  bool concluded_ = false;  ///< the journal already holds the final outcome
  /// The request type the journal's start record names; nullopt when it
  /// holds no intact start record.
  std::optional<MessageType> journaled_type_;
};

/// Runs storage and computation audits over an AuditTransport with retries,
/// verifying every reply through the DA's held verifier for sk_DA.
/// Deterministic: all randomness (sampling, session ids) comes from the
/// SessionStart, and the fault injection of a sim channel is seeded, so
/// whole sessions are bit-reproducible.
class AuditSession {
 public:
  /// `da` must outlive the session; its group is the session's group.
  AuditSession(const ibc::DesignatedVerifier& da, RetryPolicy policy);
  AuditSession(ibc::DesignatedVerifier&&, RetryPolicy) = delete;

  const RetryPolicy& policy() const noexcept { return policy_; }

  /// Injects the session clock used to stamp attempt starts. nullptr (the
  /// default) means an internal SimulatedClock whose origin is 0 for fresh
  /// sessions and the journaled cumulative waits for resumed ones.
  void set_clock(SessionClock* clock) noexcept { clock_ = clock; }

  // Both audits share one contract:
  //  * each attempt re-issues a fresh challenge (new sample, same warrant)
  //    with seq = attempt number, then verifies the first intact,
  //    current-attempt reply. The attempt samples from a stream derived from
  //    (master seed, attempt), so a resumed session re-issues bit-identical
  //    challenges and ends bit-identical to the same session never crashed;
  //  * a resumed start whose journal already concluded returns the journaled
  //    report without touching the channel;
  //  * a resumed start whose journal holds no intact start record, or names
  //    the other protocol's request, throws std::invalid_argument before the
  //    channel or the journal is touched;
  //  * when `journal` is given, every phase transition is appended to it
  //    (write-ahead) before the transition's side effect.

  /// Algorithm 1 with retries.
  SessionReport run_computation_audit(AuditTransport& link, const SessionStart& start,
                                      const Point& q_user, const Point& q_server,
                                      const ComputationTask& task,
                                      const Commitment& commitment, const Warrant& warrant,
                                      std::size_t sample_size, SignatureCheckMode mode,
                                      SessionJournal* journal = nullptr);

  /// Protocol II with retries: samples `sample_size` positions from
  /// [0, universe) afresh per attempt and verifies the returned blocks'
  /// designated-verifier signatures.
  SessionReport run_storage_audit(AuditTransport& link, const SessionStart& start,
                                  const Point& q_user, std::uint64_t universe,
                                  std::size_t sample_size, SignatureCheckMode mode,
                                  SessionJournal* journal = nullptr);

 private:
  /// Shared attempt loop: `issue(rng)` builds the attempt's request payload
  /// from the attempt-scoped random stream, `conclude` verifies a decoded
  /// reply payload and fills the report.
  template <typename Issue, typename Conclude>
  SessionReport drive(AuditTransport& link, MessageType request_type,
                      MessageType reply_type, const SessionStart& start,
                      SessionJournal* journal, Issue&& issue, Conclude&& conclude);

  const ibc::DesignatedVerifier* da_;
  RetryPolicy policy_;
  SessionClock* clock_ = nullptr;
};

}  // namespace seccloud::core
