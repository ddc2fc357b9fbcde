#include "seccloud/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "seccloud/codec.h"
#include "seccloud/journal.h"

namespace seccloud::core {

const char* to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kAuditChallenge: return "audit-challenge";
    case MessageType::kAuditResponse: return "audit-response";
    case MessageType::kStorageChallenge: return "storage-challenge";
    case MessageType::kStorageResponse: return "storage-response";
  }
  return "unknown";
}

const char* to_string(SessionVerdict verdict) noexcept {
  switch (verdict) {
    case SessionVerdict::kAccepted: return "accepted";
    case SessionVerdict::kRejected: return "rejected";
    case SessionVerdict::kInconclusive: return "inconclusive";
  }
  return "unknown";
}

// --- framing -------------------------------------------------------------

std::optional<Frame> decode_frame(std::span<const std::uint8_t> bytes) {
  std::size_t consumed = 0;
  auto frame = kChannelFormat.decode(bytes, &consumed);
  if (!frame || consumed != bytes.size()) return std::nullopt;
  return frame;
}

// --- retry policy ----------------------------------------------------------

std::uint64_t RetryPolicy::backoff_for(std::size_t failed_attempts) const noexcept {
  if (failed_attempts == 0 || backoff_base_units == 0) return 0;
  double units = static_cast<double>(backoff_base_units);
  const double cap = static_cast<double>(backoff_cap_units);
  for (std::size_t i = 1; i < failed_attempts && units < cap; ++i) {
    units *= backoff_factor;
  }
  return static_cast<std::uint64_t>(std::min(units, cap));
}

// --- session report --------------------------------------------------------

std::string SessionReport::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("verdict").value(to_string(verdict));
  w.key("attempts").value(static_cast<std::uint64_t>(attempts));
  w.key("timeouts").value(static_cast<std::uint64_t>(timeouts));
  w.key("corrupt_frames").value(static_cast<std::uint64_t>(corrupt_frames));
  w.key("stale_replies").value(static_cast<std::uint64_t>(stale_replies));
  w.key("duplicate_replies").value(static_cast<std::uint64_t>(duplicate_replies));
  w.key("malformed_replies").value(static_cast<std::uint64_t>(malformed_replies));
  w.key("waited_units").value(waited_units);
  w.key("bytes_sent").value(bytes_sent);
  w.key("bytes_received").value(bytes_received);
  w.key("attempt_started_units").begin_array();
  for (const std::uint64_t t : attempt_started_units) w.value(t);
  w.end_array();
  w.key("computation").begin_object();
  w.key("accepted").value(computation.accepted);
  w.key("warrant_rejected").value(computation.warrant_rejected);
  w.key("root_signature_valid").value(computation.root_signature_valid);
  w.key("samples_requested").value(static_cast<std::uint64_t>(computation.samples_requested));
  w.key("samples_returned").value(static_cast<std::uint64_t>(computation.samples_returned));
  w.key("signature_failures").value(static_cast<std::uint64_t>(computation.signature_failures));
  w.key("computation_failures")
      .value(static_cast<std::uint64_t>(computation.computation_failures));
  w.key("root_failures").value(static_cast<std::uint64_t>(computation.root_failures));
  w.key("ops");
  obs::write_op_counters(w, computation.ops);
  w.end_object();
  w.key("storage").begin_object();
  w.key("accepted").value(storage.accepted);
  w.key("blocks_checked").value(static_cast<std::uint64_t>(storage.blocks_checked));
  w.key("signature_failures").value(static_cast<std::uint64_t>(storage.signature_failures));
  w.key("ops");
  obs::write_op_counters(w, storage.ops);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

// --- the session driver -----------------------------------------------------

AuditSession::AuditSession(const ibc::DesignatedVerifier& da, RetryPolicy policy)
    : da_(&da), policy_(policy) {
  if (policy_.max_attempts == 0) policy_.max_attempts = 1;
}

namespace {

/// Folds a finished session's tallies into the default registry: channel
/// faults (corrupt/stale/duplicate — the frame layer's view, unified with
/// sim::FaultTally's channel-side counts), peer faults (intact frame,
/// undecodable payload), and the verdict split.
void publish_session_report(const SessionReport& report) {
  auto& reg = obs::default_registry();
  reg.counter("session.attempts").inc(report.attempts);
  reg.counter("session.timeouts").inc(report.timeouts);
  reg.counter("session.channel.corrupt_frames").inc(report.corrupt_frames);
  reg.counter("session.channel.stale_replies").inc(report.stale_replies);
  reg.counter("session.channel.duplicate_replies").inc(report.duplicate_replies);
  reg.counter("session.peer.malformed_replies").inc(report.malformed_replies);
  reg.counter(std::string("session.verdict.") + to_string(report.verdict)).inc();
}

}  // namespace

/// Stride between per-attempt challenge seeds (golden-ratio increment, the
/// same family the sim layer uses for trial seed derivation): attempt k of a
/// session with master seed M samples from Xoshiro256{M + k·stride}, so any
/// attempt's challenge can be re-issued bit-identically without replaying
/// the attempts before it.
constexpr std::uint64_t kAttemptSeedStride = 0x9E3779B97F4A7C15ULL;

SessionStart SessionStart::fresh(num::RandomSource& rng) {
  SessionStart start;
  start.session_id_ = static_cast<std::uint32_t>(rng.next_u64());
  start.master_seed_ = rng.next_u64();
  return start;
}

SessionStart SessionStart::resume(const RecoveredSession& recovered) {
  SessionStart start;
  start.session_id_ = recovered.session_id;
  start.master_seed_ = recovered.master_seed;
  start.first_attempt_ = recovered.next_attempt;
  start.carried_ = recovered.carried;
  start.resumed_ = true;
  start.concluded_ = recovered.concluded;
  if (recovered.valid) start.journaled_type_ = recovered.request_type;
  return start;
}

template <typename Issue, typename Conclude>
SessionReport AuditSession::drive(AuditTransport& link, MessageType request_type,
                                  MessageType reply_type, const SessionStart& start,
                                  SessionJournal* journal, Issue&& issue,
                                  Conclude&& conclude) {
  if (start.resumed_ && start.journaled_type_ != request_type) {
    // Resuming another protocol's journal would run this audit under its
    // session id, seed and tallies, and append to its log.
    throw std::invalid_argument(std::string("journal does not hold a ") +
                                to_string(request_type) + " session");
  }
  SessionReport report = start.carried_;
  if (start.concluded_) {
    // The journal already holds the outcome: the carried report IS the
    // session result, and the server is never re-contacted.
    obs::trace_instant("resume_concluded");
    publish_session_report(report);
    return report;
  }
  const std::uint32_t session_id = start.session_id_;
  // The fallback clock resumes from the journaled cumulative waits, so a
  // recovered session stamps the exact timestamps the crashed run would.
  SimulatedClock fallback{report.waited_units};
  SessionClock& clock = clock_ != nullptr ? *clock_ : fallback;
  obs::Span session_span = obs::trace_span(start.resumed_ ? "audit_session_resume"
                                                         : "audit_session");
  if (session_span) {
    session_span.arg("type", to_string(request_type));
    session_span.arg("session_id", std::to_string(session_id));
  }
  const auto journal_outcome = [&](std::uint32_t seq, AttemptOutcome outcome) {
    if (journal == nullptr) return;
    journal->append({JournalRecordType::kAttemptOutcome, session_id, seq,
                     encode_attempt_outcome_payload(outcome, report)});
  };
  const auto journal_end = [&](SessionVerdict verdict, std::uint32_t seq) {
    if (journal == nullptr) return;
    journal->append({JournalRecordType::kSessionEnd, session_id, seq,
                     encode_session_end_payload(verdict)});
  };
  if (journal != nullptr && !start.resumed_) {
    journal->append({JournalRecordType::kSessionStart, session_id, 0,
                     encode_session_start_payload(request_type, start.master_seed_)});
  }

  for (std::size_t attempt = start.first_attempt_; attempt <= policy_.max_attempts;
       ++attempt) {
    const std::uint64_t started = clock.now_units();
    const auto seq = static_cast<std::uint32_t>(attempt);
    // Write-ahead: the attempt-start record lands before anything touches
    // the channel, so a crash between the two re-runs this attempt from a
    // channel the attempt never observed.
    if (journal != nullptr) {
      journal->append({JournalRecordType::kAttemptStart, session_id, seq,
                       encode_attempt_start_payload(started)});
    }
    report.attempt_started_units.push_back(started);
    ++report.attempts;
    obs::Span attempt_span = obs::trace_span("attempt");
    if (attempt_span) attempt_span.arg("seq", std::to_string(attempt));
    num::Xoshiro256 attempt_rng{start.master_seed_ + kAttemptSeedStride * attempt};
    Bytes request;
    {
      // The challenge phase of the cost model: sampling plus encoding.
      obs::ProfileSpan challenge_span = obs::profile_span("challenge");
      request = issue(attempt_rng);
      if (challenge_span) challenge_span.arg("bytes", std::to_string(request.size()));
    }
    const Bytes frame = encode_frame(request_type, session_id, seq, request);
    report.bytes_sent += frame.size();

    std::optional<Bytes> reply;
    {
      // The transmit phase: channel exchange plus frame integrity checks.
      obs::ProfileSpan transmit_span = obs::profile_span("transmit");
      if (transmit_span) transmit_span.arg("bytes_sent", std::to_string(frame.size()));
      for (const Bytes& raw : link.exchange(request_type, frame)) {
        report.bytes_received += raw.size();
        auto decoded = decode_frame(raw);
        if (!decoded) {
          ++report.corrupt_frames;  // in-flight damage — a channel fault
          obs::trace_instant("corrupt_frame");
          continue;
        }
        if (decoded->type != reply_type || decoded->stream_id != session_id ||
            decoded->seq != seq) {
          ++report.stale_replies;  // delayed/duplicated reply to an older attempt
          obs::trace_instant("stale_reply");
          continue;
        }
        if (reply) {
          ++report.duplicate_replies;
          obs::trace_instant("duplicate_reply");
          continue;
        }
        reply = std::move(decoded->payload);
      }
    }

    if (reply) {
      if (const auto verdict = conclude(*reply, report)) {
        report.verdict = *verdict;
        if (attempt_span) attempt_span.arg("outcome", to_string(*verdict));
        attempt_span.end();
        journal_outcome(seq, *verdict == SessionVerdict::kAccepted
                                 ? AttemptOutcome::kAccepted
                                 : AttemptOutcome::kRejected);
        journal_end(*verdict, seq);
        publish_session_report(report);
        return report;
      }
      ++report.malformed_replies;  // intact frame, undecodable payload — retried
      obs::trace_instant("malformed_reply");
      if (attempt_span) attempt_span.arg("outcome", "malformed");
    } else {
      ++report.timeouts;
      obs::trace_instant("timeout");
      if (attempt_span) attempt_span.arg("outcome", "timeout");
    }
    std::uint64_t wait = policy_.timeout_units;
    if (attempt < policy_.max_attempts) wait += policy_.backoff_for(attempt);
    report.waited_units += wait;
    clock.advance(wait);
    // The outcome record carries the cumulative tallies *including* this
    // attempt's waits, so a resumed clock lands exactly where this one is.
    journal_outcome(seq, reply ? AttemptOutcome::kMalformed : AttemptOutcome::kTimeout);
  }

  report.verdict = SessionVerdict::kInconclusive;
  journal_end(SessionVerdict::kInconclusive,
              static_cast<std::uint32_t>(policy_.max_attempts));
  publish_session_report(report);
  return report;
}

SessionReport AuditSession::run_computation_audit(
    AuditTransport& link, const SessionStart& start, const Point& q_user,
    const Point& q_server, const ComputationTask& task, const Commitment& commitment,
    const Warrant& warrant, std::size_t sample_size, SignatureCheckMode mode,
    SessionJournal* journal) {
  const PairingGroup& group = da_->group();
  AuditChallenge current;
  return drive(
      link, MessageType::kAuditChallenge, MessageType::kAuditResponse, start, journal,
      [&](num::RandomSource& attempt_rng) {
        // Idempotent re-issue: a fresh sample (fresh nonce), the same warrant.
        current = make_challenge(task.requests.size(), sample_size, warrant, attempt_rng);
        return encode_challenge(group, current);
      },
      [&](const Bytes& payload, SessionReport& report) -> std::optional<SessionVerdict> {
        const auto response = decode_response(group, payload);
        if (!response) return std::nullopt;
        report.computation =
            verify_computation_audit(pairing::ParallelPairingEngine{group, 1}, q_user,
                                     q_server, task, commitment, current, *response, *da_,
                                     mode);
        return report.computation.accepted ? SessionVerdict::kAccepted
                                           : SessionVerdict::kRejected;
      });
}

SessionReport AuditSession::run_storage_audit(AuditTransport& link, const SessionStart& start,
                                              const Point& q_user, std::uint64_t universe,
                                              std::size_t sample_size,
                                              SignatureCheckMode mode,
                                              SessionJournal* journal) {
  const PairingGroup& group = da_->group();
  std::vector<std::uint64_t> indices;
  return drive(
      link, MessageType::kStorageChallenge, MessageType::kStorageResponse, start, journal,
      [&](num::RandomSource& attempt_rng) {
        indices = sample_indices(universe, sample_size, attempt_rng);
        AuditChallenge probe;  // Protocol II needs only the positions
        probe.sample_indices = indices;
        return encode_challenge(group, probe);
      },
      [&](const Bytes& payload, SessionReport& report) -> std::optional<SessionVerdict> {
        const auto blocks = decode_block_list(group, payload);
        if (!blocks) return std::nullopt;
        // The checksum proved the server produced this reply, so a wrong
        // shape (count or claimed positions) is attributable misbehaviour,
        // not channel noise.
        bool shape_ok = blocks->size() == indices.size();
        for (std::size_t i = 0; shape_ok && i < indices.size(); ++i) {
          shape_ok = (*blocks)[i].block.index == indices[i];
        }
        report.storage =
            verify_storage_audit(pairing::ParallelPairingEngine{group, 1}, q_user, *blocks,
                                 *da_, VerifierRole::kDesignatedAgency, mode);
        return shape_ok && report.storage.accepted ? SessionVerdict::kAccepted
                                                   : SessionVerdict::kRejected;
      });
}

}  // namespace seccloud::core
