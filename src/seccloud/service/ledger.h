// Forensic verdict ledger: one compact record per audited entry so any
// Byzantine isolation is replayable and attributable after the fact.
//
// The audit service's EpochReport says *what* happened this epoch; the
// ledger says what happened to *each* signature entry, durably: which user,
// which Q_ID freshness version, which shared batch the entry verified in,
// the verdict, and — when bisection had to isolate it — the exact
// root-to-leaf descent path (one bit per split, 0 = left half) plus the
// batch's total pairing spend. Given only the ledger bytes, an operator can
// answer "why was user U flagged in epoch E?" with the batch id, the
// entry's position, the bisection path that cornered it, and the pairing
// cost the isolation charged — no rerun, no logs, no registry access.
//
// Records are kLedgerEntry frames of the telemetry stream ('S','T', DESIGN.md
// §8) with a fixed 64-byte little-endian payload. Each record also carries
// the request's journey id (= its global request id) when that request's
// journey was sampled into the JOURNEY_* stream — the forensic join key
// between "what verdict did this entry get" and "where did this request's
// time go".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/journey.h"
#include "obs/telemetry.h"

namespace seccloud::service {

/// One ledger record. Fixed-width so a million-entry epoch appends without
/// per-record allocation and teldump can mmap-scan the stream.
struct LedgerEntry {
  std::uint64_t epoch = 0;
  std::uint64_t user = 0;     ///< UserHandle
  std::uint64_t version = 0;  ///< Q_ID freshness counter the request audited
  std::uint32_t batch = obs::kNoBatch;  ///< obs::kNoBatch for a filtered request
  std::uint32_t request_index = 0;  ///< index in the epoch's drained order
  std::uint32_t block_index = 0;    ///< block inside the request
  std::uint32_t entry_in_batch = 0; ///< flat position inside the batch
  obs::Verdict verdict = obs::Verdict::kVerified;  ///< never kRejectedAdmission
  std::uint8_t isolation_depth = 0;  ///< bisection splits taken (0 = none)
  std::uint32_t isolation_path = 0;  ///< descent bits, LSB first, 0 = left
  std::uint64_t batch_pairings = 0;  ///< total pairings the batch spent
  /// The request's journey id (global request id) when its journey record
  /// was sampled into the JOURNEY_* stream; 0 when unsampled or when no
  /// recorder was attached. Join key into the journey waterfall.
  std::uint64_t journey_id = 0;

  bool operator==(const LedgerEntry&) const = default;
};

/// Payload codec: 64-byte little-endian layout, total decoder.
std::vector<std::uint8_t> encode_ledger_entry(const LedgerEntry& entry);
std::optional<LedgerEntry> decode_ledger_entry(std::span<const std::uint8_t> payload);

/// Recomputes the bisection descent for `index` inside a batch of `n`
/// entries, mirroring the split rule of ibc::BatchAccumulator::isolate's
/// range walk (mid = lo+(hi-lo)/2, left first). Returns {depth, path}: one path bit per split, LSB = the
/// root split, 0 = the entry sat in the left half.
struct IsolationPath {
  std::uint8_t depth = 0;
  std::uint32_t bits = 0;
};
IsolationPath bisection_path(std::size_t index, std::size_t n) noexcept;

/// Append-only in-memory ledger stream (kLedgerEntry telemetry records).
/// Single-writer, like the TelemetrySink it rides beside.
class VerdictLedger {
 public:
  explicit VerdictLedger(std::uint32_t stream_id = 0)
      : stream_(obs::kTelemetryFormat, stream_id) {}

  void append(const LedgerEntry& entry) {
    stream_.append(obs::TelemetryRecordType::kLedgerEntry, encode_ledger_entry(entry));
  }

  std::span<const std::uint8_t> bytes() const noexcept { return stream_.bytes(); }
  std::size_t records() const noexcept { return stream_.seq(); }

 private:
  framing::Writer<obs::TelemetryRecordType> stream_;
};

/// Replays a ledger stream: every intact record's decoded entry, in append
/// order. Records that frame-decode but carry a malformed payload are
/// counted, not silently dropped.
struct LedgerReplay {
  std::vector<LedgerEntry> entries;
  bool torn_tail = false;
  std::size_t clean_bytes = 0;
  std::size_t malformed_payloads = 0;
};

LedgerReplay replay_ledger(std::span<const std::uint8_t> bytes);

}  // namespace seccloud::service
