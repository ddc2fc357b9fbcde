// Fleet telemetry pipeline: per-epoch snapshots into a bounded ring plus a
// checksummed append-only stream.
//
// The audit service (and any other epoch-driven driver) turns one
// MetricsRegistry into a *timeline*: at every epoch boundary it fills an
// EpochSnapshot (throughput, rejects, per-shard occupancy/probe heat,
// pairing amortization, bisection depth, latency) and hands it to a
// TelemetrySink, which
//   * stamps the snapshot with the registry's counter DELTAS since the
//     previous capture (so each snapshot reports what THIS epoch consumed,
//     while the registry itself stays cumulative for scrapes);
//   * keeps the last `ring_capacity` snapshots in memory for live
//     inspection; and
//   * appends one checksummed frame under magic 'S','T' (DESIGN.md §8) to
//     an append-only byte stream.
//
// Everything here is off the verification hot path: capture cost is one
// registry snapshot + one record encode, amortized per epoch (hundreds of
// milliseconds of pairing work), and the bench gate measures that the whole
// pipeline stays under 2% of epoch wall time.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hash/framing.h"
#include "obs/metrics.h"

namespace seccloud::obs {

struct SloAlert;  // slo.h

// --- framed record codec ---------------------------------------------------

/// Record types multiplexed over telemetry streams. The service writes
/// kEpochSnapshot/kSloAlert into its TEL_* stream and kLedgerEntry into the
/// separate LEDGER_* stream (seccloud/service/ledger.h owns that payload).
enum class TelemetryRecordType : std::uint8_t {
  kEpochSnapshot = 1,  ///< JSON EpochSnapshot payload
  kSloAlert = 2,       ///< JSON SloAlert payload (fire/resolve transition)
  kLedgerEntry = 3,    ///< fixed-width binary forensic verdict record
};

const char* to_string(TelemetryRecordType type) noexcept;

/// The telemetry stream's framing: magic 'S','T', types 1..kLedgerEntry.
inline constexpr framing::Format<TelemetryRecordType> kTelemetryFormat{
    'T', TelemetryRecordType::kLedgerEntry};

/// One decoded stream record: header fields plus the type-specific payload.
using TelemetryRecord = framing::Frame<TelemetryRecordType>;
using TelemetryReplay = framing::Replay<TelemetryRecordType>;

inline std::vector<std::uint8_t> encode_telemetry_record(const TelemetryRecord& record) {
  return kTelemetryFormat.encode(record.type, record.stream_id, record.seq, record.payload);
}

/// The record at the head of `bytes`; `consumed` receives its size.
inline std::optional<TelemetryRecord> decode_telemetry_record(
    std::span<const std::uint8_t> bytes, std::size_t* consumed = nullptr) {
  return kTelemetryFormat.decode(bytes, consumed);
}

inline TelemetryReplay replay_telemetry(std::span<const std::uint8_t> bytes) {
  return kTelemetryFormat.replay(bytes);
}

// --- the epoch snapshot ----------------------------------------------------

/// Per-shard registry heat: occupancy and open-addressing probe pressure.
/// A shard whose probe_max grows while its neighbours stay flat is the "hot
/// shard" question the snapshot pipeline exists to answer.
struct ShardHeat {
  std::uint64_t users = 0;
  std::uint64_t keyed = 0;
  std::uint64_t table_slots = 0;
  std::uint64_t probe_max = 0;    ///< longest insertion probe in the shard
  std::uint64_t probe_total = 0;  ///< summed probe lengths (avg = /users)

  bool operator==(const ShardHeat&) const = default;
};

/// Everything one epoch of the audit service did, in one flat record.
/// Serialized as canonical JSON inside a kEpochSnapshot stream record so
/// tools/teldump.py renders timelines without a binary schema.
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  double epoch_ms = 0.0;      ///< verification wall time (hot path)
  double telemetry_ms = 0.0;  ///< snapshot+ledger capture cost (off path)

  std::uint64_t requests = 0;
  std::uint64_t stale_rejected = 0;
  std::uint64_t unkeyed_rejected = 0;
  std::uint64_t entries = 0;
  std::uint64_t batches = 0;
  std::uint64_t verified_requests = 0;
  std::uint64_t failed_requests = 0;
  std::uint64_t byzantine_users = 0;

  std::uint64_t assembly_pairings = 0;
  std::uint64_t verify_pairings = 0;
  double pairings_per_batch = 0.0;  ///< 2.0 on a clean epoch — the invariant
  std::uint64_t bisection_oracle_calls = 0;
  std::uint64_t bisection_max_depth = 0;

  std::uint64_t queue_depth_at_drain = 0;  ///< admission depth the epoch saw
  std::uint64_t queue_admitted = 0;        ///< admissions since last capture
  std::uint64_t queue_rejected = 0;        ///< backpressure rejects since last capture
  std::uint64_t retry_after_epochs = 0;    ///< hint attached to those rejects

  std::vector<ShardHeat> shards;
  /// Registry counter deltas since the previous capture (filled by the
  /// sink). Monotonic counters only — gauges/histograms stay cumulative.
  std::map<std::string, std::uint64_t> counter_deltas;

  bool operator==(const EpochSnapshot&) const = default;

  std::string to_json() const;
  static std::optional<EpochSnapshot> from_json(std::string_view json);
};

// --- the sink --------------------------------------------------------------

struct TelemetrySinkConfig {
  std::size_t ring_capacity = 256;  ///< snapshots kept in memory
  std::uint32_t stream_id = 0;      ///< stamped into every record header
};

/// Owns the bounded in-memory ring and the append-only stream. Single
/// writer (the epoch driver); readers consume ring()/stream() between
/// epochs. Not thread-safe by design — run_epoch already is single-driver.
class TelemetrySink {
 public:
  /// `registry` is the metrics home the counter deltas are computed from;
  /// the baseline is the registry's state at construction.
  explicit TelemetrySink(MetricsRegistry& registry, TelemetrySinkConfig config = {});

  /// Completes `snapshot` with the registry counter deltas since the last
  /// capture, pushes it into the ring (evicting the oldest past capacity),
  /// and appends one kEpochSnapshot record to the stream.
  void capture(EpochSnapshot snapshot);

  /// Appends one kSloAlert record (fire/resolve transition) to the stream.
  void alert(const SloAlert& alert);

  const std::deque<EpochSnapshot>& ring() const noexcept { return ring_; }
  std::span<const std::uint8_t> stream() const noexcept { return stream_.bytes(); }
  std::size_t records() const noexcept { return stream_.seq(); }
  const TelemetrySinkConfig& config() const noexcept { return config_; }

  /// Cumulative wall time spent inside capture()/alert() — the overhead the
  /// bench gate holds under 2% of epoch time.
  double capture_ms() const noexcept { return capture_ms_; }

 private:
  void append_record(TelemetryRecordType type, std::string_view json);

  MetricsRegistry* registry_;
  TelemetrySinkConfig config_;
  std::map<std::string, std::uint64_t> last_counters_;
  std::deque<EpochSnapshot> ring_;
  framing::Writer<TelemetryRecordType> stream_;
  double capture_ms_ = 0.0;
};

}  // namespace seccloud::obs
