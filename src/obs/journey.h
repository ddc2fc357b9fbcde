// Request-lifecycle journey tracing: one compact fixed-size record per
// audited (or rejected) request, capturing the causal path of that request
// through the audit service — enqueue, admission wait, stale/unkeyed filter,
// batch assembly, attestation, the shared 2-pairing verify, any bisection
// descent, and the final verdict — as a per-stage duration vector whose sum
// equals the request's end-to-end latency within the clock quantum.
//
// The epoch/batch telemetry of PR 8 can say *that* an epoch was slow; a
// journey says *where one request's time went*, which is what p99 tail
// attribution needs once cross-user batching has amortized everything else
// away. Three pieces:
//
//   * JourneyRecord — 88-byte little-endian POD: request id, user, epoch,
//     batch, per-stage microsecond durations over the eight lifecycle
//     stages, the batch's pairing spend amortized per entry, and the
//     bisection depth when the request's own entries were isolated;
//   * JourneyRecorder — bounded in-memory ring plus an append-only stream
//     of checksummed frames under magic 'S','Y' (DESIGN.md §8). A
//     deterministic sampling policy keeps full-mode overhead inside the 2%
//     telemetry budget: rejected/filtered requests, bisected requests, and
//     the slowest request of every epoch are always sampled; the rest pass a
//     seeded SplitMix64 coin so any run replays the same choice;
//   * attribute_journeys — the critical-path decomposition: per-stage
//     p50/p95/p99 across an epoch's journeys plus the p99 journey's stage
//     shares, the "p99=490ms [queue 61% verify 27% bisect 9%]" answer.
//
// Everything here is off the verification hot path: the service stamps
// phase boundaries during the epoch (a handful of steady_clock reads) and
// assembles/samples/encodes records strictly after the epoch clock stops,
// billing the cost to telemetry_ms like the snapshot sink beside it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "hash/framing.h"

namespace seccloud::obs {

// --- the lifecycle stages ---------------------------------------------------

/// The enumerated request lifecycle, in causal order. Durations are
/// microseconds; the bulk stages (filter..verdict) are the epoch phase walls
/// the request telescopes through, so summing a journey's stages reproduces
/// its end-to-end latency exactly (± one µs rounding per stage).
enum class JourneyStage : std::uint8_t {
  kEnqueue = 0,  ///< the submit() call itself (id assignment + bounded admit)
  kAdmit = 1,    ///< queue wait: admission until the epoch drained it
  kFilter = 2,   ///< stale-replay / unkeyed filtering (zero-pairing rejects)
  kFlatten = 3,  ///< flattening surviving requests into the shared entry stream
  kAttest = 4,   ///< batch digests + deterministic epoch attestation signing
  kVerify = 5,   ///< the 2-pairing shared-batch verification window
  kBisect = 6,   ///< bisection descent share of the verify window
  kVerdict = 7,  ///< mapping batch verdicts back to requests and users
};

inline constexpr std::size_t kJourneyStageCount = 8;

const char* to_string(JourneyStage stage) noexcept;

// --- the record -------------------------------------------------------------

/// Terminal outcome of a request's journey and of a verdict-ledger record
/// (seccloud/service/ledger.h); only a journey ends in kRejectedAdmission.
enum class Verdict : std::uint8_t {
  kVerified = 1,           ///< verified inside an accepted batch
  kInvalidSignature = 2,   ///< isolated by bisection as cryptographically bad
  kStaleReplay = 3,        ///< filtered pre-batch (freshness replay)
  kUnkeyed = 4,            ///< filtered pre-batch (no bound Q_ID, or a foreign handle)
  kAttestationFailed = 5,  ///< batch attestation invalid: outcome untrusted
  kRejectedAdmission = 6,  ///< backpressure reject, never entered an epoch
};

const char* to_string(Verdict verdict) noexcept;

/// Why the sampling policy kept this record (bit flags; always-sample
/// reasons compose with the probabilistic coin).
enum : std::uint8_t {
  kJourneySampledRejected = 1u << 0,   ///< rejected or filtered request
  kJourneySampledBisected = 1u << 1,   ///< own entries isolated by bisection
  kJourneySampledSlowest = 1u << 2,    ///< slowest end-to-end of its epoch
  kJourneySampledProbabilistic = 1u << 3,  ///< seeded coin
};

/// Sentinel batch id for journeys and ledger records that reached no batch.
inline constexpr std::uint32_t kNoBatch = ~std::uint32_t{0};
/// Sentinel request_index for admission-rejected journeys (never drained).
inline constexpr std::uint32_t kJourneyNoRequest = ~std::uint32_t{0};

/// One request's journey, fixed-width (88-byte little-endian payload) so a
/// million-request epoch samples without per-record allocation and teldump
/// can scan the stream with one struct layout.
struct JourneyRecord {
  std::uint64_t request_id = 0;  ///< global admission ordinal (never reused)
  std::uint64_t user = 0;        ///< UserHandle
  std::uint64_t epoch = 0;
  std::uint32_t batch = kNoBatch;  ///< batch of the first entry
  std::uint32_t request_index = kJourneyNoRequest;  ///< drained-order index
  std::uint32_t blocks = 0;                ///< signatures the request carried
  std::uint32_t retry_after_epochs = 0;    ///< nonzero iff rejected admission
  Verdict verdict = Verdict::kVerified;
  std::uint8_t sampled = 0;          ///< kJourneySampled* reason bits
  std::uint8_t bisection_depth = 0;  ///< deepest descent over own entries
  /// Batch pairing spend amortized per entry, in milli-pairings
  /// (2000/batch_entries on a clean batch): the request's share of what its
  /// shared batch cost, comparable across batch sizes.
  std::uint32_t amortized_pairings_milli = 0;
  std::array<std::uint32_t, kJourneyStageCount> stage_us{};
  std::uint32_t end_to_end_us = 0;  ///< submit entry → epoch verdict stamp

  bool operator==(const JourneyRecord&) const = default;

  std::uint64_t stage_sum_us() const noexcept;
};

inline constexpr std::size_t kJourneyPayloadBytes = 88;

/// Payload codec: 88-byte little-endian layout, total decoder.
std::vector<std::uint8_t> encode_journey_record(const JourneyRecord& record);
std::optional<JourneyRecord> decode_journey_record(std::span<const std::uint8_t> payload);

// --- framed stream ----------------------------------------------------------

/// The journey stream's framing: magic 'S','Y', one record type (1).
inline constexpr framing::Format<std::uint8_t> kJourneyFormat{'Y', 1};

/// Replays a journey stream: every intact frame's decoded record, in order.
/// Frames that decode but carry a malformed payload are counted, never
/// silently dropped.
struct JourneyReplay {
  std::vector<JourneyRecord> records;
  bool torn_tail = false;
  std::size_t clean_bytes = 0;
  std::size_t malformed_payloads = 0;
};

JourneyReplay replay_journeys(std::span<const std::uint8_t> bytes);

// --- the recorder -----------------------------------------------------------

struct JourneyRecorderConfig {
  std::size_t ring_capacity = 1024;  ///< records kept in memory
  std::uint32_t stream_id = 0;       ///< stamped into every frame header
  /// Seed for the probabilistic coin — same seed, same traffic, same sample.
  std::uint64_t sample_seed = 0x5ecc100d5eedULL;
  /// Sample 1-in-N of the requests no always-sample rule kept (0 or 1 keeps
  /// everything — the full-fidelity debugging mode).
  std::uint32_t sample_every = 16;
};

/// Owns the bounded ring and the append-only journey stream. Single writer
/// (the epoch driver, strictly after the hot-path clock stops); readers
/// consume ring()/stream() between epochs.
class JourneyRecorder {
 public:
  explicit JourneyRecorder(JourneyRecorderConfig config = {});

  const JourneyRecorderConfig& config() const noexcept { return config_; }

  /// Deterministic coin for requests no always-sample rule kept: a
  /// SplitMix64 mix of (seed, epoch, request_id) against the 1-in-N
  /// threshold. Pure — callers apply always-sample rules first.
  bool sample_probabilistic(std::uint64_t epoch, std::uint64_t request_id) const noexcept;

  /// Appends one record to the ring (evicting past capacity) and one framed
  /// record to the stream. The record's `sampled` bits say why it was kept.
  void record(const JourneyRecord& record);

  const std::deque<JourneyRecord>& ring() const noexcept { return ring_; }
  std::span<const std::uint8_t> stream() const noexcept { return stream_.bytes(); }
  std::size_t records() const noexcept { return stream_.seq(); }
  /// Cumulative wall time inside record() — the overhead the telemetry
  /// budget (≤2% of epoch time) accounts for.
  double capture_ms() const noexcept { return capture_ms_; }

 private:
  JourneyRecorderConfig config_;
  std::deque<JourneyRecord> ring_;
  framing::Writer<std::uint8_t> stream_;
  double capture_ms_ = 0.0;
};

// --- critical-path attribution ----------------------------------------------

/// Per-stage latency distribution over a set of journeys (nearest-rank
/// percentiles, microseconds).
struct StageAttribution {
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t total_us = 0;  ///< summed over every journey

  bool operator==(const StageAttribution&) const = default;
};

/// The tail-attribution answer for one epoch (or any journey set): where
/// the p99 request actually spent its time, stage by stage.
struct JourneyAttribution {
  std::uint64_t journeys = 0;  ///< records the decomposition covered
  std::array<StageAttribution, kJourneyStageCount> stages{};
  std::uint64_t p99_end_to_end_us = 0;  ///< nearest-rank p99 end-to-end
  std::uint64_t p99_request_id = 0;     ///< the journey that defines it
  /// The p99 journey's per-stage share of its own end-to-end time (sums to
  /// 1 over the stages; all zero when there are no journeys).
  std::array<double, kJourneyStageCount> p99_share{};

  bool operator==(const JourneyAttribution&) const = default;
};

/// Critical-path decomposition over `records` (typically one epoch's
/// journeys, pre-sampling, so the percentiles are unbiased).
JourneyAttribution attribute_journeys(std::span<const JourneyRecord> records);

}  // namespace seccloud::obs
