// Fleet-scale audit service: registry + epoch scheduler + cross-user batches.
//
// The AuditService plays the verifying party (the DA by default — the
// paper's third-party auditor shape, or the CS checking incoming uploads)
// operating at fleet scale:
//   * users live in the ShardedRegistry; active users bind their serialized
//     Q_ID once, together with their pairwise key v = ê(Q_ID, sk_B), and are
//     afterwards resolved in O(1) per request;
//   * audit requests are admitted into fixed epochs through the bounded
//     AdmissionQueue (backpressure instead of unbounded memory);
//   * run_epoch() drains the queue, filters stale replays against each
//     user's audited-version high-water mark (zero pairings), flattens the
//     surviving requests' block signatures into shared cross-user batches,
//     and verifies every batch with the paper's 2-pairing shape — one
//     pairing for the cloud server's epoch attestation over the batch
//     digest (the analogue of Sig_CS(R)) and one for the mixed-signer
//     aggregate (Eq. 8/9) — falling back to bisection to isolate Byzantine
//     entries across user boundaries without rejecting honest users.
//
// Determinism contract: batches verify in parallel across the engine's pool
// but each batch's verification is the serial group path writing to a
// disjoint verdict slot, attestations are signed with a per-(seed, epoch,
// batch) HMAC-DRBG, and op counters accumulate atomically — verdicts,
// isolated sets, and op totals are bit-identical for any thread count.
//
// Fixed-key precomputation: the keys every epoch uses are prepared once and
// shared read-only by every lane: the Miller lines of sk_B for every check,
// the attestor's pairwise key ê(Q_CS, sk_B) for the attestation check, the
// attestor's DvSigner, g = ê(sk_CS, Q_B), so an attestation costs one scalar
// mult and one GT exponentiation, and each bound user's pairwise key, so a
// batch raises its signers' h-sums in GT instead of multiplying their Q_IDs
// in G1. Attestations, verdicts, isolated sets and bisection stats are
// bit-identical to the unprepared IdentityKey paths (ibs_sign + dv_transform,
// dv_cross_user_verify on keys).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ibc/dvs.h"
#include "obs/journey.h"
#include "pairing/parallel.h"
#include "seccloud/service/epoch.h"
#include "seccloud/service/registry.h"
#include "seccloud/types.h"

namespace seccloud::obs {
class Counter;
class Histogram;
class MetricsRegistry;
class TelemetrySink;
}  // namespace seccloud::obs

namespace seccloud::service {

class VerdictLedger;  // ledger.h

using ibc::IdentityKey;
using pairing::PairingGroup;
using pairing::ParallelPairingEngine;
using pairing::Point;

/// Which designated-verifier signature each block carries into the batch:
/// Σ (cloud server) or Σ' (designated agency). Must match the role whose
/// secret key the service holds.
enum class VerifierRole : std::uint8_t { kCloudServer, kAgency };

struct ServiceConfig {
  RegistryConfig registry;  ///< key_width and prepared_width are filled in from the group
  EpochConfig epoch;
  std::size_t threads = 0;  ///< engine pool size (0 = hardware concurrency)
  VerifierRole role = VerifierRole::kAgency;
  /// Domain seed for the deterministic per-(epoch, batch) attestation DRBG.
  std::string attestor_seed = "seccloud.service.attest.v1";
};

/// One flattened signature entry isolated as invalid, mapped back to its
/// origin: the owning user, the drained-request index, and the block index
/// inside that request.
struct InvalidEntryRef {
  UserHandle user = kInvalidUser;
  std::size_t request_index = 0;
  std::size_t block_index = 0;

  bool operator==(const InvalidEntryRef&) const = default;
};

/// Per-batch outcome (kept so tests can audit the 2-pairing accounting).
struct BatchResult {
  std::size_t first_entry = 0;  ///< flat index of the batch's first entry
  std::size_t entries = 0;
  ibc::CrossUserVerdict verdict;
  core::Bytes attestation_message;  ///< the signed batch digest statement
  ibc::DvSignature attestation;     ///< the CS attestation the batch was checked against
};

struct EpochReport {
  std::uint64_t epoch = 0;
  std::size_t requests = 0;          ///< drained this epoch
  std::size_t stale_rejected = 0;    ///< replay-filtered before batching
  std::size_t unkeyed_rejected = 0;  ///< user had no bound Q_ID
  std::size_t entries = 0;           ///< flattened signatures verified
  std::size_t batches = 0;
  std::size_t verified_requests = 0;
  std::size_t failed_requests = 0;
  std::vector<BatchResult> results;
  std::vector<InvalidEntryRef> invalid_entries;  ///< flat-entry ascending
  std::vector<UserHandle> byzantine_users;       ///< unique, ascending
  pairing::OpCounters assembly_ops;  ///< digesting + attestation signing
  pairing::OpCounters verify_ops;    ///< the 2-pairing checks + any bisection
  ibc::BisectionStats bisection;     ///< summed over rejecting batches
  std::uint64_t retry_after_epochs = 0;  ///< backpressure hint in force
  double epoch_ms = 0.0;      ///< drain → verdict wall time (hot path)
  double telemetry_ms = 0.0;  ///< snapshot + ledger + journey capture (off path)
  /// Critical-path decomposition over this epoch's journey records (all of
  /// them, pre-sampling). Zeroed unless a JourneyRecorder is attached.
  obs::JourneyAttribution attribution;

  /// One-object epoch summary (SessionReport::to_json-style) for logs and
  /// dashboards; includes the retry-after hint, telemetry cost, and the
  /// p99_attribution block.
  std::string to_json() const;
};

class AuditService {
 public:
  /// `verifier` is the service's own identity key (it holds sk_B for the
  /// Eq. 5/7/8/9 checks); `attestor` is the cloud server identity whose
  /// epoch attestations accompany every batch.
  AuditService(const PairingGroup& group, IdentityKey verifier, IdentityKey attestor,
               ServiceConfig config = {});

  const PairingGroup& group() const noexcept { return *group_; }
  const ServiceConfig& config() const noexcept { return config_; }
  ShardedRegistry& registry() noexcept { return registry_; }
  const ShardedRegistry& registry() const noexcept { return registry_; }
  AdmissionQueue& queue() noexcept { return queue_; }
  const ParallelPairingEngine& engine() const noexcept { return engine_; }
  std::uint64_t epoch() const noexcept { return queue_.epoch(); }
  /// Identity points clients designate their signatures to: the service's
  /// own verifying identity and the attesting cloud server.
  const Point& verifier_q_id() const noexcept { return verifier_.q_id(); }
  const Point& attestor_q_id() const noexcept { return attestor_.q_id(); }

  /// Registers an identity record only (cheap; no key material).
  UserHandle register_user(std::string_view id);
  /// Registers and immediately binds the serialized Q_ID (an "active" user)
  /// with its pairwise key (one replayed pairing).
  UserHandle register_user(std::string_view id, const Point& q_id);
  /// Late activation: binds Q_ID and its pairwise key to an
  /// already-registered user. Write-once.
  bool activate(UserHandle user, const Point& q_id);
  /// The bound identity point, deserialized; nullopt for unkeyed users.
  std::optional<Point> user_q_id(UserHandle user) const;

  /// Admits one request into the current epoch (bounded; thread-safe). A
  /// handle the registry never issued is refused outright: not accepted,
  /// retry_after_epochs 0, request_id 0, and no queue slot taken.
  Admission submit(AuditRequest request);

  /// Drains the admission queue and verifies the epoch. Single-driver:
  /// concurrent submit() is fine, concurrent run_epoch() is not.
  EpochReport run_epoch();

  /// Service metrics under "<prefix>.*": request outcome counters, epoch
  /// latency histogram, plus queue and engine telemetry.
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix);

  /// Attaches the epoch snapshot pipeline: after every run_epoch the service
  /// captures one EpochSnapshot (report fields + shard heat + queue deltas)
  /// into the sink. nullptr detaches. The sink must outlive the service or
  /// be detached first; capture happens after the epoch clock stops, so its
  /// cost lands in telemetry_ms, never epoch_ms.
  void attach_telemetry(obs::TelemetrySink* sink) noexcept { telemetry_ = sink; }

  /// Attaches the forensic verdict ledger: one record per audited entry and
  /// per pre-batch-filtered request. nullptr detaches. Same lifetime and
  /// off-hot-path contract as attach_telemetry.
  void attach_ledger(VerdictLedger* ledger) noexcept { ledger_ = ledger; }

  /// Attaches the journey recorder: after every run_epoch the service builds
  /// one JourneyRecord per drained AND backpressure-rejected request, runs
  /// the sampling policy, and records the kept journeys (plus the epoch's
  /// attribution into the report). nullptr detaches. Same lifetime and
  /// off-hot-path contract as attach_telemetry; when a ledger is also
  /// attached, its records carry the journey id of sampled requests.
  void attach_journeys(obs::JourneyRecorder* journeys) noexcept { journeys_ = journeys; }

 private:
  // run_epoch's stages, in order, each filling the epoch's trace and report.
  struct EpochTrace;
  void drain(EpochTrace& t, EpochReport& report);
  void filter(EpochTrace& t, EpochReport& report);
  void flatten(EpochTrace& t, EpochReport& report) const;
  void assemble(EpochTrace& t, EpochReport& report);
  void verify(EpochTrace& t, EpochReport& report);
  void settle(EpochTrace& t, EpochReport& report);
  // The observers, after the epoch clock stops. record_journeys returns each
  // drained request's journey id (0 unless sampled) for the ledger.
  static std::vector<obs::JourneyRecord> epoch_journeys(const EpochTrace& t,
                                                        const EpochReport& report);
  std::vector<std::uint64_t> record_journeys(const EpochTrace& t, EpochReport& report);
  void record_ledger(const EpochTrace& t, const EpochReport& report,
                     const std::vector<std::uint64_t>& journey_ids);
  void record_telemetry(const EpochTrace& t, const EpochReport& report,
                        std::chrono::steady_clock::time_point since);

  const PairingGroup* group_;
  ServiceConfig config_;
  ibc::DvSigner attestor_;             ///< CS → B: g = ê(sk_CS, Q_B); as secret as sk_CS
  ibc::DesignatedVerifier verifier_;   ///< sk_B lines: aggregate, attestation, bisection
  pairing::Gt attestor_key_;           ///< ê(Q_CS, sk_B): the attestation check's Q_CS term
  ShardedRegistry registry_;
  AdmissionQueue queue_;
  ParallelPairingEngine engine_;
  obs::TelemetrySink* telemetry_ = nullptr;
  VerdictLedger* ledger_ = nullptr;
  obs::JourneyRecorder* journeys_ = nullptr;
  std::uint64_t last_queue_admitted_ = 0;
  std::uint64_t last_queue_rejected_ = 0;

  std::atomic<obs::Counter*> m_verified_{nullptr};
  std::atomic<obs::Counter*> m_failed_{nullptr};
  std::atomic<obs::Counter*> m_stale_{nullptr};
  std::atomic<obs::Counter*> m_byzantine_{nullptr};
  std::atomic<obs::Counter*> m_epochs_{nullptr};
  std::atomic<obs::Histogram*> m_epoch_ms_{nullptr};
  std::atomic<obs::Histogram*> m_batch_verify_ms_{nullptr};
};

}  // namespace seccloud::service
