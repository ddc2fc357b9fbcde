// Async epoch scheduler: bounded admission with backpressure.
//
// The service verifies audits in fixed epochs. Between epochs, clients
// submit() audit requests into a bounded admission queue; when the queue is
// full the request is rejected with a retry-after hint (epochs to wait)
// instead of growing memory without bound — the backpressure contract the
// north-star traffic-serving system needs. drain_epoch() atomically takes
// the whole pending queue in admission order and advances the epoch number,
// so every drained request carries the epoch it was verified in.
//
// Telemetry (bind_metrics): "<prefix>.admitted" / "<prefix>.rejected"
// counters and a "<prefix>.queue_depth" gauge (current / high-water) so the
// obs pipeline sees admission pressure between snapshots. The late-bound
// handles are published with release stores and read with acquire loads:
// submit() may race bind_metrics(), and the handle must not be dereferenced
// before the registry finished constructing the metric (the TSan contract).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "seccloud/service/registry.h"
#include "seccloud/types.h"

namespace seccloud::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace seccloud::obs

namespace seccloud::service {

struct EpochConfig {
  /// Maximum requests queued between epochs; submits beyond it are rejected.
  std::size_t queue_capacity = 1024;
  /// Maximum flattened signature entries per shared cross-user batch.
  std::size_t batch_capacity = 64;
  /// Backpressure hint attached to rejected admissions.
  std::uint64_t retry_after_epochs = 1;
};

/// One user's audit request: the signed blocks to verify and the freshness
/// counter of the commit being audited (must be strictly newer than the
/// user's audited-version high-water mark, else it is filtered as a stale
/// replay before costing any pairing).
struct AuditRequest {
  UserHandle user = kInvalidUser;
  std::uint64_t version = 0;
  std::vector<core::SignedBlock> blocks;
};

/// Outcome of submit(): admitted into `epoch`, or rejected with a hint.
struct Admission {
  bool accepted = false;
  std::uint64_t epoch = 0;               ///< epoch the request will verify in
  std::uint64_t retry_after_epochs = 0;  ///< nonzero iff rejected for backpressure
  std::uint64_t request_id = 0;          ///< global ordinal (journey tracing key); 0 if none
};

/// Journey metadata for one admitted request, parallel to the drained
/// request vector: the global request id, when it entered the queue, and
/// how long the submit() call itself took.
struct RequestMeta {
  std::uint64_t request_id = 0;
  std::chrono::steady_clock::time_point enqueued_at{};
  double enqueue_us = 0.0;  ///< submit() wall time (the kEnqueue stage)
};

/// One backpressure-rejected admission, kept (bounded) so journey tracing
/// can record rejected requests too — the "always sample rejects" rule.
struct RejectedAdmission {
  std::uint64_t request_id = 0;
  UserHandle user = kInvalidUser;
  std::uint64_t epoch = 0;  ///< the epoch that would have verified it
  std::uint64_t retry_after_epochs = 0;
  double enqueue_us = 0.0;
};

/// Thread-safe bounded queue of audit requests between epoch boundaries.
class AdmissionQueue {
 public:
  /// Rejected-admission records retained between drains; rejects past this
  /// are tallied in rejected_total() but carry no journey metadata.
  static constexpr std::size_t kRejectedLogCapacity = 65536;

  explicit AdmissionQueue(EpochConfig config = {});

  const EpochConfig& config() const noexcept { return config_; }

  /// Admits or rejects (queue full) one request. Thread-safe. Every call —
  /// accepted or not — consumes one globally unique request id.
  Admission submit(AuditRequest request);

  /// Takes every pending request (admission order) and advances the epoch.
  /// When `meta` is non-null it is filled with per-request journey metadata
  /// parallel to the returned vector; when `rejected` is non-null it
  /// receives (and clears) the bounded rejected-admission log.
  std::vector<AuditRequest> drain(std::vector<RequestMeta>* meta = nullptr,
                                  std::vector<RejectedAdmission>* rejected = nullptr);

  /// The epoch currently admitting (drained requests verified under it).
  std::uint64_t epoch() const noexcept;
  std::size_t depth() const noexcept;

  /// Lifetime admission tallies (relaxed reads; exact once submitters
  /// quiesce). The telemetry snapshot diffs these across epochs.
  std::uint64_t admitted_total() const noexcept {
    return admitted_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected_total() const noexcept {
    return rejected_total_.load(std::memory_order_relaxed);
  }

  /// Counters "<prefix>.admitted"/"<prefix>.rejected", gauges
  /// "<prefix>.queue_depth" and "<prefix>.retry_after_epochs" (the
  /// backpressure hint attached to rejects — previously computed but never
  /// surfaced). Handles are late-bound (release/acquire).
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix);

 private:
  EpochConfig config_;
  mutable std::mutex m_;
  std::vector<AuditRequest> pending_;
  std::vector<RequestMeta> pending_meta_;      ///< parallel to pending_
  std::vector<RejectedAdmission> rejected_log_;  ///< bounded, cleared on drain
  std::atomic<std::uint64_t> next_request_id_{1};
  std::uint64_t epoch_ = 0;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::uint64_t> admitted_total_{0};
  std::atomic<std::uint64_t> rejected_total_{0};

  std::atomic<obs::Counter*> m_admitted_{nullptr};
  std::atomic<obs::Counter*> m_rejected_{nullptr};
  std::atomic<obs::Gauge*> m_depth_gauge_{nullptr};
  std::atomic<obs::Gauge*> m_retry_gauge_{nullptr};
};

}  // namespace seccloud::service
