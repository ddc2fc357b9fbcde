// Helpers shared by the workload loops (fleet.cpp, ingest.cpp) and the
// layer accounting (layers.cpp). Not part of the benchmark's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hash/sha256.h"
#include "ibc/keys.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "pairing/parallel.h"
#include "perfbench.h"
#include "seccloud/service/service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Lanes of every verification engine (the service's and the ingest DA's).
/// Fixed, not the host's core count, so every machine runs the same
/// schedule. Two of a 4-vCPU host's cores: with all four busy, contention
/// from outside on any one core stretched the slowest batch of most epochs
/// (fleet_adversarial p90 run-to-run spread 11% with 4 lanes, 5% with 2).
inline constexpr std::size_t kPoolThreads = 2;

/// Call before destroying an object that owns a util::ThreadPool. The pool's
/// destructor sets its stop flag without holding the workers' sleep mutex, so
/// a worker caught between checking that flag and blocking misses the wake-up
/// and join() never returns. Workers that started or went idle moments ago
/// are in that window; a short pause lets them block first.
inline void let_pool_workers_settle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// Feeds `v` to `sha` as 8 little-endian bytes.
void put_u64(seccloud::hash::Sha256& sha, std::uint64_t v);

/// Wall time per span name at full clock resolution, kept beside the
/// tracer's whole-µs events so sub-µs spans average correctly.
class SpanClock {
 public:
  struct Total {
    std::uint64_t count = 0;
    double ms = 0.0;
  };
  void add(std::string_view name, double ms);
  Total total(std::string_view name) const;
  void clear();

 private:
  mutable std::mutex m_;
  std::map<std::string, Total, std::less<>> totals_;
};

/// The process-wide clock every TimedSpan reports to.
SpanClock& span_clock();

/// Times a region. With a tracer installed it is also a ProfileSpan (trace
/// event + op-counter delta) and reports its time to span_clock().
class TimedSpan {
 public:
  explicit TimedSpan(std::string name)
      : name_(name), span_(seccloud::obs::profile_span(std::move(name))), begin_(Clock::now()) {}
  ~TimedSpan() { end(); }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

  /// Ends the span on its first call; returns its wall time in ms.
  double end() {
    if (!ended_) {
      ended_ = true;
      elapsed_ms_ = ms_between(begin_, Clock::now());
      if (span_) {
        span_.end();
        span_clock().add(name_, elapsed_ms_);
      }
    }
    return elapsed_ms_;
  }

 private:
  std::string name_;
  seccloud::obs::ProfileSpan span_;
  Clock::time_point begin_;
  bool ended_ = false;
  double elapsed_ms_ = 0.0;
};

/// Everything the per-layer report needs besides the spans themselves.
struct LayerTotals {
  // Service counts over the traced epochs (from their EpochReports).
  std::uint64_t epochs = 0;
  std::uint64_t batches = 0;
  std::uint64_t verify_pairings = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t filtered = 0;
  std::uint64_t duplicates_verified = 0;
  // Layer-sum check over replayed epochs.
  double replayed_epoch_ms = 0.0;  ///< run_epoch wall of the replayed epochs
  double replayed_layer_ms = 0.0;  ///< their replayed layer calls
  std::uint64_t accept_entries = 0;  ///< entries under ibc.cross_user_verify spans
  std::uint64_t replay_mismatches = 0;  ///< replayed batch verdicts unlike the epoch's
  // Engine pool utilisation over the traced epochs.
  double pool_task_ms = 0.0;
  double pool_epoch_ms = 0.0;
  std::size_t pool_threads = 1;
  // Tracing overhead: audits/s before and after the tracer is installed.
  double audits_per_s_untraced = 0.0;
  double audits_per_s_traced = 0.0;

  /// Adds one traced epoch: its report's counts and its run_epoch wall.
  void add_epoch(const seccloud::service::EpochReport& report, double run_epoch_ms) {
    ++epochs;
    batches += report.batches;
    verify_pairings += report.verify_ops.pairings;
    oracle_calls += report.bisection.oracle_calls;
    filtered += report.stale_rejected + report.unkeyed_rejected;
    pool_epoch_ms += run_epoch_ms;
  }
};

/// Keys and engine a replay needs: the service's verifier (holds sk_B) and
/// attestor identities, and the engine whose pool verifies batches.
struct ReplayContext {
  const seccloud::pairing::PairingGroup* group = nullptr;
  const seccloud::pairing::ParallelPairingEngine* engine = nullptr;
  const seccloud::ibc::IdentityKey* verifier = nullptr;
  const seccloud::ibc::IdentityKey* attestor = nullptr;
  const seccloud::service::ShardedRegistry* registry = nullptr;
  std::size_t batch_capacity = 64;
};

/// Re-runs one epoch's admitted requests (admission order) through the
/// public ibc/ec/hash calls the epoch makes: Q_ID deserialization, batch
/// digests, attestation signing and the batch-parallel cross-user verify.
/// Rejecting batches are additionally checked without isolation and isolated
/// on their own; an epoch with no rejecting batch gets one synthetic reject
/// (batch 0 with one message byte flipped) so the reject path is always
/// measured. Adds the epoch's wall (`run_epoch_ms`) and its replayed layer
/// time to the layer-sum totals.
void replay_epoch(const ReplayContext& ctx,
                  const std::vector<seccloud::service::AuditRequest>& admitted,
                  const seccloud::service::EpochReport& report, double run_epoch_ms,
                  LayerTotals& totals);

/// Unit costs of the ec, pairing, field, hash, merkle and ibc signing layers
/// on seed-derived inputs (identical work on every workload).
void probe_layers(const seccloud::pairing::PairingGroup& group,
                  const seccloud::ibc::IdentityKey& signer,
                  const seccloud::ibc::IdentityKey& verifier, std::uint64_t seed);

/// Ingest-path shape (see ingest.cpp) and the core-facade sessions the fleets
/// run in their traced pass so the core.* and merkle rows exist everywhere.
struct IngestShape {
  std::size_t users = 16;
  std::size_t blocks_per_session = 64;
  std::size_t subtasks = 1024;
  std::size_t positions_per_subtask = 4;
  std::size_t samples = 33;  ///< Fig. 4 default (CSC = SSC = 0.5, R = 2)
  std::size_t audits_per_session = 2;
  std::size_t setup_repeats = 5;
};
IngestShape ingest_shape(bool smoke);

/// Runs `sessions` ingest sessions on a fresh system under the current
/// tracer, counting their operations and failures into `result`.
void probe_core_sessions(const seccloud::pairing::PairingGroup& group, std::uint64_t seed,
                         std::size_t sessions, bool smoke, Result& result);

/// Per-layer metrics from a finished trace plus the totals.
std::vector<Metric> layer_metrics(const seccloud::obs::Tracer& tracer,
                                  const LayerTotals& totals);

/// Writes the trace's spans (Chrome trace JSON) to `path`, if non-empty.
void write_trace(const seccloud::obs::Tracer& tracer, const std::string& path);

Result run_fleet(const Options& options);
Result run_ingest(const Options& options);

}  // namespace perfbench
