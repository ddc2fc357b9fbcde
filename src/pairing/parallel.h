// Parallel verification engine over PairingGroup.
//
// Independent verification work (per-entry hashes, per-block signature
// checks) runs on a work-stealing pool. Each body writes only its own slot
// and the caller folds the slots in a fixed order; F_p / F_{p^2} arithmetic
// is exact and the GT/G1 monoids are commutative, so results are
// *bit-identical* for any thread count. Op counters are accumulated
// atomically on the group, so reported totals are exact too. An engine with
// one lane spawns no worker thread and runs the plain loop: it is the
// serial path, not a separate implementation.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "pairing/group.h"
#include "util/thread_pool.h"

namespace seccloud::obs {
class MetricsRegistry;
}  // namespace seccloud::obs

namespace seccloud::pairing {

class ParallelPairingEngine {
 public:
  /// `threads == 0` defaults to std::thread::hardware_concurrency();
  /// `threads == 1` makes every method take the plain serial path.
  explicit ParallelPairingEngine(const PairingGroup& group, std::size_t threads = 0)
      : group_(&group), pool_(std::make_unique<util::ThreadPool>(threads)) {}

  const PairingGroup& group() const noexcept { return *group_; }
  std::size_t threads() const noexcept { return pool_->size(); }

  /// Runs body(i) for every i in [0, n) across the pool (the caller helps).
  /// Bodies must write only to disjoint, pre-sized slots.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& body) const;

  /// Attaches telemetry: group op counters under "<prefix>.ops.*" and pool
  /// stats under "<prefix>.pool.*".
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix) const;

 private:
  const PairingGroup* group_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace seccloud::pairing
