#include "pairing/parallel.h"

#include <string>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace seccloud::pairing {

void ParallelPairingEngine::for_each(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  pool_->parallel_for(n, [&body](std::size_t begin, std::size_t end) {
    // Profiled per chunk, not per item: one span per worker slice keeps the
    // trace small while still attributing every crypto op the slice spends
    // to the thread that spent it (the profiler's per-thread mirror).
    obs::ProfileSpan chunk = obs::profile_span("pool_chunk");
    if (chunk) {
      chunk.arg("begin", std::to_string(begin));
      chunk.arg("end", std::to_string(end));
    }
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void ParallelPairingEngine::bind_metrics(obs::MetricsRegistry& registry,
                                         std::string_view prefix) const {
  const std::string p{prefix};
  group_->publish_to(registry, p + ".ops");
  pool_->bind_metrics(registry, p + ".pool");
}

}  // namespace seccloud::pairing
