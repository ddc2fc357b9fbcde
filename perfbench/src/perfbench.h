// The repository benchmark: named closed-loop workloads driven through the
// public SecCloud APIs, with ground-truth verdict checks, end-to-end metrics
// (untraced run) and per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t { kFleetHonest, kFleetAdversarial, kIngestAudit };

std::optional<Workload> parse_workload(std::string_view name);
const char* to_string(Workload workload) noexcept;

struct Options {
  Workload workload = Workload::kFleetHonest;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Off: end-to-end metrics. On: per-layer metrics from spans the benchmark
  /// records around its own calls into each module.
  bool trace = false;
  /// Tiny group and shape, for the test suite's smoke runs.
  bool smoke = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  std::uint64_t attempted = 0;  ///< operations given to the system
  std::uint64_t failed = 0;     ///< operations with a wrong or missing verdict
  std::string input_digest;     ///< SHA-256 of the seed-derived request stream
  std::vector<Metric> metrics;
  std::vector<std::string> log;  ///< human-readable lines (shape, samples, extras)

  const Metric* find(std::string_view name) const;
};

Result run_workload(const Options& options);

/// The result as one JSON object: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result);

}  // namespace perfbench
