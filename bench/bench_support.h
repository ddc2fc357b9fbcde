// Shared bench harness: every bench/* binary funnels through a Bench object
// that (a) exposes the smoke-mode knob CI uses to run the full suite in
// seconds, (b) collects named result values next to the process-wide metrics
// registry, and (c) writes a machine-readable BENCH_<name>.json —
// build metadata, wall time, bench-specific values, and the full metrics
// snapshot (op counters, latency percentiles, pool stats) — plus a
// TRACE_<name>.json in Chrome trace-event format when tracing is enabled.
// The JSON is byte-stable given identical measurements, so runs diff cleanly.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "pairing/group.h"
#include "pairing/parallel.h"

// Build provenance stamped into every BENCH_<name>.json header so committed
// baselines stay traceable to the commit and toolchain that produced them.
// The CMake bench target definitions supply real values; the fallbacks keep
// out-of-tree compiles working.
#ifndef SECCLOUD_GIT_SHA
#define SECCLOUD_GIT_SHA "unknown"
#endif
#ifndef SECCLOUD_SANITIZE_FLAGS
#define SECCLOUD_SANITIZE_FLAGS "none"
#endif

namespace seccloud::bench {

/// CI smoke knob: SECCLOUD_BENCH_SMOKE=1 shrinks every bench's workload so
/// the whole suite runs in seconds while still exercising the full pipeline
/// (and still producing valid BENCH_*.json files).
inline bool smoke_mode() {
  const char* env = std::getenv("SECCLOUD_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

template <typename T>
T scaled(T normal, T smoke) {
  return smoke_mode() ? smoke : normal;
}

/// Console reporter that also keeps each benchmark's mean wall time per
/// iteration, in milliseconds, by benchmark name.
class WallTimeReporter : public benchmark::ConsoleReporter {
 public:
  explicit WallTimeReporter(std::map<std::string, double>& out) : out_(&out) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred || run.iterations == 0) {
        continue;
      }
      (*out_)[run.benchmark_name()] =
          run.real_accumulated_time * 1e3 / static_cast<double>(run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::map<std::string, double>* out_;
};

/// Google Benchmark entry point with the smoke scaling applied: appends
/// --benchmark_min_time=0.01 (1.7-era plain-seconds syntax) in smoke mode
/// unless the caller already passed one. With `wall_ms`, also returns each
/// benchmark's mean wall time per iteration (console output only).
inline void run_gbench(int argc, char** argv, std::map<std::string, double>* wall_ms = nullptr) {
  std::vector<char*> args(argv, argv + argc);
  static char min_time[] = "--benchmark_min_time=0.01";
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
      has_min_time = true;
    }
  }
  if (smoke_mode() && !has_min_time) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (wall_ms != nullptr) {
    WallTimeReporter reporter{*wall_ms};
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
}

class Bench {
 public:
  explicit Bench(std::string name)
      : name_(std::move(name)), begin_(std::chrono::steady_clock::now()) {}

  const std::string& name() const noexcept { return name_; }

  /// Publishes `group`'s lifetime op counters (pairings, exponentiations,
  /// hash-to-point, ...) into the default registry under "<prefix>.*" and
  /// marks the bench as pairing-backed (the CI smoke checker then insists on
  /// a nonzero pairing count).
  void use_group(const pairing::PairingGroup& group, std::string prefix = "pairing") {
    group.publish_to(obs::default_registry(), std::move(prefix));
    uses_pairing_ = true;
  }

  /// Full engine telemetry: group op counters and pool stats (tasks, steals,
  /// queue depth, per-task latency).
  void use_engine(const pairing::ParallelPairingEngine& engine,
                  std::string_view prefix = "engine") {
    engine.bind_metrics(obs::default_registry(), prefix);
    uses_pairing_ = true;
  }

  /// Records a named numeric result (times, counts, ratios) for the JSON.
  void value(std::string key, double v) { values_[std::move(key)] = v; }
  /// Records a named string annotation (units, modes, parameter sets).
  void note(std::string key, std::string v) { notes_[std::move(key)] = std::move(v); }
  /// The bench's key result, spliced into the one-line "[bench] wrote ..."
  /// digest so every bench's headline number greps out of a CI log the same
  /// way (e.g. "pairings/batch=2.00").
  void headline(std::string text) { headline_ = std::move(text); }

  /// Installs a tracer as the process-wide current tracer; finish() then
  /// also writes TRACE_<name>.json (Chrome trace-event format).
  obs::Tracer& enable_tracing(obs::Tracer::Clock clock = obs::Tracer::Clock::kSteady) {
    if (!tracer_) {
      tracer_ = std::make_unique<obs::Tracer>(clock);
      scope_ = std::make_unique<obs::TracerScope>(tracer_.get());
    }
    return *tracer_;
  }

  /// Writes BENCH_<name>.json (and the trace file, when enabled), prints the
  /// one-line metrics digest, and returns 0 — `return bench.finish();`.
  int finish() {
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - begin_;
    const obs::MetricsSnapshot snap = obs::default_registry().snapshot();

    obs::JsonWriter w;
    w.begin_object();
    w.key("name").value(name_);
    w.key("smoke").value(smoke_mode());
    w.key("uses_pairing_group").value(uses_pairing_);
    w.key("wall_ms").value(wall.count());
    w.key("build").begin_object();
    w.key("compiler").value(std::string_view{__VERSION__});
#ifdef NDEBUG
    w.key("build_type").value("release");
#else
    w.key("build_type").value("debug");
#endif
    w.key("git_sha").value(std::string_view{SECCLOUD_GIT_SHA});
    w.key("sanitizers").value(std::string_view{SECCLOUD_SANITIZE_FLAGS});
    w.key("cpp_standard").value(static_cast<std::int64_t>(__cplusplus));
    w.key("pointer_bits").value(static_cast<std::uint64_t>(8 * sizeof(void*)));
    w.end_object();
    w.key("values").begin_object();
    for (const auto& [key, v] : values_) w.key(key).value(v);
    w.end_object();
    w.key("notes").begin_object();
    for (const auto& [key, v] : notes_) w.key(key).value(v);
    w.end_object();
    // Thread-pool stats pulled out of the snapshot for quick inspection
    // (the full histograms stay inside "metrics").
    w.key("pool_stats").begin_object();
    for (const auto& [key, v] : snap.counters) {
      if (key.find("pool.") != std::string::npos) w.key(key).value(v);
    }
    for (const auto& [key, g] : snap.gauges) {
      if (key.find("pool.") != std::string::npos) {
        w.key(key + ".max").value(g.max);
      }
    }
    for (const auto& [key, h] : snap.histograms) {
      if (key.find("pool.") != std::string::npos) {
        w.key(key + ".p50").value(h.percentile(0.50));
        w.key(key + ".p95").value(h.percentile(0.95));
        w.key(key + ".p99").value(h.percentile(0.99));
      }
    }
    w.end_object();
    w.key("metrics").raw(obs::metrics_to_json(snap));
    w.end_object();

    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream(path) << std::move(w).str() << '\n';
    std::printf("[bench] wrote %s | %s%s%s\n", path.c_str(),
                headline_.empty() ? "" : headline_.c_str(),
                headline_.empty() ? "" : " | ", obs::summary_line(snap).c_str());

    // OpenMetrics exposition of the same snapshot, for scrape-style tooling.
    const std::string prom_path = "METRICS_" + name_ + ".prom";
    std::ofstream(prom_path) << obs::metrics_to_openmetrics(snap);

    if (tracer_) {
      scope_.reset();  // stop capturing before export
      const std::string trace_path = "TRACE_" + name_ + ".json";
      std::ofstream(trace_path) << tracer_->to_chrome_json() << '\n';
      std::printf("[bench] wrote %s (%zu events)\n", trace_path.c_str(), tracer_->size());

      // Cost-attribution views of the trace: a collapsed-stack file any
      // flamegraph renderer accepts, and the aggregated call-path profile
      // with the paper's Table I cost model applied per phase.
      const obs::Profile profile = obs::Profile::from_events(tracer_->events());
      const std::string flame_path = "FLAME_" + name_ + ".txt";
      std::ofstream(flame_path) << profile.to_collapsed();
      const obs::CostTable costs = obs::CostTable::paper_table1();
      const std::string profile_path = "PROFILE_" + name_ + ".json";
      std::ofstream(profile_path) << profile.to_json(&costs) << '\n';
      std::printf("[bench] wrote %s, %s (%zu paths)\n", flame_path.c_str(),
                  profile_path.c_str(), profile.paths().size());
    }
    return 0;
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point begin_;
  bool uses_pairing_ = false;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
  std::string headline_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::TracerScope> scope_;
};

}  // namespace seccloud::bench
