// Cost-attribution profiler riding the span tracer.
//
// A ProfileSpan is a trace span that snapshots the calling thread's
// cumulative crypto-op mirror (pairing::tls_op_counters) at begin and end,
// and attaches the delta — pairings, Miller loops, final exponentiations,
// point multiplications, GT exponentiations, hash-to-point evaluations — to
// the emitted TraceEvent as "ops.*" args. Every span in a trace then carries
// both wall time AND the exact crypto work its thread spent inside it; the
// per-thread mirror makes attribution immune to concurrent workers (each
// worker's chunk span accounts its own ops).
//
// Profile aggregates a finished trace's span tree into call-path statistics:
// inclusive / exclusive (self) time and op counts per path, where a span's
// parent is the enclosing span on the same thread (cross-thread children —
// pool chunks — root their own paths on their thread). Exports:
//   * to_collapsed()   — collapsed-stack flamegraph text ("a;b;c <self_us>"),
//     loadable by flamegraph.pl / speedscope / inferno;
//   * to_json(costs)   — paths, per-phase (leaf-name) aggregates, and a
//     predicted_vs_measured section pricing each phase's op counts with
//     Table I latencies, validating the Eq. 18 cost model empirically.
//
// Overhead when no tracer is installed: one branch (the inert-Span path) —
// the op mirror snapshot is skipped entirely.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "pairing/op_counters.h"

namespace seccloud::obs {

class JsonWriter;  // export.h

/// Span arg keys under which ProfileSpan records its op-count delta (only
/// nonzero fields are attached; absent means zero). The one list of
/// OpCounters fields every trace and JSON writer iterates.
inline constexpr std::array<std::string_view, 8> kOpArgNames = {
    "ops.pairings",   "ops.miller_loops",   "ops.final_exps", "ops.point_muls",
    "ops.gt_exps",    "ops.hash_to_points", "ops.msm_terms",  "ops.gt_msm_terms"};

/// Writes `ops` as one JSON object keyed by kOpArgNames without the "ops."
/// prefix, in that order.
void write_op_counters(JsonWriter& w, const pairing::OpCounters& ops);

/// RAII profiled span: a trace span plus the begin snapshot of the calling
/// thread's op mirror. Inert (zero work) when no tracer is installed.
class ProfileSpan {
 public:
  ProfileSpan() = default;
  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;
  ProfileSpan(ProfileSpan&&) = default;
  ProfileSpan& operator=(ProfileSpan&& other) noexcept {
    if (this != &other) {
      end();
      span_ = std::move(other.span_);
      begin_ = other.begin_;
    }
    return *this;
  }
  ~ProfileSpan() { end(); }

  /// Attaches a key/value annotation (forwarded to the underlying span).
  void arg(std::string key, std::string value) { span_.arg(std::move(key), std::move(value)); }
  /// Ends the span now: computes the op delta, attaches the "ops.*" args,
  /// and emits the TraceEvent. Idempotent.
  void end();
  explicit operator bool() const noexcept { return static_cast<bool>(span_); }

 private:
  friend ProfileSpan profile_span(std::string name);

  Span span_;
  pairing::OpCounters begin_;
};

/// Profiled span on the current tracer; inert no-op when none installed.
ProfileSpan profile_span(std::string name);

// --- aggregation ------------------------------------------------------------

/// Aggregated statistics for one call path ("root;child;leaf", frames joined
/// with ';'). Times are in the tracer's unit (µs for the steady clock, ticks
/// for the deterministic clock).
struct PathStats {
  std::string path;
  std::uint64_t count = 0;      ///< span occurrences on this path
  std::uint64_t incl_time = 0;  ///< total span durations
  std::uint64_t excl_time = 0;  ///< durations minus same-thread children
  pairing::OpCounters incl_ops;  ///< op deltas (include same-thread children)
  pairing::OpCounters excl_ops;  ///< op deltas minus same-thread children

  bool operator==(const PathStats&) const = default;
};

/// Per-phase aggregate: every occurrence of one span name, at any depth.
struct PhaseStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t incl_time = 0;
  std::uint64_t excl_time = 0;
  pairing::OpCounters incl_ops;
  pairing::OpCounters excl_ops;

  bool operator==(const PhaseStats&) const = default;
};

/// Per-operation latencies used to price an op-count vector in milliseconds.
/// Defaults are the paper's Table I numbers (MIRACL, Core 2 Duo E6550):
/// T_mult = 0.86 ms and T_pair = 4.14 ms, with the pairing split into its
/// Miller loop (~3/4) and final exponentiation (~1/4) so pair_product's
/// shared final exponentiation prices correctly; hash-to-G1 and GT
/// exponentiation are modeled at one T_mult each (cofactor clearing /
/// comparable bit length). Pricing sums miller_loops, final_exps,
/// point_muls, gt_exps and hash_to_points — NOT the derived `pairings`
/// counter, which would double-count a full pair() evaluation.
struct CostTable {
  double point_mul_ms = 0.86;
  double miller_loop_ms = 3.105;
  double final_exp_ms = 1.035;
  double gt_exp_ms = 0.86;
  double hash_to_point_ms = 0.86;

  static CostTable paper_table1() noexcept { return CostTable{}; }

  /// Predicted milliseconds for `ops` under this table.
  double predict_ms(const pairing::OpCounters& ops) const noexcept;
};

/// Call-path profile aggregated from a finished trace.
class Profile {
 public:
  /// Builds the profile from trace events. Accepts either the sorted output
  /// of Tracer::events() or an arbitrary order (re-sorted internally).
  /// Instant events are ignored; nesting is reconstructed per thread from
  /// the recorded depths.
  static Profile from_events(std::span<const TraceEvent> events);
  static Profile from_tracer(const Tracer& tracer);

  /// Paths sorted lexicographically (byte-stable output across runs).
  const std::vector<PathStats>& paths() const noexcept { return paths_; }

  /// Aggregates by span (leaf) name, sorted by name — the audit phases.
  std::vector<PhaseStats> phases() const;

  /// Sum of exclusive op counts over every path == every op attributed to
  /// some span in the trace, each counted exactly once.
  pairing::OpCounters total_ops() const noexcept;
  /// Sum of exclusive time over every path.
  std::uint64_t total_time() const noexcept;

  /// Collapsed-stack flamegraph text: one "frame;frame;frame weight" line
  /// per path, weighted by exclusive time. Paths with zero exclusive weight
  /// are kept (weight 0) so op-only frames remain visible to tooling that
  /// re-weights by an ops column.
  std::string to_collapsed() const;

  /// JSON document: {"paths": [...], "phases": [...]} plus, when `costs` is
  /// non-null, "predicted_vs_measured": per-phase measured wall ms vs the
  /// cost-table prediction of its inclusive op counts. measured_ms assumes
  /// the steady (µs) clock; under the deterministic clock it is tick-based
  /// and only the op counts are meaningful.
  std::string to_json(const CostTable* costs = nullptr) const;

  bool operator==(const Profile&) const = default;

 private:
  std::vector<PathStats> paths_;
};

}  // namespace seccloud::obs
