// Expensive-operation accounting, shared by the serial and atomic paths.
//
// OpCountersT<T> is one aggregate template instantiated twice:
//   * OpCounters       — OpCountersT<std::uint64_t>, the snapshot/value type
//     the benches, audit reports and tests exchange (supports designated
//     initializers, aggregate comparison, +/-);
//   * AtomicOpCounters — OpCountersT<std::atomic<std::uint64_t>>, the hot
//     accumulator PairingGroup bumps with relaxed atomics so concurrent
//     verification workers contribute exact totals.
// A single field list means the two can never drift apart again.
#pragma once

#include <atomic>
#include <cstdint>

namespace seccloud::pairing {

template <typename T>
struct OpCountersT {
  T pairings{};       ///< full pair() evaluations
  T miller_loops{};   ///< Miller loops (pair_product shares one final exp)
  T final_exps{};
  T point_muls{};     ///< standalone scalar multiplications (mul)
  T gt_exps{};
  T hash_to_points{}; ///< hash-to-G1 evaluations (H1 in the paper)
  T msm_terms{};      ///< nonzero-scalar terms of G1 multi-scalar multiplications
  T gt_msm_terms{};   ///< nonzero-exponent terms of GT multi-exponentiations

  bool operator==(const OpCountersT&) const = default;
};

using OpCounters = OpCountersT<std::uint64_t>;
using AtomicOpCounters = OpCountersT<std::atomic<std::uint64_t>>;

/// Relaxed-load snapshot of an atomic accumulator.
inline OpCounters snapshot(const AtomicOpCounters& a) noexcept {
  OpCounters out;
  out.pairings = a.pairings.load(std::memory_order_relaxed);
  out.miller_loops = a.miller_loops.load(std::memory_order_relaxed);
  out.final_exps = a.final_exps.load(std::memory_order_relaxed);
  out.point_muls = a.point_muls.load(std::memory_order_relaxed);
  out.gt_exps = a.gt_exps.load(std::memory_order_relaxed);
  out.hash_to_points = a.hash_to_points.load(std::memory_order_relaxed);
  out.msm_terms = a.msm_terms.load(std::memory_order_relaxed);
  out.gt_msm_terms = a.gt_msm_terms.load(std::memory_order_relaxed);
  return out;
}

/// Relaxed fetch_add of a delta into an atomic accumulator.
inline void accumulate(AtomicOpCounters& a, const OpCounters& d) noexcept {
  a.pairings.fetch_add(d.pairings, std::memory_order_relaxed);
  a.miller_loops.fetch_add(d.miller_loops, std::memory_order_relaxed);
  a.final_exps.fetch_add(d.final_exps, std::memory_order_relaxed);
  a.point_muls.fetch_add(d.point_muls, std::memory_order_relaxed);
  a.gt_exps.fetch_add(d.gt_exps, std::memory_order_relaxed);
  a.hash_to_points.fetch_add(d.hash_to_points, std::memory_order_relaxed);
  a.msm_terms.fetch_add(d.msm_terms, std::memory_order_relaxed);
  a.gt_msm_terms.fetch_add(d.gt_msm_terms, std::memory_order_relaxed);
}

/// Relaxed store of a value into an atomic accumulator.
inline void store(AtomicOpCounters& a, const OpCounters& v) noexcept {
  a.pairings.store(v.pairings, std::memory_order_relaxed);
  a.miller_loops.store(v.miller_loops, std::memory_order_relaxed);
  a.final_exps.store(v.final_exps, std::memory_order_relaxed);
  a.point_muls.store(v.point_muls, std::memory_order_relaxed);
  a.gt_exps.store(v.gt_exps, std::memory_order_relaxed);
  a.hash_to_points.store(v.hash_to_points, std::memory_order_relaxed);
  a.msm_terms.store(v.msm_terms, std::memory_order_relaxed);
  a.gt_msm_terms.store(v.gt_msm_terms, std::memory_order_relaxed);
}

inline OpCounters& operator+=(OpCounters& a, const OpCounters& b) noexcept {
  a.pairings += b.pairings;
  a.miller_loops += b.miller_loops;
  a.final_exps += b.final_exps;
  a.point_muls += b.point_muls;
  a.gt_exps += b.gt_exps;
  a.hash_to_points += b.hash_to_points;
  a.msm_terms += b.msm_terms;
  a.gt_msm_terms += b.gt_msm_terms;
  return a;
}

inline OpCounters operator+(OpCounters a, const OpCounters& b) noexcept {
  a += b;
  return a;
}

inline OpCounters operator-(OpCounters a, const OpCounters& b) noexcept {
  a.pairings -= b.pairings;
  a.miller_loops -= b.miller_loops;
  a.final_exps -= b.final_exps;
  a.point_muls -= b.point_muls;
  a.gt_exps -= b.gt_exps;
  a.hash_to_points -= b.hash_to_points;
  a.msm_terms -= b.msm_terms;
  a.gt_msm_terms -= b.gt_msm_terms;
  return a;
}

/// Per-thread mirror of every counter bump, cumulative for the thread's
/// lifetime and never reset. Unlike the group's shared atomic accumulator, a
/// begin/end delta of this mirror attributes exactly the ops the *calling*
/// thread performed in between — concurrent workers cannot pollute it — which
/// is what the obs profiler uses to tag each trace span with the crypto work
/// it spent (see obs/profiler.h). A plain uint64 increment per op keeps the
/// hot path as cheap as the relaxed fetch_add next to it.
inline OpCounters& tls_op_counters() noexcept {
  thread_local OpCounters mirror;
  return mirror;
}

}  // namespace seccloud::pairing
