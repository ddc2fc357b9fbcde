// Reference divide-and-conquer isolation for the bisection suites: a boolean
// range oracle checked on the whole batch first and then on *both* halves of
// every failing range, split at mid = lo + (hi − lo)/2, left first. It shares
// nothing with ibc::BatchAccumulator::isolate's derived walk, which must
// return the same indices and the same max_depth.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "ibc/dvs.h"

namespace seccloud::reference {

/// `range_valid(lo, hi)` must be monotone: a range with no invalid member
/// reports valid. Every call counts one oracle call.
using RangeOracle = std::function<bool(std::size_t, std::size_t)>;

inline void bisect_range(std::size_t lo, std::size_t hi, std::size_t depth,
                         const RangeOracle& range_valid, std::vector<std::size_t>& out,
                         ibc::BisectionStats& stats) {
  stats.max_depth = std::max(stats.max_depth, depth);
  ++stats.oracle_calls;
  if (range_valid(lo, hi)) return;
  if (hi - lo == 1) {
    out.push_back(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  bisect_range(lo, mid, depth + 1, range_valid, out, stats);
  bisect_range(mid, hi, depth + 1, range_valid, out, stats);
}

/// The invalid members of [0, n), ascending.
inline std::vector<std::size_t> bisect_invalid(std::size_t n, const RangeOracle& range_valid,
                                               ibc::BisectionStats* stats = nullptr) {
  ibc::BisectionStats local;
  std::vector<std::size_t> invalid;
  if (n > 0) bisect_range(0, n, 0, range_valid, invalid, stats != nullptr ? *stats : local);
  return invalid;
}

}  // namespace seccloud::reference
