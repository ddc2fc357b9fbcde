// Signed-window (wNAF) recoding of exponents, shared by the G1 Straus kernel
// (ec/curve.cpp) and the GT multi-exponentiation (pairing/group.cpp): both
// walk the digits most-significant first over tables of odd multiples or odd
// powers, and take a negative digit as the negated point or the conjugate.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/biguint.h"

namespace seccloud::num {

/// Width of wnaf4_digits' window: odd digits in [−(2^(w−1) − 1), 2^(w−1) − 1].
inline constexpr std::size_t kWnafWidth = 4;

/// Width-4 signed-window recoding of k, least-significant digit first:
/// odd digits in [−7, 7], at most one nonzero in any 4 consecutive
/// positions, bit_length(k) + 1 digits (the top one absorbs the last carry).
/// Reads the limbs directly instead of shifting a BigUint copy.
std::vector<std::int8_t> wnaf4_digits(const BigUint& k);

/// k's wnaf4_digits dealt into `rows` rows of `row_bits` positions, for the
/// fixed-base tables: digit i goes to row i / row_bits at position
/// i % row_bits, and the last row also keeps the digits above it, so
/// k = Σ_j 2^(row_bits·j)·Σ_i row_j[i]·2^i. For k < 2^(row_bits·rows) the
/// last row holds at most row_bits + 1 digits (the top one the last carry).
std::vector<std::vector<std::int8_t>> wnaf4_rows(const BigUint& k, std::size_t row_bits,
                                                 std::size_t rows);

}  // namespace seccloud::num
