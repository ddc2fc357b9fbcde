#include "bigint/wnaf.h"

#include <algorithm>

namespace seccloud::num {

std::vector<std::int8_t> wnaf4_digits(const BigUint& k) {
  constexpr std::size_t kWidth = kWnafWidth;
  const std::size_t len = k.bit_length() + 1;  // the top position absorbs the last carry
  const auto bits_at = [&k](std::size_t pos, std::size_t count) {
    const std::size_t limb = pos / 64;
    const std::size_t shift = pos % 64;
    std::uint64_t word = k.limb(limb) >> shift;
    if (shift + count > 64) word |= k.limb(limb + 1) << (64 - shift);
    return static_cast<int>(word & ((std::uint64_t{1} << count) - 1));
  };
  std::vector<std::int8_t> digits(len, 0);
  int carry = 0;
  for (std::size_t pos = 0; pos < len;) {
    if (bits_at(pos, 1) == carry) {  // bit + carry is even: a zero digit
      ++pos;
      continue;
    }
    const std::size_t count = std::min(kWidth, len - pos);
    int word = bits_at(pos, count) + carry;
    carry = (word >> (kWidth - 1)) & 1;
    word -= carry << kWidth;
    digits[pos] = static_cast<std::int8_t>(word);
    pos += count;
  }
  return digits;
}

std::vector<std::vector<std::int8_t>> wnaf4_rows(const BigUint& k, std::size_t row_bits,
                                                 std::size_t rows) {
  const std::vector<std::int8_t> digits = wnaf4_digits(k);
  std::vector<std::vector<std::int8_t>> out(rows);
  for (std::size_t j = 0; j < rows && j * row_bits < digits.size(); ++j) {
    const std::size_t end = j + 1 == rows ? digits.size()
                                          : std::min(digits.size(), (j + 1) * row_bits);
    out[j].assign(digits.begin() + static_cast<std::ptrdiff_t>(j * row_bits),
                  digits.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

}  // namespace seccloud::num
