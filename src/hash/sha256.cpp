#include "hash/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "hash/sha256_compress.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SECCLOUD_X86_SHA 1
#include <immintrin.h>
#endif

namespace seccloud::hash {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

using CompressKernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t) noexcept;

/// The kernel every Sha256 compresses through, chosen on first use. A
/// function-local static, so a hash taken during another translation unit's
/// static initialisation still finds it set.
CompressKernel compress_kernel() noexcept {
  static const CompressKernel kernel = detail::sha256_shani_supported()
                                           ? &detail::sha256_compress_shani
                                           : &detail::sha256_compress_portable;
  return kernel;
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept {
  for (; blocks != 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) w[static_cast<std::size_t>(i)] = load_be32(data + i * 4);
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(SECCLOUD_X86_SHA)

bool sha256_shani_supported() noexcept {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
         __builtin_cpu_supports("sse4.1");
}

/// Four rounds per SHA256RNDS2 pair over the state split as ABEF/CDGH, the
/// message schedule four words at a time through SHA256MSG1/MSG2:
///   W[4j..4j+3] = MSG2(MSG1(W[4j−16..], W[4j−12..]) + W[4j−7..4j−4], W[4j−4..])
__attribute__((target("sha,ssse3,sse4.1"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) noexcept {
  // Loads each 32-bit word big-endian.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < 16; ++j) {
      __m128i& cur = w[j & 3];
      if (j < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)), byte_swap);
      } else {
        const __m128i& prev = w[(j - 1) & 3];
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(j - 3) & 3]),
                          _mm_alignr_epi8(prev, w[(j - 2) & 3], 4)),
            prev);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * j])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool sha256_shani_supported() noexcept { return false; }

void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) noexcept {
  sha256_compress_portable(state, data, blocks);
}

#endif

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) noexcept {
  compress_kernel()(state_.data(), data, blocks);
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks != 0) {
    compress(data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finish() noexcept {
  // Padding: 0x80, zeros up to 56 mod 64, then the bit length big-endian.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  compress(buffer_.data(), 1);
  buffer_len_ = 0;
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::digest(std::span<const std::uint8_t> data) noexcept {
  return Sha256{}.update(data).finish();
}

Digest Sha256::digest(std::string_view data) noexcept {
  return Sha256{}.update(data).finish();
}

std::string to_hex(const Digest& d) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : d) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

}  // namespace seccloud::hash
