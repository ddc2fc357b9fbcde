// Differential suite for the SHA-256 compression kernels (ctest label
// `differential`): the SHA-NI kernel against the portable FIPS 180-4 rounds
// on random states and block runs, and both kernels, padded by hand, against
// hash::Sha256 on whole messages of every length 0–300 and the FIPS 180-4
// vectors. Every input sits in an allocation of exactly its own size, so the
// sanitizer build, which keeps the SHA-NI kernel, catches any load past a
// message's last block. The SHA-NI half skips on CPUs without `sha`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bigint/rng.h"
#include "hash/sha256.h"
#include "hash/sha256_compress.h"

namespace seccloud {
namespace {

using hash::Digest;
using hash::Sha256;
using Kernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t) noexcept;

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::vector<std::uint8_t> random_bytes(num::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// The digest of `message` with FIPS 180-4 padding done here and every
/// block, message and padding alike, compressed by `kernel`.
Digest digest_with(Kernel kernel, std::span<const std::uint8_t> message) {
  std::array<std::uint32_t, 8> state = kInitialState;
  const std::size_t whole = message.size() / 64;
  if (whole != 0) kernel(state.data(), message.data(), whole);
  const std::size_t rest = message.size() - 64 * whole;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  std::vector<std::uint8_t> tail(64 * tail_blocks, 0);
  std::copy(message.begin() + static_cast<std::ptrdiff_t>(64 * whole), message.end(),
            tail.begin());
  tail[rest] = 0x80;
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail.size() - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  kernel(state.data(), tail.data(), tail_blocks);
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Sha256KernelDifferential, ShaNiMatchesPortableOnRandomBlockRuns) {
  if (!hash::detail::sha256_shani_supported()) GTEST_SKIP() << "CPU lacks the sha extension";
  num::Xoshiro256 rng{1805};
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    for (int trial = 0; trial < 16; ++trial) {
      const std::vector<std::uint8_t> data = random_bytes(rng, 64 * blocks);
      std::array<std::uint32_t, 8> portable;
      for (std::uint32_t& w : portable) w = static_cast<std::uint32_t>(rng.next_u64());
      std::array<std::uint32_t, 8> shani = portable;
      hash::detail::sha256_compress_portable(portable.data(), data.data(), blocks);
      hash::detail::sha256_compress_shani(shani.data(), data.data(), blocks);
      EXPECT_EQ(shani, portable) << blocks << " blocks, trial " << trial;
    }
  }
}

TEST(Sha256KernelDifferential, PortableKernelMatchesSha256OnEveryLengthTo300) {
  num::Xoshiro256 rng{1806};
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::vector<std::uint8_t> message = random_bytes(rng, len);
    EXPECT_EQ(digest_with(&hash::detail::sha256_compress_portable, message),
              Sha256::digest(message))
        << "len=" << len;
  }
}

TEST(Sha256KernelDifferential, ShaNiKernelMatchesSha256OnEveryLengthTo300) {
  if (!hash::detail::sha256_shani_supported()) GTEST_SKIP() << "CPU lacks the sha extension";
  num::Xoshiro256 rng{1806};
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::vector<std::uint8_t> message = random_bytes(rng, len);
    EXPECT_EQ(digest_with(&hash::detail::sha256_compress_shani, message),
              Sha256::digest(message))
        << "len=" << len;
  }
}

TEST(Sha256KernelDifferential, StreamedChunksMatchOneShot) {
  // update() hands whole runs of blocks to the kernel straight from the
  // caller's buffer and only the remainder to the internal one, so every
  // split of a message across calls must give the one-shot digest.
  num::Xoshiro256 rng{1807};
  const std::vector<std::uint8_t> message = random_bytes(rng, 300);
  const Digest expect = Sha256::digest(message);
  for (const std::size_t chunk : {1u, 7u, 63u, 64u, 65u, 128u, 191u}) {
    Sha256 h;
    for (std::size_t at = 0; at < message.size(); at += chunk) {
      const std::vector<std::uint8_t> piece(
          message.begin() + static_cast<std::ptrdiff_t>(at),
          message.begin() + static_cast<std::ptrdiff_t>(std::min(message.size(), at + chunk)));
      h.update(piece);
    }
    EXPECT_EQ(h.finish(), expect) << "chunk=" << chunk;
  }
}

/// The FIPS 180-4 example digests, the last one over a million 'a's.
std::vector<std::pair<std::string, const char*>> fips180_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

TEST(Sha256KernelDifferential, PortableKernelReproducesTheFips180Vectors) {
  for (const auto& [message, hex] : fips180_vectors()) {
    EXPECT_EQ(hash::to_hex(digest_with(&hash::detail::sha256_compress_portable,
                                       bytes_of(message))),
              hex);
  }
}

TEST(Sha256KernelDifferential, ShaNiKernelReproducesTheFips180Vectors) {
  if (!hash::detail::sha256_shani_supported()) GTEST_SKIP() << "CPU lacks the sha extension";
  for (const auto& [message, hex] : fips180_vectors()) {
    EXPECT_EQ(hash::to_hex(digest_with(&hash::detail::sha256_compress_shani, bytes_of(message))),
              hex);
  }
}

}  // namespace
}  // namespace seccloud
