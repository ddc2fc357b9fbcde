// SHA-256 (FIPS 180-4). Streaming and one-shot interfaces. Blocks are
// compressed by a SHA-NI kernel when the CPU has one, else by the portable
// rounds (hash/sha256_compress.h).
//
// This is the hash H used throughout the SecCloud protocol: block-tag
// hashing H2(U‖m), Merkle tree nodes Ω(V)=H(Ω(l)‖Ω(r)), hash-to-Zq, and the
// try-and-increment hash-to-curve H1.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace seccloud::hash {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  Sha256& update(std::string_view data) noexcept;
  /// Finalizes and returns the digest. The object must be reset() before reuse.
  Digest finish() noexcept;

  /// One-shot convenience.
  static Digest digest(std::span<const std::uint8_t> data) noexcept;
  static Digest digest(std::string_view data) noexcept;

 private:
  /// Compresses `blocks` whole 64-byte blocks at `data` into state_, on the
  /// kernel picked once per process (see sha256_compress.h).
  void compress(const std::uint8_t* data, std::size_t blocks) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffer_len_ = 0;
};

/// Hex encoding of a digest (lowercase, 64 chars).
std::string to_hex(const Digest& d);

}  // namespace seccloud::hash
