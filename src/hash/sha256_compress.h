// SHA-256 compression kernels behind hash::Sha256 (library-internal).
//
// Sha256 feeds whole runs of 64-byte blocks to one of two kernels, chosen
// once per process: the SHA-NI kernel when the CPU reports the `sha`
// extension (with SSSE3 and SSE4.1, which every such CPU has), otherwise the
// portable FIPS 180-4 rounds. The portable kernel is also the oracle the
// differential suite (tests/sha256_kernel_test.cpp) checks the SHA-NI kernel
// against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace seccloud::hash::detail {

/// Compresses `blocks` consecutive 64-byte blocks at `data` into the eight
/// working words `state` (a..h), with the portable FIPS 180-4 rounds.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// True iff sha256_compress_shani may run on this CPU.
bool sha256_shani_supported() noexcept;

/// The same compression through the SHA-NI instructions. Call it only when
/// sha256_shani_supported(); on builds without the x86 kernel it runs the
/// portable rounds.
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) noexcept;

}  // namespace seccloud::hash::detail
