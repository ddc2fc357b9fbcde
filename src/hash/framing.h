// Checksummed record framing: the one byte format behind the DA↔CS channel
// ('S','C'), the session journal ('S','J'), fleet telemetry and the verdict
// ledger ('S','T'), and request journeys ('S','Y') — DESIGN.md §8.
//
//   'S' ‖ tag ‖ version ‖ type ‖ stream_id ‖ seq ‖ len ‖ payload ‖ SHA-256[:8]
//
// stream_id, seq and len are little-endian u32; the checksum is the first 8
// bytes of SHA-256 over everything before it. A stream is only its tag and
// its valid types 1..last, so a frame never decodes under another stream's
// format. The decoder is total and prefix-tolerant: it reads the frame at
// the head of a span, and any truncation, foreign magic, out-of-range type
// or checksum mismatch yields nullopt. Replay walks a stream up to the first
// frame that does not decode; that torn tail never invalidates the prefix.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace seccloud::framing {

using Bytes = std::vector<std::uint8_t>;

// --- little-endian integers --------------------------------------------------

template <std::unsigned_integral T>
inline std::array<std::uint8_t, sizeof(T)> le_bytes(T v) noexcept {
  std::array<std::uint8_t, sizeof(T)> out{};
  for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

template <std::unsigned_integral T>
inline void put_le(Bytes& out, T v) {
  const auto bytes = le_bytes(v);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// Reads a T from the sizeof(T) bytes at `p`.
template <std::unsigned_integral T>
inline T get_le(const std::uint8_t* p) noexcept {
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) v = static_cast<T>((v << 8) | p[i]);
  return v;
}

// --- the untyped codec -------------------------------------------------------

inline constexpr std::size_t kHeaderBytes = 16;  ///< magic‖version‖type‖stream_id‖seq‖len
inline constexpr std::size_t kChecksumBytes = 8;  ///< SHA-256 prefix

/// The frame at the head of a span: header fields, the payload (a view into
/// the span), and the frame's total size in bytes.
struct FrameView {
  std::uint8_t type = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> payload;
  std::size_t size = 0;
};

/// Appends one frame under magic 'S'‖tag to `out`.
void append_frame(Bytes& out, char tag, std::uint8_t type, std::uint32_t stream_id,
                  std::uint32_t seq, std::span<const std::uint8_t> payload);

/// Decodes the frame at the head of `bytes`: nullopt unless it carries magic
/// 'S'‖tag, the current version, a type in 1..last, a length that fits, and
/// a matching checksum. Bytes after the frame are not looked at.
std::optional<FrameView> decode_frame_view(std::span<const std::uint8_t> bytes, char tag,
                                           std::uint8_t last);

// --- one stream's typed view -------------------------------------------------

/// A decoded frame with its stream's type enum (defaulting to type 1).
template <class Type>
struct Frame {
  Type type = static_cast<Type>(1);
  std::uint32_t stream_id = 0;
  std::uint32_t seq = 0;
  Bytes payload;

  bool operator==(const Frame&) const = default;
};

/// Every intact frame of a stream in order. `clean_bytes` is how far the
/// intact prefix reaches; `torn_tail` says something after it did not decode.
template <class Type>
struct Replay {
  std::vector<Frame<Type>> frames;
  bool torn_tail = false;
  std::size_t clean_bytes = 0;
};

/// One stream's framing: magic 'S'‖tag and valid types 1..last.
template <class Type>
struct Format {
  char tag;
  Type last;

  Bytes encode(Type type, std::uint32_t stream_id, std::uint32_t seq,
               std::span<const std::uint8_t> payload) const {
    Bytes out;
    out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
    append_frame(out, tag, static_cast<std::uint8_t>(type), stream_id, seq, payload);
    return out;
  }

  /// The frame at the head of `bytes`; `consumed` receives its size.
  std::optional<Frame<Type>> decode(std::span<const std::uint8_t> bytes,
                                    std::size_t* consumed = nullptr) const {
    const auto view = decode_frame_view(bytes, tag, static_cast<std::uint8_t>(last));
    if (!view) return std::nullopt;
    if (consumed != nullptr) *consumed = view->size;
    return Frame<Type>{static_cast<Type>(view->type), view->stream_id, view->seq,
                       Bytes(view->payload.begin(), view->payload.end())};
  }

  Replay<Type> replay(std::span<const std::uint8_t> bytes) const {
    Replay<Type> out;
    while (out.clean_bytes < bytes.size()) {
      std::size_t consumed = 0;
      auto frame = decode(bytes.subspan(out.clean_bytes), &consumed);
      if (!frame) {
        out.torn_tail = true;
        break;
      }
      out.frames.push_back(std::move(*frame));
      out.clean_bytes += consumed;
    }
    return out;
  }
};

/// An append-only stream of frames under one stream id, numbered 0, 1, ….
template <class Type>
class Writer {
 public:
  Writer(Format<Type> format, std::uint32_t stream_id) noexcept
      : format_(format), stream_id_(stream_id) {}

  void append(Type type, std::span<const std::uint8_t> payload) {
    append_frame(bytes_, format_.tag, static_cast<std::uint8_t>(type), stream_id_, seq_++,
                 payload);
  }

  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }
  /// Frames appended so far (the next frame's seq).
  std::uint32_t seq() const noexcept { return seq_; }

 private:
  Format<Type> format_;
  std::uint32_t stream_id_;
  std::uint32_t seq_ = 0;
  Bytes bytes_;
};

}  // namespace seccloud::framing
