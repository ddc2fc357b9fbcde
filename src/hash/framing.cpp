#include "hash/framing.h"

#include <algorithm>

#include "hash/sha256.h"

namespace seccloud::framing {
namespace {

constexpr std::uint8_t kMagic0 = 'S';
constexpr std::uint8_t kVersion = 1;

}  // namespace

void append_frame(Bytes& out, char tag, std::uint8_t type, std::uint32_t stream_id,
                  std::uint32_t seq, std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  out.push_back(kMagic0);
  out.push_back(static_cast<std::uint8_t>(tag));
  out.push_back(kVersion);
  out.push_back(type);
  put_le(out, stream_id);
  put_le(out, seq);
  put_le(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const hash::Digest digest =
      hash::Sha256::digest(std::span<const std::uint8_t>(out).subspan(start));
  out.insert(out.end(), digest.begin(), digest.begin() + kChecksumBytes);
}

std::optional<FrameView> decode_frame_view(std::span<const std::uint8_t> bytes, char tag,
                                           std::uint8_t last) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) return std::nullopt;
  if (bytes[0] != kMagic0 || bytes[1] != static_cast<std::uint8_t>(tag) ||
      bytes[2] != kVersion) {
    return std::nullopt;
  }
  FrameView view;
  view.type = bytes[3];
  if (view.type < 1 || view.type > last) return std::nullopt;
  view.stream_id = get_le<std::uint32_t>(bytes.data() + 4);
  view.seq = get_le<std::uint32_t>(bytes.data() + 8);
  const std::size_t len = get_le<std::uint32_t>(bytes.data() + 12);
  view.size = kHeaderBytes + len + kChecksumBytes;
  if (bytes.size() < view.size) return std::nullopt;
  const hash::Digest digest = hash::Sha256::digest(bytes.first(kHeaderBytes + len));
  if (!std::equal(digest.begin(), digest.begin() + kChecksumBytes,
                  bytes.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + len))) {
    return std::nullopt;
  }
  view.payload = bytes.subspan(kHeaderBytes, len);
  return view;
}

}  // namespace seccloud::framing
