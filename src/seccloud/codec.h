// Wire codecs for every protocol message.
//
// The simulator can meter real serialized bytes (not estimates), and the
// library is usable over an actual transport. Format: little-endian
// fixed-width integers, length-prefixed variable fields, fixed-width group
// elements (uncompressed points, two field elements per GT value).
// Decoders are total: any malformed input yields std::nullopt, never UB.
#pragma once

#include <optional>

#include "hash/framing.h"
#include "seccloud/types.h"

namespace seccloud::core {

using pairing::PairingGroup;

/// Incremental little-endian writer.
class Encoder {
 public:
  explicit Encoder(const PairingGroup& group) : group_(&group) {}

  void put_u8(std::uint8_t v) { out_.push_back(v); }
  void put_u32(std::uint32_t v) { framing::put_le(out_, v); }
  void put_u64(std::uint64_t v) { framing::put_le(out_, v); }
  void put_bytes(std::span<const std::uint8_t> data);          ///< raw, no length
  void put_var_bytes(std::span<const std::uint8_t> data);      ///< u32 length prefix
  void put_string(std::string_view s);
  void put_point(const Point& p);    ///< fixed width: 1 + 2·|p| bytes
  void put_gt(const Gt& v);          ///< fixed width: 2·|p| bytes
  void put_digest(const merkle::Digest& d);

  Bytes take() && { return std::move(out_); }
  const Bytes& bytes() const noexcept { return out_; }

 private:
  const PairingGroup* group_;
  Bytes out_;
};

/// Cursor-based reader; every getter returns nullopt on truncation or
/// malformed content and leaves the cursor unspecified afterwards.
class Decoder {
 public:
  Decoder(const PairingGroup& group, std::span<const std::uint8_t> data)
      : group_(&group), data_(data) {}

  std::optional<std::uint8_t> get_u8();
  std::optional<std::uint32_t> get_u32();
  std::optional<std::uint64_t> get_u64();
  std::optional<Bytes> get_var_bytes(std::size_t max_len = 1u << 24);
  std::optional<std::string> get_string(std::size_t max_len = 1u << 16);
  std::optional<Point> get_point();
  std::optional<Gt> get_gt();
  std::optional<merkle::Digest> get_digest();

  bool exhausted() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::optional<std::span<const std::uint8_t>> take(std::size_t n);

  const PairingGroup* group_;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- message codecs -----------------------------------------------------
// encode_x is total; decode_x returns nullopt on any malformed input and
// requires the input to be fully consumed.

Bytes encode_signed_block(const PairingGroup& group, const SignedBlock& sb);
std::optional<SignedBlock> decode_signed_block(const PairingGroup& group,
                                               std::span<const std::uint8_t> data);

Bytes encode_task(const PairingGroup& group, const ComputationTask& task);
std::optional<ComputationTask> decode_task(const PairingGroup& group,
                                           std::span<const std::uint8_t> data);

Bytes encode_commitment(const PairingGroup& group, const Commitment& commitment);
std::optional<Commitment> decode_commitment(const PairingGroup& group,
                                            std::span<const std::uint8_t> data);

Bytes encode_warrant(const PairingGroup& group, const Warrant& warrant);
std::optional<Warrant> decode_warrant(const PairingGroup& group,
                                      std::span<const std::uint8_t> data);

Bytes encode_challenge(const PairingGroup& group, const AuditChallenge& challenge);
std::optional<AuditChallenge> decode_challenge(const PairingGroup& group,
                                               std::span<const std::uint8_t> data);

Bytes encode_response(const PairingGroup& group, const AuditResponse& response);
std::optional<AuditResponse> decode_response(const PairingGroup& group,
                                             std::span<const std::uint8_t> data);

/// Count-prefixed list of signed blocks — the Protocol II storage-retrieval
/// reply shipped by the audit-session layer. Empty lists are valid.
Bytes encode_block_list(const PairingGroup& group, std::span<const SignedBlock> blocks);
std::optional<std::vector<SignedBlock>> decode_block_list(
    const PairingGroup& group, std::span<const std::uint8_t> data);

// internal helpers shared by the codecs (exposed for unit tests)
void encode_signed_block_into(Encoder& enc, const SignedBlock& sb);
std::optional<SignedBlock> decode_signed_block_from(Decoder& dec);

}  // namespace seccloud::core
