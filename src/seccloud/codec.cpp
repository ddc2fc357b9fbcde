#include "seccloud/codec.h"

#include <algorithm>

namespace seccloud::core {
namespace {

/// Fail-fast bound for attacker-controlled element counts: true iff `count`
/// items of at least `min_item_bytes` each could still fit in the decoder's
/// remaining input. Checked BEFORE any reserve() so a few-byte malicious
/// header cannot force a multi-megabyte allocation — capacity growth stays
/// proportional to the bytes actually supplied.
bool count_fits_remaining(const Decoder& dec, std::uint64_t count,
                          std::size_t min_item_bytes) {
  return count <= dec.remaining() / min_item_bytes;
}

}  // namespace

// --- Encoder ------------------------------------------------------------

void Encoder::put_bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void Encoder::put_var_bytes(std::span<const std::uint8_t> data) {
  put_u32(static_cast<std::uint32_t>(data.size()));
  put_bytes(data);
}

void Encoder::put_string(std::string_view s) {
  put_var_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void Encoder::put_point(const Point& p) {
  // Self-delimiting: 0x00 = infinity, 0x04 ‖ X ‖ Y otherwise.
  put_bytes(group_->curve().serialize(p));
}

void Encoder::put_gt(const Gt& v) { put_bytes(group_->gt_serialize(v)); }

void Encoder::put_digest(const merkle::Digest& d) {
  put_bytes(std::span<const std::uint8_t>(d.data(), d.size()));
}

// --- Decoder ------------------------------------------------------------

std::optional<std::span<const std::uint8_t>> Decoder::take(std::size_t n) {
  if (data_.size() - pos_ < n) return std::nullopt;
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::optional<std::uint8_t> Decoder::get_u8() {
  const auto raw = take(1);
  if (!raw) return std::nullopt;
  return (*raw)[0];
}

std::optional<std::uint32_t> Decoder::get_u32() {
  const auto raw = take(4);
  if (!raw) return std::nullopt;
  return framing::get_le<std::uint32_t>(raw->data());
}

std::optional<std::uint64_t> Decoder::get_u64() {
  const auto raw = take(8);
  if (!raw) return std::nullopt;
  return framing::get_le<std::uint64_t>(raw->data());
}

std::optional<Bytes> Decoder::get_var_bytes(std::size_t max_len) {
  const auto len = get_u32();
  if (!len || *len > max_len) return std::nullopt;
  const auto raw = take(*len);
  if (!raw) return std::nullopt;
  return Bytes(raw->begin(), raw->end());
}

std::optional<std::string> Decoder::get_string(std::size_t max_len) {
  const auto raw = get_var_bytes(max_len);
  if (!raw) return std::nullopt;
  return std::string(raw->begin(), raw->end());
}

std::optional<Point> Decoder::get_point() {
  const std::size_t start = pos_;
  const auto tag = get_u8();
  if (!tag) return std::nullopt;
  if (*tag == 0x00) return Point::at_infinity();
  if (*tag != 0x04 || !take(2 * group_->fp().byte_width())) return std::nullopt;
  return group_->curve().deserialize(data_.subspan(start, pos_ - start));  // validates on-curve
}

std::optional<Gt> Decoder::get_gt() {
  const auto raw = take(2 * group_->fp().byte_width());
  if (!raw) return std::nullopt;
  return group_->gt_deserialize(*raw);
}

std::optional<merkle::Digest> Decoder::get_digest() {
  const auto raw = take(32);
  if (!raw) return std::nullopt;
  merkle::Digest d;
  std::copy(raw->begin(), raw->end(), d.begin());
  return d;
}

// --- SignedBlock -----------------------------------------------------------

void encode_signed_block_into(Encoder& enc, const SignedBlock& sb) {
  enc.put_u64(sb.block.index);
  enc.put_var_bytes(sb.block.payload);
  enc.put_point(sb.sig.u);
  enc.put_gt(sb.sig.sigma_cs);
  enc.put_gt(sb.sig.sigma_da);
}

std::optional<SignedBlock> decode_signed_block_from(Decoder& dec) {
  SignedBlock sb;
  const auto index = dec.get_u64();
  if (!index) return std::nullopt;
  sb.block.index = *index;
  auto payload = dec.get_var_bytes();
  if (!payload) return std::nullopt;
  sb.block.payload = std::move(*payload);
  const auto u = dec.get_point();
  const auto sigma_cs = u ? dec.get_gt() : std::nullopt;
  const auto sigma_da = sigma_cs ? dec.get_gt() : std::nullopt;
  if (!u || !sigma_cs || !sigma_da) return std::nullopt;
  sb.sig.u = *u;
  sb.sig.sigma_cs = *sigma_cs;
  sb.sig.sigma_da = *sigma_da;
  return sb;
}

Bytes encode_signed_block(const PairingGroup& group, const SignedBlock& sb) {
  Encoder enc{group};
  encode_signed_block_into(enc, sb);
  return std::move(enc).take();
}

std::optional<SignedBlock> decode_signed_block(const PairingGroup& group,
                                               std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  auto sb = decode_signed_block_from(dec);
  if (!sb || !dec.exhausted()) return std::nullopt;
  return sb;
}

Bytes encode_block_list(const PairingGroup& group, std::span<const SignedBlock> blocks) {
  Encoder enc{group};
  enc.put_u32(static_cast<std::uint32_t>(blocks.size()));
  for (const auto& sb : blocks) encode_signed_block_into(enc, sb);
  return std::move(enc).take();
}

std::optional<std::vector<SignedBlock>> decode_block_list(
    const PairingGroup& group, std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  const auto count = dec.get_u32();
  // Each signed block encodes to >= 13 bytes (index + payload length + point
  // tag) even before its two GT elements.
  if (!count || *count > (1u << 20) || !count_fits_remaining(dec, *count, 13)) {
    return std::nullopt;
  }
  std::vector<SignedBlock> blocks;
  blocks.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto sb = decode_signed_block_from(dec);
    if (!sb) return std::nullopt;
    blocks.push_back(std::move(*sb));
  }
  if (!dec.exhausted()) return std::nullopt;
  return blocks;
}

// --- ComputationTask -----------------------------------------------------

Bytes encode_task(const PairingGroup& group, const ComputationTask& task) {
  Encoder enc{group};
  enc.put_u32(static_cast<std::uint32_t>(task.requests.size()));
  for (const auto& request : task.requests) {
    enc.put_u8(static_cast<std::uint8_t>(request.kind));
    enc.put_u32(static_cast<std::uint32_t>(request.positions.size()));
    for (const auto pos : request.positions) enc.put_u64(pos);
  }
  return std::move(enc).take();
}

std::optional<ComputationTask> decode_task(const PairingGroup& group,
                                           std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  const auto count = dec.get_u32();
  // Each request encodes to >= 5 bytes (kind + position count).
  if (!count || *count > (1u << 20) || !count_fits_remaining(dec, *count, 5)) {
    return std::nullopt;
  }
  ComputationTask task;
  task.requests.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto kind = dec.get_u8();
    if (!kind || *kind > static_cast<std::uint8_t>(FuncKind::kPolyEval)) return std::nullopt;
    const auto positions = dec.get_u32();
    if (!positions || *positions > (1u << 20) ||
        !count_fits_remaining(dec, *positions, 8)) {
      return std::nullopt;
    }
    ComputeRequest request;
    request.kind = static_cast<FuncKind>(*kind);
    request.positions.reserve(*positions);
    for (std::uint32_t j = 0; j < *positions; ++j) {
      const auto pos = dec.get_u64();
      if (!pos) return std::nullopt;
      request.positions.push_back(*pos);
    }
    task.requests.push_back(std::move(request));
  }
  if (!dec.exhausted()) return std::nullopt;
  return task;
}

// --- Commitment ----------------------------------------------------------

namespace {

void encode_dv_signature_into(Encoder& enc, const DvSignature& sig) {
  enc.put_point(sig.u);
  enc.put_gt(sig.sigma);
}

std::optional<DvSignature> decode_dv_signature_from(Decoder& dec) {
  const auto u = dec.get_point();
  const auto sigma = u ? dec.get_gt() : std::nullopt;
  if (!u || !sigma) return std::nullopt;
  return DvSignature{*u, *sigma};
}

}  // namespace

Bytes encode_commitment(const PairingGroup& group, const Commitment& commitment) {
  Encoder enc{group};
  enc.put_u32(static_cast<std::uint32_t>(commitment.results.size()));
  for (const auto y : commitment.results) enc.put_u64(y);
  enc.put_digest(commitment.root);
  encode_dv_signature_into(enc, commitment.root_sig_da);
  encode_dv_signature_into(enc, commitment.root_sig_user);
  return std::move(enc).take();
}

std::optional<Commitment> decode_commitment(const PairingGroup& group,
                                            std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  const auto count = dec.get_u32();
  if (!count || *count > (1u << 24) || !count_fits_remaining(dec, *count, 8)) {
    return std::nullopt;
  }
  Commitment commitment;
  commitment.results.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto y = dec.get_u64();
    if (!y) return std::nullopt;
    commitment.results.push_back(*y);
  }
  const auto root = dec.get_digest();
  if (!root) return std::nullopt;
  commitment.root = *root;
  const auto sig_da = decode_dv_signature_from(dec);
  const auto sig_user = sig_da ? decode_dv_signature_from(dec) : std::nullopt;
  if (!sig_da || !sig_user || !dec.exhausted()) return std::nullopt;
  commitment.root_sig_da = *sig_da;
  commitment.root_sig_user = *sig_user;
  return commitment;
}

// --- Warrant -----------------------------------------------------------------

Bytes encode_warrant(const PairingGroup& group, const Warrant& warrant) {
  Encoder enc{group};
  enc.put_string(warrant.delegator_id);
  enc.put_string(warrant.delegatee_id);
  enc.put_u64(warrant.expiry_epoch);
  encode_dv_signature_into(enc, warrant.authorization);
  return std::move(enc).take();
}

std::optional<Warrant> decode_warrant(const PairingGroup& group,
                                      std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  Warrant warrant;
  auto delegator = dec.get_string();
  auto delegatee = delegator ? dec.get_string() : std::nullopt;
  const auto expiry = delegatee ? dec.get_u64() : std::nullopt;
  if (!delegator || !delegatee || !expiry) return std::nullopt;
  warrant.delegator_id = std::move(*delegator);
  warrant.delegatee_id = std::move(*delegatee);
  warrant.expiry_epoch = *expiry;
  const auto auth = decode_dv_signature_from(dec);
  if (!auth || !dec.exhausted()) return std::nullopt;
  warrant.authorization = *auth;
  return warrant;
}

// --- AuditChallenge -------------------------------------------------------

Bytes encode_challenge(const PairingGroup& group, const AuditChallenge& challenge) {
  Encoder enc{group};
  enc.put_u32(static_cast<std::uint32_t>(challenge.sample_indices.size()));
  for (const auto index : challenge.sample_indices) enc.put_u64(index);
  enc.put_var_bytes(encode_warrant(group, challenge.warrant));
  return std::move(enc).take();
}

std::optional<AuditChallenge> decode_challenge(const PairingGroup& group,
                                               std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  const auto count = dec.get_u32();
  if (!count || *count > (1u << 20) || !count_fits_remaining(dec, *count, 8)) {
    return std::nullopt;
  }
  AuditChallenge challenge;
  challenge.sample_indices.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto index = dec.get_u64();
    if (!index) return std::nullopt;
    challenge.sample_indices.push_back(*index);
  }
  const auto warrant_bytes = dec.get_var_bytes();
  if (!warrant_bytes || !dec.exhausted()) return std::nullopt;
  const auto warrant = decode_warrant(group, *warrant_bytes);
  if (!warrant) return std::nullopt;
  challenge.warrant = *warrant;
  return challenge;
}

// --- AuditResponse -------------------------------------------------------------

Bytes encode_response(const PairingGroup& group, const AuditResponse& response) {
  Encoder enc{group};
  enc.put_u8(response.warrant_accepted ? 1 : 0);
  enc.put_u32(static_cast<std::uint32_t>(response.items.size()));
  for (const auto& item : response.items) {
    enc.put_u64(item.request_index);
    enc.put_u64(item.result);
    enc.put_u32(static_cast<std::uint32_t>(item.inputs.size()));
    for (const auto& input : item.inputs) encode_signed_block_into(enc, input);
    enc.put_var_bytes(merkle::MerkleTree::serialize_proof(item.path));
  }
  return std::move(enc).take();
}

std::optional<AuditResponse> decode_response(const PairingGroup& group,
                                             std::span<const std::uint8_t> data) {
  Decoder dec{group, data};
  const auto accepted = dec.get_u8();
  if (!accepted || *accepted > 1) return std::nullopt;
  const auto item_count = dec.get_u32();
  // Each item encodes to >= 24 bytes (index + result + input count + proof length).
  if (!item_count || *item_count > (1u << 20) ||
      !count_fits_remaining(dec, *item_count, 24)) {
    return std::nullopt;
  }
  AuditResponse response;
  response.warrant_accepted = *accepted == 1;
  response.items.reserve(*item_count);
  for (std::uint32_t i = 0; i < *item_count; ++i) {
    AuditResponseItem item;
    const auto index = dec.get_u64();
    const auto result = index ? dec.get_u64() : std::nullopt;
    const auto input_count = result ? dec.get_u32() : std::nullopt;
    // Each signed block encodes to >= 13 bytes (index + payload length +
    // point tag) even before its two GT elements.
    if (!index || !result || !input_count || *input_count > (1u << 16) ||
        !count_fits_remaining(dec, *input_count, 13)) {
      return std::nullopt;
    }
    item.request_index = *index;
    item.result = *result;
    item.inputs.reserve(*input_count);
    for (std::uint32_t j = 0; j < *input_count; ++j) {
      auto input = decode_signed_block_from(dec);
      if (!input) return std::nullopt;
      item.inputs.push_back(std::move(*input));
    }
    const auto proof_bytes = dec.get_var_bytes();
    if (!proof_bytes) return std::nullopt;
    auto proof = merkle::MerkleTree::deserialize_proof(*proof_bytes);
    if (!proof) return std::nullopt;
    item.path = std::move(*proof);
    response.items.push_back(std::move(item));
  }
  if (!dec.exhausted()) return std::nullopt;
  return response;
}

}  // namespace seccloud::core
