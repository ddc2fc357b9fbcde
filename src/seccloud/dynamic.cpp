#include "seccloud/dynamic.h"

#include <stdexcept>

#include "hash/framing.h"

namespace seccloud::core {
using framing::put_le;

Bytes versioned_block_message(const DataBlock& block, std::uint64_t version) {
  Bytes out{'b', 'l', 'k', '2'};
  put_le<std::uint64_t>(out, version);
  put_le<std::uint64_t>(out, block.index);
  out.insert(out.end(), block.payload.begin(), block.payload.end());
  return out;
}

Bytes tombstone_message(std::uint64_t index, std::uint64_t version) {
  Bytes out{'d', 'e', 'l', '2'};
  put_le<std::uint64_t>(out, version);
  put_le<std::uint64_t>(out, index);
  return out;
}

DynamicClient::DynamicClient(const PairingGroup& group, ibc::PublicParams params,
                             ibc::IdentityKey user_key, const Point& q_cs, const Point& q_da)
    : params_(std::move(params)),
      user_key_(std::move(user_key)),
      signer_(block_signer(group, user_key_, q_cs, q_da)) {}

BlockSignature DynamicClient::sign_message(std::span<const std::uint8_t> message,
                                           num::RandomSource& rng) const {
  return sign_block_message(signer_, message, rng);
}

StorageOp DynamicClient::insert(DataBlock block, num::RandomSource& rng) {
  const std::uint64_t index = block.index;
  if (versions_.contains(index)) {
    throw std::invalid_argument("DynamicClient::insert: position already live");
  }
  // Versions keep increasing across delete/re-insert cycles.
  const std::uint64_t version = last_versions_.contains(index) ? last_versions_[index] + 1 : 1;
  StorageOp op;
  op.kind = StorageOpKind::kInsert;
  op.version = version;
  op.block.sig = sign_message(versioned_block_message(block, version), rng);
  op.block.block = std::move(block);
  versions_[index] = version;
  last_versions_[index] = version;
  return op;
}

StorageOp DynamicClient::update(DataBlock block, num::RandomSource& rng) {
  const auto it = versions_.find(block.index);
  if (it == versions_.end()) {
    throw std::out_of_range("DynamicClient::update: position not live");
  }
  const std::uint64_t version = it->second + 1;
  StorageOp op;
  op.kind = StorageOpKind::kUpdate;
  op.version = version;
  op.block.sig = sign_message(versioned_block_message(block, version), rng);
  op.block.block = std::move(block);
  it->second = version;
  last_versions_[op.block.block.index] = version;
  return op;
}

StorageOp DynamicClient::remove(std::uint64_t index, num::RandomSource& rng) {
  const auto it = versions_.find(index);
  if (it == versions_.end()) {
    throw std::out_of_range("DynamicClient::remove: position not live");
  }
  const std::uint64_t version = it->second + 1;
  StorageOp op;
  op.kind = StorageOpKind::kDelete;
  op.version = version;
  op.index = index;
  op.tombstone = sign_message(tombstone_message(index, version), rng);
  versions_.erase(it);
  last_versions_[index] = version;
  return op;
}

DynamicServerStore::DynamicServerStore(const PairingGroup& group, ibc::IdentityKey server_key,
                                       Point q_user)
    : group_(&group), server_key_(std::move(server_key)), q_user_(std::move(q_user)) {}

bool DynamicServerStore::apply(const StorageOp& op) {
  const std::uint64_t index =
      op.kind == StorageOpKind::kDelete ? op.index : op.block.block.index;
  const auto high_it = high_water_.find(index);
  if (high_it != high_water_.end() && op.version <= high_it->second) {
    return false;  // stale or replayed operation
  }

  if (op.kind == StorageOpKind::kDelete) {
    if (!ibc::dv_verify(*group_, q_user_, tombstone_message(op.index, op.version),
                        op.tombstone.for_cs(), server_key_)) {
      return false;
    }
    entries_.erase(index);
  } else {
    if (!ibc::dv_verify(*group_, q_user_,
                        versioned_block_message(op.block.block, op.version),
                        op.block.sig.for_cs(), server_key_)) {
      return false;
    }
    entries_[index] = Entry{op.block, op.version};
  }
  high_water_[index] = op.version;
  return true;
}

const DynamicServerStore::Entry* DynamicServerStore::lookup(std::uint64_t index) const {
  const auto it = entries_.find(index);
  return it == entries_.end() ? nullptr : &it->second;
}

DynamicAuditReport verify_dynamic_storage(
    const PairingGroup& group, const Point& q_user, const DynamicServerStore& store,
    const std::map<std::uint64_t, std::uint64_t>& version_table,
    std::span<const std::uint64_t> sampled_positions, const ibc::IdentityKey& verifier_key,
    VerifierRole role) {
  DynamicAuditReport report;
  report.blocks_checked = sampled_positions.size();
  for (const auto position : sampled_positions) {
    const auto expected = version_table.find(position);
    const DynamicServerStore::Entry* entry = store.lookup(position);
    if (expected == version_table.end()) {
      // The auditor believes this position is deleted; the server must agree.
      if (entry != nullptr) ++report.stale_version_failures;
      continue;
    }
    if (entry == nullptr) {
      ++report.missing_blocks;
      continue;
    }
    if (entry->version != expected->second) {
      ++report.stale_version_failures;
      continue;
    }
    const Bytes message = versioned_block_message(entry->block.block, entry->version);
    const ibc::DvSignature dv = role == VerifierRole::kCloudServer
                                    ? entry->block.sig.for_cs()
                                    : entry->block.sig.for_da();
    if (!ibc::dv_verify(group, q_user, message, dv, verifier_key)) {
      ++report.signature_failures;
    }
  }
  report.accepted = report.signature_failures == 0 && report.stale_version_failures == 0 &&
                    report.missing_blocks == 0;
  return report;
}

}  // namespace seccloud::core
