// Dynamic storage extension.
//
// The paper's scheme (like the original PDP [8]) signs a static file; its
// related-work section points at partially/fully dynamic schemes [9][10][15]
// as the natural evolution. This module adds dynamic operations — update,
// insert, delete — on top of the designated-verifier signatures, with
// ROLLBACK protection: every signed message carries a monotonically
// increasing per-position version, the client keeps a compact version table
// (one u64 per position, no data), and the auditor checks both the signature
// and the freshness of each sampled block. A server replaying a stale block
// (valid signature, old version) is caught by the version comparison.
#pragma once

#include <map>

#include "seccloud/auditor.h"
#include "seccloud/client.h"

namespace seccloud::core {

/// Message encoding for versioned block signatures:
/// "blk2" ‖ version ‖ index ‖ payload (domain-separated from the static
/// format, so static and dynamic signatures can never be confused).
Bytes versioned_block_message(const DataBlock& block, std::uint64_t version);

/// Tombstone message authorizing deletion of `index` at `version`:
/// "del2" ‖ version ‖ index.
Bytes tombstone_message(std::uint64_t index, std::uint64_t version);

enum class StorageOpKind : std::uint8_t { kInsert, kUpdate, kDelete };

/// A signed dynamic-storage operation shipped to the server.
struct StorageOp {
  StorageOpKind kind = StorageOpKind::kInsert;
  std::uint64_t version = 0;
  SignedBlock block;          ///< insert/update: versioned-signed payload
  std::uint64_t index = 0;    ///< delete: target position
  BlockSignature tombstone;   ///< delete: signature over tombstone_message
};

/// Client-side: issues versioned operations and maintains the version table
/// (the only per-file state the user retains after deleting local data).
class DynamicClient {
 public:
  /// Prepares the client's block_signer (two pairings) once; every
  /// operation afterwards signs without a pairing.
  DynamicClient(const PairingGroup& group, ibc::PublicParams params,
                ibc::IdentityKey user_key, const Point& q_cs, const Point& q_da);

  const ibc::IdentityKey& key() const noexcept { return user_key_; }

  /// Initial upload of position `index` (version 1).
  StorageOp insert(DataBlock block, num::RandomSource& rng);
  /// Replaces the payload at `block.index`; bumps the version.
  /// Throws std::out_of_range if the position was never inserted.
  StorageOp update(DataBlock block, num::RandomSource& rng);
  /// Deletes a position; bumps the version so stale re-insertion fails.
  StorageOp remove(std::uint64_t index, num::RandomSource& rng);

  /// The auditor's reference: current version per live position (deleted
  /// positions are absent).
  const std::map<std::uint64_t, std::uint64_t>& version_table() const noexcept {
    return versions_;
  }
  std::size_t live_blocks() const noexcept { return versions_.size(); }

 private:
  BlockSignature sign_message(std::span<const std::uint8_t> message,
                              num::RandomSource& rng) const;

  ibc::PublicParams params_;
  ibc::IdentityKey user_key_;
  ibc::DvSigner signer_;  ///< designates {Q_CS, Q_DA}
  std::map<std::uint64_t, std::uint64_t> versions_;       ///< live positions
  std::map<std::uint64_t, std::uint64_t> last_versions_;  ///< incl. deleted
};

/// Server-side dynamic store: applies operations after verifying the
/// embedded designated-verifier signatures with the server's own key.
class DynamicServerStore {
 public:
  DynamicServerStore(const PairingGroup& group, ibc::IdentityKey server_key,
                     Point q_user);

  /// Returns false (and changes nothing) if the op's signature is invalid or
  /// its version is not strictly newer than the stored one.
  bool apply(const StorageOp& op);

  struct Entry {
    SignedBlock block;
    std::uint64_t version = 0;
  };
  const Entry* lookup(std::uint64_t index) const;
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  const PairingGroup* group_;
  ibc::IdentityKey server_key_;
  Point q_user_;
  std::map<std::uint64_t, Entry> entries_;
  std::map<std::uint64_t, std::uint64_t> high_water_;  ///< newest version seen
};

/// DA-side dynamic storage audit: verifies the versioned signature AND that
/// the presented version equals the client's version table entry — stale
/// replays (old version, valid signature) count as failures.
struct DynamicAuditReport {
  bool accepted = false;
  std::size_t blocks_checked = 0;
  std::size_t signature_failures = 0;
  std::size_t stale_version_failures = 0;
  std::size_t missing_blocks = 0;
};

DynamicAuditReport verify_dynamic_storage(
    const PairingGroup& group, const Point& q_user, const DynamicServerStore& store,
    const std::map<std::uint64_t, std::uint64_t>& version_table,
    std::span<const std::uint64_t> sampled_positions, const ibc::IdentityKey& verifier_key,
    VerifierRole role);

}  // namespace seccloud::core
