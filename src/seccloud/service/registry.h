// Sharded user/key registry for the fleet-scale audit service.
//
// The service layer must hold millions of registered identities without
// per-user heap churn or a global lock. The registry shards users across a
// power-of-two number of independently locked shards (striped locking:
// register/find/record accesses only ever take one shard's mutex). Each
// shard owns
//   * a chunked arena of fixed-size user records (chunks never move, so a
//     UserHandle resolves to a stable record in O(1) without rehashing);
//   * a byte arena for identity strings (append-only, so id storage costs
//     one bump-pointer copy instead of a std::string per user);
//   * a fixed-width key arena for bound identity-point material (a serialized
//     Q_ID blob followed by its fixed-width prepared form, written once at
//     activation and then readable without the shard lock because arena
//     memory is stable and publication happens under the lock);
//   * an open-addressing hash table (id hash, linear probing, ×2 growth)
//     mapping identity → record in amortized O(1).
//
// The audited-version field per record is the stale-replay guard: the epoch
// scheduler rejects any audit request whose freshness counter is not
// strictly newer than the last audited one, so a Byzantine user replaying an
// old (validly signed) commit is filtered before it can enter a shared
// batch — costing zero pairings.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace seccloud::service {

/// Opaque user handle: shard index in the high bits, per-shard record index
/// in the low 40 bits. Resolves in O(1) with no hashing.
using UserHandle = std::uint64_t;

inline constexpr UserHandle kInvalidUser = ~UserHandle{0};

struct RegistryConfig {
  /// Number of lock stripes / hash shards; rounded up to a power of two,
  /// clamped to [1, 65536].
  std::size_t shards = 64;
  /// Records per arena chunk (allocation granularity; records never move).
  std::size_t records_per_chunk = 4096;
  /// Byte size of one identity-string arena chunk.
  std::size_t id_arena_chunk_bytes = 1 << 16;
  /// Fixed width of one bound key blob (serialized Q_ID). 0 disables the
  /// key arena — bind_key then rejects everything.
  std::size_t key_width = 0;
  /// Fixed width of the prepared form stored after each key blob (the
  /// service's pairwise key ê(Q_ID, sk_B)). A key slot is
  /// key_width + prepared_width bytes.
  std::size_t prepared_width = 0;
};

/// Read-only view of one registered user.
struct UserView {
  std::string_view id;
  std::uint64_t audited_version = 0;  ///< freshness high-water mark
  std::uint32_t audits_served = 0;
  bool has_key = false;
};

/// Per-shard heat sample for the telemetry pipeline: occupancy plus
/// linear-probe pressure. probe_* tallies are maintained incrementally at
/// insert and recomputed on table rebuild, so reading them is O(shards) —
/// never a table walk — and safe to do every epoch at fleet scale.
struct ShardOccupancy {
  std::size_t users = 0;
  std::size_t keyed = 0;
  std::size_t table_slots = 0;
  std::size_t probe_max = 0;    ///< longest current home→slot displacement
  std::size_t probe_total = 0;  ///< summed displacements (avg = /users)
};

/// Aggregated footprint/statistics (sums shard-local tallies; exact once
/// writers are quiescent).
struct RegistryStats {
  std::size_t users = 0;
  std::size_t keyed_users = 0;
  std::size_t shards = 0;
  std::size_t record_bytes = 0;  ///< arena-reserved record storage
  std::size_t id_bytes = 0;      ///< arena-reserved identity bytes
  std::size_t key_bytes = 0;     ///< arena-reserved key-slot storage
  std::size_t table_bytes = 0;   ///< open-addressing tables

  std::size_t total_bytes() const noexcept {
    return record_bytes + id_bytes + key_bytes + table_bytes;
  }
};

class ShardedRegistry {
 public:
  explicit ShardedRegistry(RegistryConfig config = {});
  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;
  ~ShardedRegistry();

  /// Key slots per key-arena chunk. Far fewer users are keyed than
  /// registered (a fleet keys ~2 per shard), so key chunks are sized for the
  /// slots they hold, not for records_per_chunk: 64 service slots are
  /// ≈16 KiB, small enough to stay off glibc's mmap path, whose freed chunks
  /// would raise its mmap threshold and let later chunks land on already
  /// resident heap pages.
  static constexpr std::size_t kKeySlotsPerChunk = 64;

  /// Registers `id`, returning its handle; idempotent (re-registering an
  /// existing identity returns the original handle). Throws
  /// std::invalid_argument on an empty id and std::length_error on an id
  /// longer than the id-arena chunk size.
  UserHandle register_user(std::string_view id);

  /// O(1) expected lookup; nullopt if the identity was never registered.
  std::optional<UserHandle> find(std::string_view id) const;

  /// Total registered users (relaxed read; exact once writers quiesce).
  std::size_t size() const noexcept;
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t key_width() const noexcept { return config_.key_width; }

  /// True iff `handle` names a record of this registry: resolve()'s shard
  /// bound plus the shard's record count. Never throws.
  bool issued(UserHandle handle) const noexcept;

  /// Read-only snapshot of one record. Throws std::out_of_range on a handle
  /// that was never issued.
  UserView view(UserHandle handle) const;

  /// Binds fixed-width key material (a serialized identity point) and its
  /// prepared form to the user. Write-once: returns false if the user is
  /// already keyed. Throws std::invalid_argument if blob.size() !=
  /// key_width(), prepared.size() != the configured prepared_width, or keys
  /// are disabled.
  bool bind_key(UserHandle handle, std::span<const std::uint8_t> blob,
                std::span<const std::uint8_t> prepared = {});

  /// The bound key blob (empty span if none). The returned memory is stable
  /// for the registry's lifetime; publication happened under the shard lock
  /// taken by this call, so the bytes are safe to read afterwards.
  std::span<const std::uint8_t> key(UserHandle handle) const;
  /// The prepared form bound with the key (empty span if none, or if
  /// prepared_width is 0). Same lifetime and publication rules as key().
  std::span<const std::uint8_t> prepared_key(UserHandle handle) const;

  /// Freshness counter of the last *verified* audit (0 = never audited).
  std::uint64_t audited_version(UserHandle handle) const;

  /// Records a verified audit at freshness counter `version`: bumps
  /// audits_served and advances the high-water mark if `version` is newer.
  /// Returns false (still counting the audit) if `version` was stale.
  bool record_audit(UserHandle handle, std::uint64_t version);

  RegistryStats stats() const;

  /// One ShardOccupancy per shard, in shard order. O(shards).
  std::vector<ShardOccupancy> occupancy() const;

 private:
  struct Shard;

  static std::uint64_t hash_id(std::string_view id) noexcept;
  Shard& shard_for(std::uint64_t hash) const noexcept;
  /// Decodes a handle; throws std::out_of_range if out of bounds.
  std::pair<Shard*, std::size_t> resolve(UserHandle handle) const;
  /// The user's key slot (nullptr if unkeyed), validating the handle.
  const std::uint8_t* key_slot(UserHandle handle) const;
  std::size_t slot_width() const noexcept {
    return config_.key_width + config_.prepared_width;
  }

  RegistryConfig config_;
  std::size_t shard_bits_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace seccloud::service
