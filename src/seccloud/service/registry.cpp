#include "seccloud/service/registry.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace seccloud::service {

namespace {

constexpr std::uint32_t kNoKey = ~std::uint32_t{0};
constexpr std::size_t kIndexBits = 40;
constexpr UserHandle kIndexMask = (UserHandle{1} << kIndexBits) - 1;

}  // namespace

/// Fixed-size record; identity bytes and key blobs live in the shard arenas
/// so the record array itself stays contiguous and POD.
struct Record {
  std::uint64_t id_hash = 0;
  std::uint64_t audited_version = 0;
  std::uint32_t id_chunk = 0;   ///< id arena chunk index
  std::uint32_t id_offset = 0;  ///< byte offset inside that chunk
  std::uint32_t id_len = 0;
  std::uint32_t key_slot = kNoKey;  ///< append index into the key arena
  std::uint32_t audits_served = 0;
  std::uint32_t reserved = 0;
};

struct ShardedRegistry::Shard {
  mutable std::mutex m;
  std::size_t count = 0;
  std::size_t keyed = 0;
  std::vector<std::unique_ptr<Record[]>> record_chunks;
  std::vector<std::unique_ptr<std::uint8_t[]>> id_chunks;
  std::size_t id_tail = 0;  ///< bytes used in the last id chunk
  std::vector<std::unique_ptr<std::uint8_t[]>> key_chunks;
  /// Open addressing: record index + 1, 0 = empty. Size is a power of two.
  std::vector<std::uint32_t> table;
  /// Probe-pressure tallies for occupancy(): displacement of every resident
  /// record from its home slot, maintained at insert and recomputed on
  /// rebuild so the telemetry read stays O(1) per shard.
  std::size_t probe_total = 0;
  std::size_t probe_max = 0;

  std::atomic<std::size_t>* global_count = nullptr;
};

namespace {

/// FNV-1a 64 over the id bytes, finished with the SplitMix64 mixer so both
/// the shard selector (low bits) and the probe start (high bits) are well
/// distributed even for sequential numeric identities.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t ShardedRegistry::hash_id(std::string_view id) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

ShardedRegistry::ShardedRegistry(RegistryConfig config) : config_(config) {
  std::size_t shards = std::clamp<std::size_t>(config_.shards, 1, 65536);
  shards = std::bit_ceil(shards);
  config_.shards = shards;
  config_.records_per_chunk = std::max<std::size_t>(config_.records_per_chunk, 16);
  config_.id_arena_chunk_bytes = std::max<std::size_t>(config_.id_arena_chunk_bytes, 256);
  shard_bits_ = static_cast<std::size_t>(std::countr_zero(shards));
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

ShardedRegistry::~ShardedRegistry() = default;

ShardedRegistry::Shard& ShardedRegistry::shard_for(std::uint64_t hash) const noexcept {
  return *shards_[hash & (shards_.size() - 1)];
}

std::size_t ShardedRegistry::size() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->m);
    total += shard->count;
  }
  return total;
}

namespace {

std::size_t probe_next(std::size_t i, std::size_t mask) noexcept { return (i + 1) & mask; }

std::string_view id_of(const Record& rec,
                       const std::vector<std::unique_ptr<std::uint8_t[]>>& id_chunks) {
  return {reinterpret_cast<const char*>(id_chunks[rec.id_chunk].get()) + rec.id_offset,
          rec.id_len};
}

}  // namespace

UserHandle ShardedRegistry::register_user(std::string_view id) {
  if (id.empty()) throw std::invalid_argument("ShardedRegistry: empty identity");
  if (id.size() > config_.id_arena_chunk_bytes) {
    throw std::length_error("ShardedRegistry: identity longer than the id arena chunk");
  }
  const std::uint64_t h = hash_id(id);
  const std::size_t shard_index = static_cast<std::size_t>(h & (shards_.size() - 1));
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.m);

  // Grow (or seed) the probe table at 70% load.
  if (shard.table.empty() || (shard.count + 1) * 10 >= shard.table.size() * 7) {
    const std::size_t new_size =
        std::max<std::size_t>(64, std::bit_ceil((shard.count + 1) * 2));
    std::vector<std::uint32_t> table(new_size, 0);
    const std::size_t mask = new_size - 1;
    shard.probe_total = 0;
    shard.probe_max = 0;
    for (std::size_t idx = 0; idx < shard.count; ++idx) {
      const Record& rec =
          shard.record_chunks[idx / config_.records_per_chunk][idx %
                                                              config_.records_per_chunk];
      std::size_t slot = static_cast<std::size_t>(rec.id_hash >> 32) & mask;
      std::size_t probes = 0;
      while (table[slot] != 0) {
        slot = probe_next(slot, mask);
        ++probes;
      }
      table[slot] = static_cast<std::uint32_t>(idx) + 1;
      shard.probe_total += probes;
      shard.probe_max = std::max(shard.probe_max, probes);
    }
    shard.table = std::move(table);
  }

  const std::size_t mask = shard.table.size() - 1;
  std::size_t slot = static_cast<std::size_t>(h >> 32) & mask;
  std::size_t probes = 0;
  while (shard.table[slot] != 0) {
    const std::size_t idx = shard.table[slot] - 1;
    const Record& rec =
        shard.record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
    if (rec.id_hash == h && id_of(rec, shard.id_chunks) == id) {
      return (static_cast<UserHandle>(shard_index) << kIndexBits) | idx;  // idempotent
    }
    slot = probe_next(slot, mask);
    ++probes;
  }

  // Append the record (new arena chunk when the last one is full).
  const std::size_t idx = shard.count;
  if (idx > kIndexMask) throw std::length_error("ShardedRegistry: shard full");
  if (idx % config_.records_per_chunk == 0) {
    shard.record_chunks.push_back(std::make_unique<Record[]>(config_.records_per_chunk));
  }
  Record& rec = shard.record_chunks[idx / config_.records_per_chunk]
                                   [idx % config_.records_per_chunk];
  // Copy the identity into the byte arena (bump pointer; new chunk if the
  // tail cannot hold it).
  if (shard.id_chunks.empty() || shard.id_tail + id.size() > config_.id_arena_chunk_bytes) {
    // Not zero-filled: only the bytes written below are ever read, so the
    // untouched rest of the chunk never costs a resident page.
    shard.id_chunks.push_back(
        std::make_unique_for_overwrite<std::uint8_t[]>(config_.id_arena_chunk_bytes));
    shard.id_tail = 0;
  }
  std::memcpy(shard.id_chunks.back().get() + shard.id_tail, id.data(), id.size());
  rec.id_hash = h;
  rec.id_chunk = static_cast<std::uint32_t>(shard.id_chunks.size() - 1);
  rec.id_offset = static_cast<std::uint32_t>(shard.id_tail);
  rec.id_len = static_cast<std::uint32_t>(id.size());
  rec.key_slot = kNoKey;
  rec.audited_version = 0;
  rec.audits_served = 0;
  shard.id_tail += id.size();
  shard.table[slot] = static_cast<std::uint32_t>(idx) + 1;
  shard.probe_total += probes;
  shard.probe_max = std::max(shard.probe_max, probes);
  ++shard.count;
  return (static_cast<UserHandle>(shard_index) << kIndexBits) | idx;
}

std::optional<UserHandle> ShardedRegistry::find(std::string_view id) const {
  if (id.empty()) return std::nullopt;
  const std::uint64_t h = hash_id(id);
  const std::size_t shard_index = static_cast<std::size_t>(h & (shards_.size() - 1));
  const Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.m);
  if (shard.table.empty()) return std::nullopt;
  const std::size_t mask = shard.table.size() - 1;
  std::size_t slot = static_cast<std::size_t>(h >> 32) & mask;
  while (shard.table[slot] != 0) {
    const std::size_t idx = shard.table[slot] - 1;
    const Record& rec =
        shard.record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
    if (rec.id_hash == h && id_of(rec, shard.id_chunks) == id) {
      return (static_cast<UserHandle>(shard_index) << kIndexBits) | idx;
    }
    slot = probe_next(slot, mask);
  }
  return std::nullopt;
}

std::pair<ShardedRegistry::Shard*, std::size_t> ShardedRegistry::resolve(
    UserHandle handle) const {
  const std::size_t shard_index = static_cast<std::size_t>(handle >> kIndexBits);
  const std::size_t idx = static_cast<std::size_t>(handle & kIndexMask);
  if (shard_index >= shards_.size()) {
    throw std::out_of_range("ShardedRegistry: bad handle (shard)");
  }
  return {shards_[shard_index].get(), idx};
}

bool ShardedRegistry::issued(UserHandle handle) const noexcept {
  const std::size_t shard_index = static_cast<std::size_t>(handle >> kIndexBits);
  if (shard_index >= shards_.size()) return false;
  const Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.m);
  return static_cast<std::size_t>(handle & kIndexMask) < shard.count;
}

UserView ShardedRegistry::view(UserHandle handle) const {
  auto [shard, idx] = resolve(handle);
  std::lock_guard<std::mutex> lock(shard->m);
  if (idx >= shard->count) throw std::out_of_range("ShardedRegistry: bad handle (index)");
  const Record& rec =
      shard->record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
  UserView out;
  out.id = id_of(rec, shard->id_chunks);
  out.audited_version = rec.audited_version;
  out.audits_served = rec.audits_served;
  out.has_key = rec.key_slot != kNoKey;
  return out;
}

bool ShardedRegistry::bind_key(UserHandle handle, std::span<const std::uint8_t> blob,
                               std::span<const std::uint8_t> prepared) {
  if (config_.key_width == 0) {
    throw std::invalid_argument("ShardedRegistry: key arena disabled (key_width == 0)");
  }
  if (blob.size() != config_.key_width) {
    throw std::invalid_argument("ShardedRegistry: key blob width mismatch");
  }
  if (prepared.size() != config_.prepared_width) {
    throw std::invalid_argument("ShardedRegistry: prepared key width mismatch");
  }
  auto [shard, idx] = resolve(handle);
  std::lock_guard<std::mutex> lock(shard->m);
  if (idx >= shard->count) throw std::out_of_range("ShardedRegistry: bad handle (index)");
  Record& rec =
      shard->record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
  if (rec.key_slot != kNoKey) return false;  // write-once
  const std::size_t slot = shard->keyed;
  if (slot % kKeySlotsPerChunk == 0) {
    // Not zero-filled: a shard that keys a few users must not make the
    // chunk's unused slots resident.
    shard->key_chunks.push_back(
        std::make_unique_for_overwrite<std::uint8_t[]>(kKeySlotsPerChunk * slot_width()));
  }
  std::uint8_t* out = shard->key_chunks[slot / kKeySlotsPerChunk].get() +
                      (slot % kKeySlotsPerChunk) * slot_width();
  std::memcpy(out, blob.data(), blob.size());
  if (!prepared.empty()) std::memcpy(out + blob.size(), prepared.data(), prepared.size());
  rec.key_slot = static_cast<std::uint32_t>(slot);
  ++shard->keyed;
  return true;
}

const std::uint8_t* ShardedRegistry::key_slot(UserHandle handle) const {
  auto [shard, idx] = resolve(handle);
  std::lock_guard<std::mutex> lock(shard->m);
  if (idx >= shard->count) throw std::out_of_range("ShardedRegistry: bad handle (index)");
  const Record& rec =
      shard->record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
  if (rec.key_slot == kNoKey) return nullptr;
  // Arena chunks never move and the slot was fully written before key_slot
  // was published under this same mutex, so the bytes outlive the lock.
  return shard->key_chunks[rec.key_slot / kKeySlotsPerChunk].get() +
         (rec.key_slot % kKeySlotsPerChunk) * slot_width();
}

std::span<const std::uint8_t> ShardedRegistry::key(UserHandle handle) const {
  const std::uint8_t* slot = key_slot(handle);
  if (slot == nullptr) return {};
  return {slot, config_.key_width};
}

std::span<const std::uint8_t> ShardedRegistry::prepared_key(UserHandle handle) const {
  const std::uint8_t* slot = key_slot(handle);
  if (slot == nullptr) return {};
  return {slot + config_.key_width, config_.prepared_width};
}

std::uint64_t ShardedRegistry::audited_version(UserHandle handle) const {
  auto [shard, idx] = resolve(handle);
  std::lock_guard<std::mutex> lock(shard->m);
  if (idx >= shard->count) throw std::out_of_range("ShardedRegistry: bad handle (index)");
  return shard->record_chunks[idx / config_.records_per_chunk]
                             [idx % config_.records_per_chunk].audited_version;
}

bool ShardedRegistry::record_audit(UserHandle handle, std::uint64_t version) {
  auto [shard, idx] = resolve(handle);
  std::lock_guard<std::mutex> lock(shard->m);
  if (idx >= shard->count) throw std::out_of_range("ShardedRegistry: bad handle (index)");
  Record& rec =
      shard->record_chunks[idx / config_.records_per_chunk][idx % config_.records_per_chunk];
  ++rec.audits_served;
  if (version <= rec.audited_version) return false;
  rec.audited_version = version;
  return true;
}

RegistryStats ShardedRegistry::stats() const {
  RegistryStats out;
  out.shards = shards_.size();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->m);
    out.users += shard->count;
    out.keyed_users += shard->keyed;
    out.record_bytes += shard->record_chunks.size() * config_.records_per_chunk * sizeof(Record);
    out.id_bytes += shard->id_chunks.size() * config_.id_arena_chunk_bytes;
    out.key_bytes += shard->key_chunks.size() * kKeySlotsPerChunk * slot_width();
    out.table_bytes += shard->table.size() * sizeof(std::uint32_t);
  }
  return out;
}

std::vector<ShardOccupancy> ShardedRegistry::occupancy() const {
  std::vector<ShardOccupancy> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->m);
    ShardOccupancy o;
    o.users = shard->count;
    o.keyed = shard->keyed;
    o.table_slots = shard->table.size();
    o.probe_max = shard->probe_max;
    o.probe_total = shard->probe_total;
    out.push_back(o);
  }
  return out;
}

}  // namespace seccloud::service
