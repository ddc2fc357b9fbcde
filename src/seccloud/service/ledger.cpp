#include "seccloud/service/ledger.h"

namespace seccloud::service {
namespace {

constexpr std::size_t kPayloadBytes = 64;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

const char* to_string(LedgerVerdict verdict) noexcept {
  switch (verdict) {
    case LedgerVerdict::kVerified: return "verified";
    case LedgerVerdict::kInvalidSignature: return "invalid-signature";
    case LedgerVerdict::kStaleReplay: return "stale-replay";
    case LedgerVerdict::kUnkeyed: return "unkeyed";
    case LedgerVerdict::kAttestationFailed: return "attestation-failed";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_ledger_entry(const LedgerEntry& entry) {
  std::vector<std::uint8_t> out;
  out.reserve(kPayloadBytes);
  put_u64(out, entry.epoch);
  put_u64(out, entry.user);
  put_u64(out, entry.version);
  put_u32(out, entry.batch);
  put_u32(out, entry.request_index);
  put_u32(out, entry.block_index);
  put_u32(out, entry.entry_in_batch);
  out.push_back(static_cast<std::uint8_t>(entry.verdict));
  out.push_back(entry.isolation_depth);
  put_u16(out, 0);  // reserved
  put_u32(out, entry.isolation_path);
  put_u64(out, entry.batch_pairings);
  put_u64(out, entry.journey_id);
  return out;
}

std::optional<LedgerEntry> decode_ledger_entry(std::span<const std::uint8_t> payload) {
  if (payload.size() != kPayloadBytes) return std::nullopt;
  const std::uint8_t* p = payload.data();
  LedgerEntry entry;
  entry.epoch = get_u64(p + 0);
  entry.user = get_u64(p + 8);
  entry.version = get_u64(p + 16);
  entry.batch = get_u32(p + 24);
  entry.request_index = get_u32(p + 28);
  entry.block_index = get_u32(p + 32);
  entry.entry_in_batch = get_u32(p + 36);
  const std::uint8_t verdict = p[40];
  if (verdict < 1 || verdict > static_cast<std::uint8_t>(LedgerVerdict::kAttestationFailed)) {
    return std::nullopt;
  }
  entry.verdict = static_cast<LedgerVerdict>(verdict);
  entry.isolation_depth = p[41];
  entry.isolation_path = get_u32(p + 44);
  entry.batch_pairings = get_u64(p + 48);
  entry.journey_id = get_u64(p + 56);
  return entry;
}

IsolationPath bisection_path(std::size_t index, std::size_t n) noexcept {
  IsolationPath path;
  if (n == 0 || index >= n) return path;
  std::size_t lo = 0;
  std::size_t hi = n;
  while (hi - lo > 1 && path.depth < 32) {
    const std::size_t mid = lo + (hi - lo) / 2;  // mirrors BatchAccumulator::isolate
    if (index < mid) {
      hi = mid;  // left half: path bit 0
    } else {
      path.bits |= std::uint32_t{1} << path.depth;
      lo = mid;
    }
    ++path.depth;
  }
  return path;
}

void VerdictLedger::append(const LedgerEntry& entry) {
  obs::TelemetryRecord record;
  record.type = obs::TelemetryRecordType::kLedgerEntry;
  record.stream_id = stream_id_;
  record.seq = seq_++;
  record.payload = encode_ledger_entry(entry);
  const std::vector<std::uint8_t> encoded = obs::encode_telemetry_record(record);
  stream_.insert(stream_.end(), encoded.begin(), encoded.end());
}

LedgerReplay replay_ledger(std::span<const std::uint8_t> bytes) {
  const obs::TelemetryReplay replay = obs::replay_telemetry(bytes);
  LedgerReplay result;
  result.torn_tail = replay.torn_tail;
  result.clean_bytes = replay.clean_bytes;
  result.entries.reserve(replay.records.size());
  for (const obs::TelemetryRecord& record : replay.records) {
    if (record.type != obs::TelemetryRecordType::kLedgerEntry) {
      ++result.malformed_payloads;
      continue;
    }
    auto entry = decode_ledger_entry(record.payload);
    if (!entry) {
      ++result.malformed_payloads;
      continue;
    }
    result.entries.push_back(*entry);
  }
  return result;
}

}  // namespace seccloud::service
