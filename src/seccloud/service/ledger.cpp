#include "seccloud/service/ledger.h"

namespace seccloud::service {
namespace {

using framing::get_le;
using framing::put_le;

constexpr std::size_t kPayloadBytes = 64;

}  // namespace

std::vector<std::uint8_t> encode_ledger_entry(const LedgerEntry& entry) {
  std::vector<std::uint8_t> out;
  out.reserve(kPayloadBytes);
  put_le(out, entry.epoch);
  put_le(out, entry.user);
  put_le(out, entry.version);
  put_le(out, entry.batch);
  put_le(out, entry.request_index);
  put_le(out, entry.block_index);
  put_le(out, entry.entry_in_batch);
  out.push_back(static_cast<std::uint8_t>(entry.verdict));
  out.push_back(entry.isolation_depth);
  put_le(out, std::uint16_t{0});  // reserved
  put_le(out, entry.isolation_path);
  put_le(out, entry.batch_pairings);
  put_le(out, entry.journey_id);
  return out;
}

std::optional<LedgerEntry> decode_ledger_entry(std::span<const std::uint8_t> payload) {
  if (payload.size() != kPayloadBytes) return std::nullopt;
  const std::uint8_t* p = payload.data();
  LedgerEntry entry;
  entry.epoch = get_le<std::uint64_t>(p + 0);
  entry.user = get_le<std::uint64_t>(p + 8);
  entry.version = get_le<std::uint64_t>(p + 16);
  entry.batch = get_le<std::uint32_t>(p + 24);
  entry.request_index = get_le<std::uint32_t>(p + 28);
  entry.block_index = get_le<std::uint32_t>(p + 32);
  entry.entry_in_batch = get_le<std::uint32_t>(p + 36);
  const std::uint8_t verdict = p[40];
  // A drained request or entry never ends in kRejectedAdmission.
  if (verdict < 1 || verdict > static_cast<std::uint8_t>(obs::Verdict::kAttestationFailed)) {
    return std::nullopt;
  }
  entry.verdict = static_cast<obs::Verdict>(verdict);
  entry.isolation_depth = p[41];
  entry.isolation_path = get_le<std::uint32_t>(p + 44);
  entry.batch_pairings = get_le<std::uint64_t>(p + 48);
  entry.journey_id = get_le<std::uint64_t>(p + 56);
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

LedgerReplay replay_ledger(std::span<const std::uint8_t> bytes) {
  const obs::TelemetryReplay replay = obs::replay_telemetry(bytes);
  LedgerReplay result;
  result.torn_tail = replay.torn_tail;
  result.clean_bytes = replay.clean_bytes;
  result.entries.reserve(replay.frames.size());
  for (const obs::TelemetryRecord& record : replay.frames) {
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
