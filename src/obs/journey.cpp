#include "obs/journey.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace seccloud::obs {
namespace {

using framing::get_le;
using framing::put_le;

// SplitMix64 finalizer — the standard 64-bit avalanche mix. Deterministic
// sampling wants every (seed, epoch, request_id) triple to land on an
// independent-looking coin while staying replayable byte-for-byte.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Nearest-rank percentile over an already-sorted vector.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted, double pct) noexcept {
  if (sorted.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      (pct / 100.0) * static_cast<double>(sorted.size()) + 0.5);
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

const char* to_string(JourneyStage stage) noexcept {
  switch (stage) {
    case JourneyStage::kEnqueue: return "enqueue";
    case JourneyStage::kAdmit: return "admit";
    case JourneyStage::kFilter: return "filter";
    case JourneyStage::kFlatten: return "flatten";
    case JourneyStage::kAttest: return "attest";
    case JourneyStage::kVerify: return "verify";
    case JourneyStage::kBisect: return "bisect";
    case JourneyStage::kVerdict: return "verdict";
  }
  return "unknown";
}

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kVerified: return "verified";
    case Verdict::kInvalidSignature: return "invalid-signature";
    case Verdict::kStaleReplay: return "stale-replay";
    case Verdict::kUnkeyed: return "unkeyed";
    case Verdict::kAttestationFailed: return "attestation-failed";
    case Verdict::kRejectedAdmission: return "rejected-admission";
  }
  return "unknown";
}

std::uint64_t JourneyRecord::stage_sum_us() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint32_t us : stage_us) sum += us;
  return sum;
}

// --- payload codec ----------------------------------------------------------

std::vector<std::uint8_t> encode_journey_record(const JourneyRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(kJourneyPayloadBytes);
  put_le(out, record.request_id);
  put_le(out, record.user);
  put_le(out, record.epoch);
  put_le(out, record.batch);
  put_le(out, record.request_index);
  put_le(out, record.blocks);
  put_le(out, record.retry_after_epochs);
  out.push_back(static_cast<std::uint8_t>(record.verdict));
  out.push_back(record.sampled);
  out.push_back(record.bisection_depth);
  out.push_back(0);  // reserved
  put_le(out, record.amortized_pairings_milli);
  for (const std::uint32_t us : record.stage_us) put_le(out, us);
  put_le(out, record.end_to_end_us);
  put_le<std::uint32_t>(out, 0);  // reserved
  return out;
}

std::optional<JourneyRecord> decode_journey_record(std::span<const std::uint8_t> payload) {
  if (payload.size() != kJourneyPayloadBytes) return std::nullopt;
  const std::uint8_t* p = payload.data();
  JourneyRecord r;
  r.request_id = get_le<std::uint64_t>(p + 0);
  r.user = get_le<std::uint64_t>(p + 8);
  r.epoch = get_le<std::uint64_t>(p + 16);
  r.batch = get_le<std::uint32_t>(p + 24);
  r.request_index = get_le<std::uint32_t>(p + 28);
  r.blocks = get_le<std::uint32_t>(p + 32);
  r.retry_after_epochs = get_le<std::uint32_t>(p + 36);
  const std::uint8_t verdict = p[40];
  if (verdict < 1 || verdict > static_cast<std::uint8_t>(Verdict::kRejectedAdmission)) {
    return std::nullopt;
  }
  r.verdict = static_cast<Verdict>(verdict);
  r.sampled = p[41];
  r.bisection_depth = p[42];
  r.amortized_pairings_milli = get_le<std::uint32_t>(p + 44);
  for (std::size_t i = 0; i < kJourneyStageCount; ++i) {
    r.stage_us[i] = get_le<std::uint32_t>(p + 48 + i * 4);
  }
  r.end_to_end_us = get_le<std::uint32_t>(p + 80);
  return r;
}

// --- framed stream ----------------------------------------------------------

JourneyReplay replay_journeys(std::span<const std::uint8_t> bytes) {
  const framing::Replay<std::uint8_t> replay = kJourneyFormat.replay(bytes);
  JourneyReplay result;
  result.torn_tail = replay.torn_tail;
  result.clean_bytes = replay.clean_bytes;
  for (const framing::Frame<std::uint8_t>& frame : replay.frames) {
    if (auto record = decode_journey_record(frame.payload)) {
      result.records.push_back(*record);
    } else {
      // Frame intact, payload malformed (wrong size / bad verdict byte): the
      // stream keeps replaying but the loss is visible to validators.
      ++result.malformed_payloads;
    }
  }
  return result;
}

// --- the recorder -----------------------------------------------------------

JourneyRecorder::JourneyRecorder(JourneyRecorderConfig config)
    : config_(config), stream_(kJourneyFormat, config.stream_id) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

bool JourneyRecorder::sample_probabilistic(std::uint64_t epoch,
                                           std::uint64_t request_id) const noexcept {
  if (config_.sample_every <= 1) return true;
  const std::uint64_t coin = mix64(config_.sample_seed ^ mix64(epoch) ^ request_id);
  return coin < (~std::uint64_t{0} / config_.sample_every);
}

void JourneyRecorder::record(const JourneyRecord& record) {
  const auto t0 = std::chrono::steady_clock::now();
  stream_.append(1, encode_journey_record(record));
  ring_.push_back(record);
  while (ring_.size() > config_.ring_capacity) ring_.pop_front();
  capture_ms_ += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
}

// --- critical-path attribution ----------------------------------------------

JourneyAttribution attribute_journeys(std::span<const JourneyRecord> records) {
  JourneyAttribution out;
  out.journeys = records.size();
  if (records.empty()) return out;

  std::vector<std::uint64_t> scratch(records.size());
  for (std::size_t stage = 0; stage < kJourneyStageCount; ++stage) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      scratch[i] = records[i].stage_us[stage];
      total += scratch[i];
    }
    std::sort(scratch.begin(), scratch.end());
    out.stages[stage] = StageAttribution{
        .p50_us = nearest_rank(scratch, 50.0),
        .p95_us = nearest_rank(scratch, 95.0),
        .p99_us = nearest_rank(scratch, 99.0),
        .total_us = total,
    };
  }

  for (std::size_t i = 0; i < records.size(); ++i) scratch[i] = records[i].end_to_end_us;
  std::sort(scratch.begin(), scratch.end());
  out.p99_end_to_end_us = nearest_rank(scratch, 99.0);

  // The journey that defines the p99: the slowest record at-or-below the
  // nearest-rank value, ties broken toward the lowest request id so the
  // pick is deterministic across runs.
  const JourneyRecord* pick = nullptr;
  for (const JourneyRecord& r : records) {
    if (r.end_to_end_us > out.p99_end_to_end_us) continue;
    if (pick == nullptr || r.end_to_end_us > pick->end_to_end_us ||
        (r.end_to_end_us == pick->end_to_end_us && r.request_id < pick->request_id)) {
      pick = &r;
    }
  }
  if (pick != nullptr) {
    out.p99_request_id = pick->request_id;
    const double denom = static_cast<double>(
        std::max<std::uint64_t>(pick->stage_sum_us(), 1));
    for (std::size_t stage = 0; stage < kJourneyStageCount; ++stage) {
      out.p99_share[stage] = static_cast<double>(pick->stage_us[stage]) / denom;
    }
  }
  return out;
}

}  // namespace seccloud::obs
