#include "sim/transport.h"

#include <string>

#include "obs/metrics.h"
#include "seccloud/codec.h"

namespace seccloud::sim {

std::uint64_t wire_size_point(const PairingGroup& group) {
  return 1 + 2 * group.fp().byte_width();  // 0x04 ‖ X ‖ Y
}

std::uint64_t wire_size_gt(const PairingGroup& group) { return 2 * group.fp().byte_width(); }

// Message sizes are exact: each delegates to the real wire codec.

std::uint64_t wire_size_signed_block(const PairingGroup& group, const SignedBlock& sb) {
  return core::encode_signed_block(group, sb).size();
}

std::uint64_t wire_size_task(const ComputationTask& task) {
  std::uint64_t total = 4;
  for (const auto& request : task.requests) {
    total += 1 + 4 + 8 * request.positions.size();
  }
  return total;
}

std::uint64_t wire_size_commitment(const PairingGroup& group, const Commitment& commitment) {
  return core::encode_commitment(group, commitment).size();
}

std::uint64_t wire_size_challenge(const PairingGroup& group, const AuditChallenge& challenge) {
  return core::encode_challenge(group, challenge).size();
}

std::uint64_t wire_size_response(const PairingGroup& group, const AuditResponse& response) {
  return core::encode_response(group, response).size();
}

// --- fault injection -------------------------------------------------------

FaultTally& FaultTally::operator+=(const FaultTally& other) noexcept {
  offered += other.offered;
  delivered += other.delivered;
  dropped += other.dropped;
  truncated += other.truncated;
  corrupted += other.corrupted;
  duplicated += other.duplicated;
  reordered += other.reordered;
  delayed += other.delayed;
  return *this;
}

void publish(const FaultTally& tally, obs::MetricsRegistry& registry,
             std::string_view prefix) {
  const std::string p{prefix};
  registry.counter(p + ".offered").inc(tally.offered);
  registry.counter(p + ".delivered").inc(tally.delivered);
  registry.counter(p + ".dropped").inc(tally.dropped);
  registry.counter(p + ".truncated").inc(tally.truncated);
  registry.counter(p + ".corrupted").inc(tally.corrupted);
  registry.counter(p + ".duplicated").inc(tally.duplicated);
  registry.counter(p + ".reordered").inc(tally.reordered);
  registry.counter(p + ".delayed").inc(tally.delayed);
}

FaultyChannel::FaultyChannel(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {}

bool FaultyChannel::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rng_.next_double() < p;
}

std::vector<core::Bytes> FaultyChannel::drain() {
  std::vector<core::Bytes> out;
  out.reserve(delayed_.size());
  for (auto& [type, msg] : delayed_) {
    ++total_.delivered;
    ++per_type_[core::message_type_index(type)].delivered;
    meter_.receive(msg.size());
    out.push_back(std::move(msg));
  }
  delayed_.clear();
  return out;
}

std::vector<core::Bytes> FaultyChannel::transmit(core::MessageType type,
                                                 std::span<const std::uint8_t> wire) {
  const FaultSpec& spec = plan_.spec(type);
  FaultTally& typed = per_type_[core::message_type_index(type)];
  ++total_.offered;
  ++typed.offered;
  meter_.send(wire.size());

  // Copies delayed by earlier transmits arrive first (they were sent first).
  std::vector<core::Bytes> out = drain();

  const bool duplicated = chance(spec.duplicate);
  if (duplicated) {
    ++total_.duplicated;
    ++typed.duplicated;
  }
  const int copies = duplicated ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    if (chance(spec.drop)) {
      ++total_.dropped;
      ++typed.dropped;
      continue;
    }
    core::Bytes msg(wire.begin(), wire.end());
    if (!msg.empty() && chance(spec.truncate)) {
      msg.resize(rng_.next_u64() % msg.size());  // strict prefix
      ++total_.truncated;
      ++typed.truncated;
    }
    if (!msg.empty() && chance(spec.bit_flip)) {
      const std::uint64_t flips = 1 + rng_.next_u64() % 4;
      for (std::uint64_t f = 0; f < flips; ++f) {
        msg[rng_.next_u64() % msg.size()] ^=
            static_cast<std::uint8_t>(1u << (rng_.next_u64() % 8));
      }
      ++total_.corrupted;
      ++typed.corrupted;
    }
    if (chance(spec.delay)) {
      delayed_.emplace_back(type, std::move(msg));
      ++total_.delayed;
      ++typed.delayed;
      continue;
    }
    total_.delivered += 1;
    typed.delivered += 1;
    meter_.receive(msg.size());
    out.push_back(std::move(msg));
  }

  if (out.size() >= 2 && chance(spec.reorder)) {
    const std::size_t i = rng_.next_u64() % out.size();
    std::size_t j = rng_.next_u64() % (out.size() - 1);
    if (j >= i) ++j;
    std::swap(out[i], out[j]);
    ++total_.reordered;
    ++typed.reordered;
  }
  return out;
}

}  // namespace seccloud::sim
