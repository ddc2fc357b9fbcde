#include "sim/session_link.h"

#include <chrono>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"

namespace seccloud::sim {
namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

FaultyAuditLink::FaultyAuditLink(const PairingGroup& group, SimCloudServer& server,
                                 const FaultPlan& plan, std::uint64_t seed)
    : group_(&group),
      server_(&server),
      forward_(plan, seed * kGolden + 1),
      reverse_(plan, seed * kGolden + 2) {}

void FaultyAuditLink::bind_computation(const Point& q_user, std::uint64_t task_id,
                                       std::uint64_t epoch) {
  q_user_ = q_user;
  task_id_ = task_id;
  epoch_ = epoch;
  computation_bound_ = true;
}

void FaultyAuditLink::bind_storage(const Point& q_user, std::string user_id) {
  q_user_ = q_user;
  user_id_ = std::move(user_id);
}

FaultTally FaultyAuditLink::tally() const noexcept {
  FaultTally total = forward_.tally();
  total += reverse_.tally();
  return total;
}

std::optional<Bytes> FaultyAuditLink::serve(const core::Frame& frame) {
  switch (frame.type) {
    case core::MessageType::kAuditChallenge: {
      if (!computation_bound_) return std::nullopt;
      const auto challenge = core::decode_challenge(*group_, frame.payload);
      if (!challenge) return std::nullopt;
      const core::AuditResponse response =
          server_->handle_audit(q_user_, task_id_, *challenge, epoch_);
      return core::encode_response(*group_, response);
    }
    case core::MessageType::kStorageChallenge: {
      if (user_id_.empty()) return std::nullopt;
      const auto challenge = core::decode_challenge(*group_, frame.payload);
      if (!challenge) return std::nullopt;
      const std::vector<SignedBlock> blocks =
          server_->retrieve_blocks(user_id_, challenge->sample_indices);
      return core::encode_block_list(*group_, blocks);
    }
    case core::MessageType::kAuditResponse:
    case core::MessageType::kStorageResponse:
      return std::nullopt;  // replies never flow DA → CS
  }
  return std::nullopt;
}

std::vector<Bytes> FaultyAuditLink::exchange(core::MessageType type, const Bytes& frame) {
  // Late replies from earlier attempts finally arrive (the DA polls the pipe
  // while it waits for this attempt).
  std::vector<Bytes> replies = reverse_.drain();

  for (const Bytes& raw : forward_.transmit(type, frame)) {
    server_->traffic().receive(raw.size());
    const auto decoded = core::decode_frame(raw);
    if (!decoded) continue;  // garbled in flight — the server ignores it
    const auto payload = serve(*decoded);
    if (!payload) continue;
    const core::MessageType reply_type =
        decoded->type == core::MessageType::kAuditChallenge
            ? core::MessageType::kAuditResponse
            : core::MessageType::kStorageResponse;
    // Echo (session, seq) so the DA can match the reply to its attempt.
    const Bytes reply =
        core::encode_frame(reply_type, decoded->stream_id, decoded->seq, *payload);
    server_->traffic().send(reply.size());
    auto delivered = reverse_.transmit(reply_type, reply);
    replies.insert(replies.end(), std::make_move_iterator(delivered.begin()),
                   std::make_move_iterator(delivered.end()));
  }
  return replies;
}

// --- Monte-Carlo over lossy channels ---------------------------------------

FaultyTrialStats run_faulty_audit_trials(const PairingGroup& group,
                                         const FaultyTrialConfig& config,
                                         std::size_t trials, std::uint64_t seed) {
  num::Xoshiro256 setup_rng{seed};
  const ibc::Sio sio{group, setup_rng};
  const ibc::IdentityKey user_key = sio.extract("user@faulty-mc");
  const ibc::IdentityKey server_key = sio.extract("cs@faulty-mc");
  const ibc::IdentityKey da_key = sio.extract("da@faulty-mc");
  const core::UserClient client{group, sio.params(), user_key, server_key.q_id,
                                da_key.q_id};

  std::vector<core::DataBlock> raw_blocks;
  raw_blocks.reserve(config.universe);
  for (std::uint64_t i = 0; i < config.universe; ++i) {
    raw_blocks.push_back(core::DataBlock::from_value(i, 3 * i + 1));
  }
  const std::vector<SignedBlock> blocks = client.sign_blocks(raw_blocks, setup_rng);

  core::ComputationTask task;
  for (std::size_t i = 0; i < config.requests; ++i) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(i % 6);
    for (std::size_t j = 0; j < config.operands_per_request; ++j) {
      request.positions.push_back((i * config.operands_per_request + j) % config.universe);
    }
    task.requests.push_back(std::move(request));
  }

  FaultyTrialStats stats;
  stats.trials = trials;
  obs::Histogram& trial_ms = obs::default_registry().histogram("sim.trial_ms");
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const auto trial_begin = std::chrono::steady_clock::now();
    obs::Span trial_span = obs::trace_span("audit_trial");
    if (trial_span) trial_span.arg("trial", std::to_string(trial));
    // Trial i's whole random universe — server behaviour, sampling, fault
    // injection — derives from (seed, i): bit-reproducible, order-free.
    const std::uint64_t base = seed + kGolden * (trial + 1);
    num::Xoshiro256 trial_rng{base};
    SimCloudServer server{group, server_key, "cs-faulty", config.behavior, base ^ kGolden};
    server.handle_store(user_key.id, blocks);
    FaultyAuditLink link{group, server, config.plan, base + 7};
    core::AuditSession session{group, config.policy};

    core::SessionReport report;
    if (config.storage_audit) {
      link.bind_storage(user_key.q_id, user_key.id);
      report = session.run_storage_audit(link, user_key.q_id, config.universe,
                                         config.sample_size, da_key, config.mode,
                                         trial_rng);
    } else {
      const auto outcome =
          server.handle_compute(user_key.id, user_key.q_id, da_key.q_id, task, trial_rng);
      const core::Warrant warrant = client.make_warrant(da_key.id, 100, trial_rng);
      link.bind_computation(user_key.q_id, outcome.task_id, 1);
      report = session.run_computation_audit(link, user_key.q_id, server.q_id(), task,
                                             outcome.commitment, warrant,
                                             config.sample_size, da_key, config.mode,
                                             trial_rng);
    }

    switch (report.verdict) {
      case core::SessionVerdict::kAccepted: ++stats.accepted; break;
      case core::SessionVerdict::kRejected: ++stats.rejected; break;
      case core::SessionVerdict::kInconclusive: ++stats.inconclusive; break;
    }
    stats.attempts += report.attempts;
    stats.waited_units += report.waited_units;
    stats.bytes_sent += report.bytes_sent;
    stats.bytes_received += report.bytes_received;
    stats.channel += link.tally();
    // The link is fresh per trial, so its tally is exactly this trial's
    // channel-side fault counts.
    publish(link.tally(), obs::default_registry(), "channel");
    if (trial_span) trial_span.arg("verdict", core::to_string(report.verdict));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - trial_begin;
    trial_ms.observe(elapsed.count());
  }
  return stats;
}

}  // namespace seccloud::sim
