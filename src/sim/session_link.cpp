#include "sim/session_link.h"

#include <chrono>
#include <iterator>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
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

namespace {

std::vector<core::DataBlock> trial_blocks(std::size_t universe) {
  std::vector<core::DataBlock> raw;
  raw.reserve(universe);
  for (std::uint64_t i = 0; i < universe; ++i) {
    raw.push_back(core::DataBlock::from_value(i, 3 * i + 1));
  }
  return raw;
}

core::ComputationTask trial_task(const FaultyTrialConfig& config) {
  core::ComputationTask task;
  for (std::size_t i = 0; i < config.requests; ++i) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(i % 6);
    for (std::size_t j = 0; j < config.operands_per_request; ++j) {
      request.positions.push_back((i * config.operands_per_request + j) % config.universe);
    }
    task.requests.push_back(std::move(request));
  }
  return task;
}

}  // namespace

TrialRig::TrialRig(const PairingGroup& g, const FaultyTrialConfig& trial_config,
                   std::uint64_t base_seed, const std::string& tag)
    : group(g),
      config(trial_config),
      seed(base_seed),
      setup_rng{seed},
      sio{group, setup_rng},
      user_key(sio.extract("user@" + tag)),
      server_key(sio.extract("cs@" + tag)),
      da_key(sio.extract("da@" + tag)),
      client{group, sio.params(), user_key, server_key.q_id, da_key.q_id},
      blocks(client.sign_blocks(trial_blocks(config.universe), setup_rng)),
      task(trial_task(config)),
      da{group, da_key} {}

std::uint64_t TrialRig::trial_seed(std::size_t trial) const noexcept {
  // Trial i's whole random universe — server behaviour, sampling, fault
  // injection — derives from (seed, i): bit-reproducible, order-free.
  return seed + kGolden * (trial + 1);
}

AuditTrial::AuditTrial(const TrialRig& rig, std::size_t trial)
    : rig_(&rig),
      rng_{rig.trial_seed(trial)},
      server_{rig.group, rig.server_key, rig.server_key.id, rig.config.behavior,
              rig.trial_seed(trial) ^ kGolden},
      link_{rig.group, server_, rig.config.plan, rig.trial_seed(trial) + 7},
      session_{rig.da, rig.config.policy} {
  server_.handle_store(rig.user_key.id, rig.blocks);
  if (rig.config.storage_audit) {
    link_.bind_storage(rig.user_key.q_id, rig.user_key.id);
    return;
  }
  const auto outcome = server_.handle_compute(rig.user_key.id, rig.user_key.q_id,
                                              rig.da_key.q_id, rig.task, rng_);
  commitment_ = outcome.commitment;
  warrant_ = rig.client.make_warrant(rig.da_key.id, 100, rng_);
  link_.bind_computation(rig.user_key.q_id, outcome.task_id, 1);
}

core::SessionReport AuditTrial::run(core::SessionJournal* journal,
                                    const core::RecoveredSession* recovered) {
  const core::SessionStart start = recovered != nullptr
                                       ? core::SessionStart::resume(*recovered)
                                       : core::SessionStart::fresh(rng_);
  const FaultyTrialConfig& config = rig_->config;
  if (config.storage_audit) {
    return session_.run_storage_audit(link_, start, rig_->user_key.q_id, config.universe,
                                      config.sample_size, config.mode, journal);
  }
  return session_.run_computation_audit(link_, start, rig_->user_key.q_id, server_.q_id(),
                                        rig_->task, commitment_, warrant_,
                                        config.sample_size, config.mode, journal);
}

FaultyTrialStats run_faulty_audit_trials(const PairingGroup& group,
                                         const FaultyTrialConfig& config,
                                         std::size_t trials, std::uint64_t seed) {
  const TrialRig rig{group, config, seed, "faulty-mc"};
  FaultyTrialStats stats;
  stats.trials = trials;
  obs::Histogram& trial_ms = obs::default_registry().histogram("sim.trial_ms");
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const auto trial_begin = std::chrono::steady_clock::now();
    obs::Span trial_span = obs::trace_span("audit_trial");
    if (trial_span) trial_span.arg("trial", std::to_string(trial));
    AuditTrial audit{rig, trial};
    const core::SessionReport report = audit.run();

    switch (report.verdict) {
      case core::SessionVerdict::kAccepted: ++stats.accepted; break;
      case core::SessionVerdict::kRejected: ++stats.rejected; break;
      case core::SessionVerdict::kInconclusive: ++stats.inconclusive; break;
    }
    stats.attempts += report.attempts;
    stats.waited_units += report.waited_units;
    stats.bytes_sent += report.bytes_sent;
    stats.bytes_received += report.bytes_received;
    stats.channel += audit.link().tally();
    // The link is fresh per trial, so its tally is exactly this trial's
    // channel-side fault counts.
    publish(audit.link().tally(), obs::default_registry(), "channel");
    if (trial_span) trial_span.arg("verdict", core::to_string(report.verdict));
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - trial_begin;
    trial_ms.observe(elapsed.count());
  }
  return stats;
}

}  // namespace seccloud::sim
