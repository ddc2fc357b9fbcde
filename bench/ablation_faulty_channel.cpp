// Ablation E9 — audit sessions over faulty channels.
//
// Sweeps channel loss rate (drop + bit-flip probability on every message
// type) against the session retry budget, for an honest server and an
// always-cheating one, and reports the conclusive rate, detection rate,
// average attempts per session, and traffic overhead relative to the
// lossless channel. The headline claim: with a retry budget >= 5 the session
// layer reaches the same verdict the lossless channel would, even at 30%
// per-message fault probability — the network can delay an audit but cannot
// launder a cheating server into an inconclusive one.
#include <cstdio>

#include "bench_support.h"
#include "ibc/keys.h"
#include "pairing/group.h"
#include "seccloud/client.h"
#include "sim/crash.h"
#include "sim/session_link.h"

using namespace seccloud;
using pairing::PairingGroup;

namespace {

struct Row {
  sim::FaultyTrialStats honest;
  sim::FaultyTrialStats cheater;
};

Row run_row(const PairingGroup& group, double loss, std::size_t budget,
            std::size_t trials, std::uint64_t seed) {
  sim::FaultyTrialConfig config;
  config.plan = sim::FaultPlan::uniform_loss(loss);
  config.policy.max_attempts = budget;

  Row row;
  config.behavior = sim::ServerBehavior::honest();
  row.honest = sim::run_faulty_audit_trials(group, config, trials, seed);
  config.behavior.honest_compute_fraction = 0.0;  // guesses every sub-task
  row.cheater = sim::run_faulty_audit_trials(group, config, trials, seed);
  return row;
}

double per_trial(std::uint64_t total, std::size_t trials) {
  return trials == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(trials);
}

}  // namespace

int main() {
  seccloud::bench::Bench bench{"ablation_faulty_channel"};
  const PairingGroup& group = pairing::tiny_group();
  bench.use_group(group);
  const std::size_t trials = seccloud::bench::scaled(25, 6);
  const std::uint64_t seed = 0xFA171E5ULL;

  std::printf("=== E9: faulty-channel audit sessions (computation audit, %zu trials/cell) ===\n\n",
              trials);
  std::printf("%6s %7s | %11s %10s %9s %9s | %11s %10s %9s\n", "loss", "budget",
              "conclusive", "detect", "attempts", "traffic", "conclusive", "accept",
              "attempts");
  std::printf("%6s %7s | %43s | %33s\n", "", "", "---------------- cheater ----------------",
              "------------- honest -------------");

  // Lossless baselines for the traffic-overhead column.
  const Row baseline = run_row(group, 0.0, 1, trials, seed);
  const double cheater_baseline_bytes =
      per_trial(baseline.cheater.bytes_sent + baseline.cheater.bytes_received, trials);

  for (const double loss : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    for (const std::size_t budget : {1u, 2u, 4u, 8u}) {
      const Row row = run_row(group, loss, budget, trials, seed);
      const double traffic =
          per_trial(row.cheater.bytes_sent + row.cheater.bytes_received, trials);
      std::printf(
          "%6.2f %7zu | %10.0f%% %9.0f%% %9.2f %8.2fx | %10.0f%% %9.0f%% %9.2f\n", loss,
          budget, 100.0 * per_trial(row.cheater.conclusive(), trials),
          100.0 * per_trial(row.cheater.rejected, trials),
          per_trial(row.cheater.attempts, trials),
          cheater_baseline_bytes == 0.0 ? 0.0 : traffic / cheater_baseline_bytes,
          100.0 * per_trial(row.honest.conclusive(), trials),
          100.0 * per_trial(row.honest.accepted, trials),
          per_trial(row.honest.attempts, trials));
    }
    std::printf("\n");
  }

  // Channel-side fault accounting at the harshest cell, to show the injected
  // faults really happened (the sessions above survived them).
  const Row harsh = run_row(group, 0.3, 8, trials, seed);
  const sim::FaultTally& tally = harsh.cheater.channel;
  std::printf("fault tally at loss=0.30, budget=8 (cheater, both directions):\n");
  std::printf("  offered %llu  delivered %llu  dropped %llu  corrupted %llu\n",
              static_cast<unsigned long long>(tally.offered),
              static_cast<unsigned long long>(tally.delivered),
              static_cast<unsigned long long>(tally.dropped),
              static_cast<unsigned long long>(tally.corrupted));

  // Storage audits over the same channel, harsh cell only. Tracing starts
  // here so TRACE_ablation_faulty_channel.json holds exactly the storage-audit
  // sessions, each with its per-attempt retry spans nested underneath.
  bench.enable_tracing();
  sim::FaultyTrialConfig storage;
  storage.plan = sim::FaultPlan::uniform_loss(0.3);
  storage.policy.max_attempts = 8;
  storage.storage_audit = true;
  storage.sample_size = 8;
  storage.behavior.corrupt_fraction = 1.0;
  const auto storage_cheater = sim::run_faulty_audit_trials(group, storage, trials, seed);
  storage.behavior = sim::ServerBehavior::honest();
  const auto storage_honest = sim::run_faulty_audit_trials(group, storage, trials, seed);
  std::printf("\nstorage audit at loss=0.30, budget=8: honest accept %.0f%%, "
              "corrupting-server detect %.0f%%\n",
              100.0 * per_trial(storage_honest.accepted, trials),
              100.0 * per_trial(storage_cheater.rejected, trials));

  // One storage-audit session end to end, with its machine-readable report —
  // the session-layer counterpart of the aggregate table above.
  {
    num::Xoshiro256 rng{seed};
    const ibc::Sio sio{group, rng};
    const ibc::IdentityKey user_key = sio.extract("user@report");
    const ibc::IdentityKey server_key = sio.extract("cs@report");
    const ibc::IdentityKey da_key = sio.extract("da@report");
    const core::UserClient client{group, sio.params(), user_key, server_key.q_id,
                                  da_key.q_id};
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < 16; ++i) raw.push_back(core::DataBlock::from_value(i, i));
    sim::SimCloudServer server{group, server_key, "cs-report",
                               sim::ServerBehavior::honest(), seed};
    server.handle_store(user_key.id, client.sign_blocks(raw, rng));
    sim::FaultyAuditLink link{group, server, sim::FaultPlan::uniform_loss(0.3), seed + 9};
    link.bind_storage(user_key.q_id, user_key.id);
    core::RetryPolicy policy;
    policy.max_attempts = 8;
    const ibc::DesignatedVerifier da{group, da_key};
    core::AuditSession session{da, policy};
    const core::SessionReport report =
        session.run_storage_audit(link, core::SessionStart::fresh(rng), user_key.q_id, 16, 8,
                                  core::SignatureCheckMode::kBatch);
    std::printf("\nsingle storage session report (loss=0.30, budget=8):\n%s\n",
                report.to_json().c_str());
    bench.value("single_session_attempts", static_cast<double>(report.attempts));
  }

  // Crash-probability axis: the same seeded trial protocol, but a seeded
  // fraction of auditors is killed mid-session at a journal-record boundary
  // and resumed from the recovered journal. Recovered sessions must reach
  // the crash-free verdict and tallies bit for bit at every probability.
  std::printf("\n=== crash-recovery axis (storage audit, loss=0.20, budget=8) ===\n");
  std::printf("%8s | %8s %10s %14s %14s\n", "crash_p", "crashed", "recovered",
              "verdict match", "report match");
  sim::CrashRecoveryStats harshest;
  for (const double p : {0.0, 0.25, 0.5, 1.0}) {
    sim::CrashTrialConfig crash_config;
    crash_config.base.plan = sim::FaultPlan::uniform_loss(0.2);
    crash_config.base.policy.max_attempts = 8;
    crash_config.base.storage_audit = true;
    crash_config.base.sample_size = 8;
    crash_config.crash_probability = p;
    const auto stats = sim::run_crash_recovery_trials(group, crash_config, trials, seed);
    if (p == 1.0) harshest = stats;
    std::printf("%8.2f | %3zu/%-4zu %10zu %10zu/%-3zu %10zu/%-3zu\n", p, stats.crashed,
                stats.trials, stats.recovered, stats.verdict_matches, stats.recovered,
                stats.report_matches, stats.recovered);
  }

  bench.value("trials_per_cell", static_cast<double>(trials));
  bench.value("storage_honest_accept_rate", per_trial(storage_honest.accepted, trials));
  bench.value("storage_cheater_detect_rate", per_trial(storage_cheater.rejected, trials));
  bench.value("crash_trials_crashed", static_cast<double>(harshest.crashed));
  bench.value("crash_trials_recovered", static_cast<double>(harshest.recovered));
  bench.value("crash_verdict_match_rate",
              per_trial(harshest.verdict_matches, harshest.recovered));
  bench.value("crash_report_match_rate",
              per_trial(harshest.report_matches, harshest.recovered));
  return bench.finish();
}
