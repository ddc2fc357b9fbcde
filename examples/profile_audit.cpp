// Cost-attribution profile of a full audit run — and an empirical check of
// the paper's pairing-count model.
//
// Runs three sessions over a lossless channel under one steady-clock tracer:
// a clean storage audit (Protocol II, batch mode), a storage audit against a
// block-corrupting server (batch reject + bisection isolation), and a clean
// computation audit (Algorithm 1, batch mode). The trace is aggregated into
// a call-path profile, exported as FLAME_profile_audit.txt (collapsed-stack
// flamegraph) and PROFILE_profile_audit.json (paths, phases, and the
// Table I predicted-vs-measured section), and the per-phase pairing counts
// are compared EXACTLY against the analytical model:
//
//   challenge / merkle_check             0 pairings (sampling and hashing)
//   transmit                             1 pairing per computation audit —
//                                        the CS verifies the DA warrant
//                                        (Eq. 7) before answering; storage
//                                        exchanges pair nothing
//   computation_audit (self)             1 pairing  (Sig_CS(R), Eq. 7)
//   batch_verify                         1 pairing per batch (Eq. 8/9)
//   bisection_isolate                    1 pairing per failing range of two
//                                        or more entries below the rejected
//                                        aggregate: 6 for this run's 3 bad
//                                        of 8
//
// Exits nonzero if any phase's measured count deviates from the model.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ibc/keys.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "pairing/group.h"
#include "seccloud/client.h"
#include "sim/session_link.h"

using namespace seccloud;
using pairing::PairingGroup;

namespace {

constexpr std::uint64_t kSeed = 0x9E1D5ULL;
constexpr std::size_t kUniverse = 32;
constexpr std::size_t kSamples = 8;
constexpr const char* kDaId = "da@profile";

core::ComputationTask make_task(std::size_t requests) {
  core::ComputationTask task;
  for (std::size_t i = 0; i < requests; ++i) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(i % 6);
    request.positions.push_back((2 * i) % kUniverse);
    request.positions.push_back((2 * i + 1) % kUniverse);
    task.requests.push_back(std::move(request));
  }
  return task;
}

/// One audit session against a fresh server with the given behaviour; the
/// lossless plan means exactly one attempt, so the trace holds one
/// challenge / transmit / verify triple per session.
core::SessionReport run_session(const PairingGroup& group, const ibc::Sio& sio,
                                const core::UserClient& client,
                                const ibc::DesignatedVerifier& da,
                                const std::vector<core::SignedBlock>& blocks,
                                const sim::ServerBehavior& behavior, bool storage,
                                std::uint64_t seed) {
  const ibc::IdentityKey user_key = sio.extract("user@profile");
  const ibc::IdentityKey server_key = sio.extract("cs@profile");
  num::Xoshiro256 rng{seed};
  sim::SimCloudServer server{group, server_key, "cs-profile", behavior, seed ^ 0xC0FFEE};
  server.handle_store(user_key.id, blocks);
  sim::FaultyAuditLink link{group, server, sim::FaultPlan::uniform_loss(0.0), seed + 1};
  core::AuditSession session{da, core::RetryPolicy{}};
  if (storage) {
    link.bind_storage(user_key.q_id, user_key.id);
    return session.run_storage_audit(link, core::SessionStart::fresh(rng), user_key.q_id,
                                     kUniverse, kSamples, core::SignatureCheckMode::kBatch);
  }
  const core::ComputationTask task = make_task(12);
  const auto outcome =
      server.handle_compute(user_key.id, user_key.q_id, da.q_id(), task, rng);
  const core::Warrant warrant = client.make_warrant(kDaId, 100, rng);
  link.bind_computation(user_key.q_id, outcome.task_id, 1);
  return session.run_computation_audit(link, core::SessionStart::fresh(rng), user_key.q_id,
                                       server.q_id(), task, outcome.commitment, warrant,
                                       kSamples, core::SignatureCheckMode::kBatch);
}

}  // namespace

int main() {
  const PairingGroup& group = pairing::tiny_group();
  obs::Tracer tracer{obs::Tracer::Clock::kSteady};

  core::SessionReport clean_storage, bad_storage, computation;
  {
    obs::TracerScope scope{&tracer};

    num::Xoshiro256 setup_rng{kSeed};
    const ibc::Sio sio{group, setup_rng};
    const ibc::IdentityKey user_key = sio.extract("user@profile");
    const ibc::IdentityKey server_key = sio.extract("cs@profile");
    const ibc::IdentityKey da_key = sio.extract(kDaId);
    const core::UserClient client{group, sio.params(), user_key, server_key.q_id,
                                  da_key.q_id};
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < kUniverse; ++i) {
      raw.push_back(core::DataBlock::from_value(i, 3 * i + 1));
    }
    const std::vector<core::SignedBlock> blocks = client.sign_blocks(raw, setup_rng);
    const ibc::DesignatedVerifier da{group, da_key};

    clean_storage = run_session(group, sio, client, da, blocks,
                                sim::ServerBehavior::honest(), /*storage=*/true, kSeed);
    sim::ServerBehavior corrupting;
    corrupting.corrupt_fraction = 0.4;
    bad_storage = run_session(group, sio, client, da, blocks, corrupting,
                              /*storage=*/true, kSeed + 1);
    computation = run_session(group, sio, client, da, blocks,
                              sim::ServerBehavior::honest(), /*storage=*/false, kSeed + 2);
  }

  std::printf("=== Profiled audit run: storage (clean + corrupting CS) and computation ===\n\n");
  std::printf("clean storage audit:   %s\n", core::to_string(clean_storage.verdict));
  std::printf("corrupted storage:     %s (%zu invalid isolated, %llu oracle calls, depth %zu)\n",
              core::to_string(bad_storage.verdict),
              bad_storage.storage.invalid_signature_entries.size(),
              static_cast<unsigned long long>(bad_storage.storage.bisection.oracle_calls),
              bad_storage.storage.bisection.max_depth);
  std::printf("computation audit:     %s\n\n", core::to_string(computation.verdict));

  int failures = 0;
  if (clean_storage.verdict != core::SessionVerdict::kAccepted) {
    std::printf("FAIL: clean storage audit did not accept\n");
    ++failures;
  }
  if (bad_storage.verdict != core::SessionVerdict::kRejected) {
    std::printf("FAIL: corrupted storage audit did not reject (no bisection exercised)\n");
    ++failures;
  }
  if (computation.verdict != core::SessionVerdict::kAccepted) {
    std::printf("FAIL: clean computation audit did not accept\n");
    ++failures;
  }

  const obs::Profile profile = obs::Profile::from_tracer(tracer);
  const obs::CostTable costs = obs::CostTable::paper_table1();
  std::ofstream("FLAME_profile_audit.txt") << profile.to_collapsed();
  std::ofstream("PROFILE_profile_audit.json") << profile.to_json(&costs) << '\n';
  std::printf("wrote FLAME_profile_audit.txt and PROFILE_profile_audit.json (%zu paths)\n\n",
              profile.paths().size());

  // The analytical pairing model, phase by phase. Self (exclusive) counts:
  // a phase is charged only the pairings outside its profiled children.
  struct Expectation {
    const char* phase;
    std::uint64_t pairings;
    const char* model;
  };
  const std::vector<Expectation> expectations = {
      {"challenge", 0, "transport + sampling only"},
      {"transmit", 1, "CS warrant check (Eq. 7), computation audit only"},
      {"merkle_check", 0, "H(y||p) + sibling hashes (Eq. 17)"},
      {"storage_audit", 0, "all pairings in child phases"},
      {"computation_audit", 1, "Sig_CS(R) check, Eq. 7"},
      {"batch_verify", 3, "1 per batch (Eq. 8/9), 3 batches run"},
      {"bisection_isolate", 6, "3 bad of 8: 1 per failing internal range"},
  };

  std::printf("%-20s %6s | %9s %9s | %s\n", "phase", "spans", "measured", "expected",
              "model");
  std::printf("%-20s %6s | %9s %9s |\n", "", "", "pairings", "pairings");
  const std::vector<obs::PhaseStats> phases = profile.phases();
  for (const auto& expect : expectations) {
    const obs::PhaseStats* found = nullptr;
    for (const auto& phase : phases) {
      if (phase.name == expect.phase) found = &phase;
    }
    const std::uint64_t measured = found != nullptr ? found->excl_ops.pairings : 0;
    const bool ok = measured == expect.pairings;
    if (!ok) ++failures;
    std::printf("%-20s %6llu | %9llu %9llu | %s%s\n", expect.phase,
                static_cast<unsigned long long>(found != nullptr ? found->count : 0),
                static_cast<unsigned long long>(measured),
                static_cast<unsigned long long>(expect.pairings), expect.model,
                ok ? "" : "  << MISMATCH");
    if (found == nullptr && expect.pairings == 0 && std::string(expect.phase) != "merkle_check") {
      // A zero-pairing phase that never even appeared means the span
      // plumbing regressed (merkle_check is computation-audit-only and
      // checked below).
      std::printf("%-20s        | missing from trace  << MISMATCH\n", "");
      ++failures;
    }
  }
  // merkle_check must exist (the computation audit ran one sweep).
  bool merkle_seen = false;
  for (const auto& phase : phases) merkle_seen |= phase.name == "merkle_check";
  if (!merkle_seen) {
    std::printf("FAIL: merkle_check phase missing from the trace\n");
    ++failures;
  }

  const pairing::OpCounters total = profile.total_ops();
  std::printf(
      "\ntotal attributed ops: pairings=%llu point_muls=%llu msm_terms=%llu "
      "hash_to_points=%llu\n",
      static_cast<unsigned long long>(total.pairings),
      static_cast<unsigned long long>(total.point_muls),
      static_cast<unsigned long long>(total.msm_terms),
      static_cast<unsigned long long>(total.hash_to_points));
  std::printf("%s\n", failures == 0 ? "\nall phase pairing counts match the analytical model"
                                    : "\nPHASE MODEL MISMATCH — see rows above");
  return failures == 0 ? 0 : 1;
}
