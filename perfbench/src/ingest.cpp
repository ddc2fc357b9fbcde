// ingest_audit: the write path beside the fleets' read path. One closed-loop
// client cycles over the users of a core::SecCloudSystem; each session signs
// 64 new blocks (SystemUser::sign_blocks), stores them (SystemServer::store:
// the CS batch-screens one signer's upload), runs a 1024-subtask computation
// over them (SystemServer::compute: Merkle commitment + Sig_CS(R)) and has
// the DA audit it twice with Algorithm 1 in batch mode, each on a fresh
// sample.
//
// The audit follows SystemAgency::audit step for step (warrant, challenge,
// server response, verify) but verifies on an engine with as many lanes as
// the audit service's. A serial audit's latency follows whichever core it lands on
// and swung by a third between runs on a shared host; spread across the
// lanes it is steady. Two audits per upload give a run enough audits for a
// p90 with ten samples beyond it.
#include <cstdio>

#include "common.h"
#include "merkle/tree.h"
#include "obs/metrics.h"
#include "pairing/group.h"
#include "seccloud/system.h"
#include "stats.h"

namespace perfbench {

using namespace seccloud;

IngestShape ingest_shape(bool smoke) {
  if (!smoke) return {};
  return {.users = 2,
          .blocks_per_session = 8,
          .subtasks = 32,
          .positions_per_subtask = 4,
          .samples = 8,
          .audits_per_session = 2,
          .setup_repeats = 2};
}

namespace {

/// Traced pass: uploads also pushed through an AuditService epoch and
/// replayed layer by layer (every second traced session).
constexpr std::size_t kReplaySessions = 8;
constexpr std::size_t kWarmupSessions = 2;

/// Uploads one system serves before the client moves to a fresh one (same
/// seed, so the same keys). The facade's server keeps every computed task, so
/// without rotation peak RSS would grow with the number of sessions a run
/// completes, i.e. with speed.
constexpr std::uint64_t kSessionsPerSystem = 32;

struct IngestState {
  IngestState() = default;
  IngestState(const IngestState&) = delete;
  IngestState& operator=(const IngestState&) = delete;
  ~IngestState() { let_pool_workers_settle(); }

  std::unique_ptr<core::SecCloudSystem> sys;
  std::vector<core::SystemUser> users;  ///< registered in sys
  std::unique_ptr<pairing::ParallelPairingEngine> engine;  ///< the DA's verifier lanes
};

/// (Re)creates the system: SIO, CS and DA keys, user keys, empty server.
void reset_system(IngestState& st, const pairing::PairingGroup& group, std::size_t users,
                  std::uint64_t seed) {
  st.users.clear();  // they point into the old system
  st.sys = std::make_unique<core::SecCloudSystem>(group, seed);
  for (std::size_t u = 0; u < users; ++u) {
    st.users.push_back(st.sys->register_user("user-" + std::to_string(u)));
  }
}

std::unique_ptr<IngestState> setup_ingest(const pairing::PairingGroup& group,
                                          std::size_t users, std::uint64_t seed) {
  auto st = std::make_unique<IngestState>();
  reset_system(*st, group, users, seed);
  st->engine = std::make_unique<pairing::ParallelPairingEngine>(group, kPoolThreads);
  return st;
}

struct SessionInput {
  std::size_t user = 0;
  std::vector<core::DataBlock> blocks;
  core::ComputationTask task;
};

/// Session `s` of the seeded stream. A user's blocks reuse its own index
/// range, so the server's store stays one upload per user.
SessionInput make_session(const IngestShape& shape, std::uint64_t seed, std::uint64_t s) {
  num::Xoshiro256 rng{seed * 0x9E3779B97F4A7C15ULL + s * 0xD1B54A32D192ED03ULL + 7};
  SessionInput in;
  in.user = static_cast<std::size_t>(s % shape.users);
  const std::uint64_t base = in.user * shape.blocks_per_session;
  for (std::size_t j = 0; j < shape.blocks_per_session; ++j) {
    in.blocks.push_back(core::DataBlock::from_value(base + j, rng.next_u64()));
  }
  in.task.requests.resize(shape.subtasks);
  for (core::ComputeRequest& request : in.task.requests) {
    request.kind = static_cast<core::FuncKind>(rng.next_u64() % 6);
    for (std::size_t k = 0; k < shape.positions_per_subtask; ++k) {
      request.positions.push_back(base + rng.next_u64() % shape.blocks_per_session);
    }
  }
  return in;
}

constexpr std::uint64_t kDigestSessions = 64;

std::string ingest_digest(const IngestShape& shape, std::uint64_t seed) {
  hash::Sha256 sha;
  sha.update(std::string_view{"ingest_audit"});
  for (std::uint64_t s = 0; s < kDigestSessions; ++s) {
    const SessionInput in = make_session(shape, seed, s);
    put_u64(sha, in.user);
    for (const core::DataBlock& block : in.blocks) {
      put_u64(sha, block.index);
      sha.update(block.payload);
    }
    for (const core::ComputeRequest& request : in.task.requests) {
      put_u64(sha, static_cast<std::uint64_t>(request.kind));
      for (const std::uint64_t p : request.positions) put_u64(sha, p);
    }
  }
  return hash::to_hex(sha.finish());
}

struct SessionOutcome {
  double sign_ms = 0.0;
  double store_ms = 0.0;
  std::vector<double> audit_ms;  ///< one per audit of the session's task
  std::size_t blocks = 0;
  std::uint64_t errors = 0;  ///< over the session's operations: upload, audits
  std::vector<core::SignedBlock> upload;  ///< kept only for the service replay
};

SessionOutcome run_session(IngestState& st, const IngestShape& shape, SessionInput in,
                           std::uint64_t session, bool keep_upload) {
  SessionOutcome out;
  const core::SystemUser& user = st.users.at(in.user);
  core::SystemServer& server = st.sys->cloud_server();
  const core::SystemAgency& agency = st.sys->agency();
  out.blocks = in.blocks.size();

  TimedSpan sign{"core.sign_blocks"};
  std::vector<core::SignedBlock> signed_blocks = user.sign_blocks(std::move(in.blocks));
  out.sign_ms = sign.end();
  if (keep_upload) out.upload = signed_blocks;

  TimedSpan store{"core.store"};
  const bool stored = server.store(user.key().q_id, std::move(signed_blocks));
  out.store_ms = store.end();
  if (!stored) ++out.errors;

  const core::ComputationTask task = in.task;
  core::SystemServer::ExecutedTask executed;
  {
    TimedSpan span{"core.compute"};
    executed = server.compute(user.key().q_id, std::move(in.task));
  }

  for (std::size_t a = 0; a < shape.audits_per_session; ++a) {
    const std::uint64_t epoch = session * shape.audits_per_session + a;
    TimedSpan audit{"core.audit"};
    const core::AuditChallenge challenge = agency.challenge(
        task.requests.size(), shape.samples, user.delegate_audit(epoch + 16));
    const core::AuditResponse response =
        server.respond(user.key().q_id, executed.task_id, challenge, epoch);
    const core::AuditReport report = core::verify_computation_audit(
        *st.engine, user.key().q_id, server.key().q_id, task, executed.commitment, challenge,
        response, agency.key(), core::SignatureCheckMode::kBatch);
    out.audit_ms.push_back(audit.end());
    if (!report.accepted) ++out.errors;
  }

  if (obs::current_tracer() != nullptr) {
    // Merkle layer: rebuild the commitment's tree over the session's results
    // and check sampled audit paths against the committed root.
    std::vector<merkle::Digest> leaves;
    leaves.reserve(task.requests.size());
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      leaves.push_back(merkle::MerkleTree::leaf_hash(
          core::result_leaf_bytes(task.requests[i], executed.commitment.results[i])));
    }
    std::optional<merkle::MerkleTree> tree;
    {
      TimedSpan span{"merkle.build"};
      tree = merkle::MerkleTree::build(std::move(leaves));
    }
    if (tree->root() != executed.commitment.root) ++out.errors;
    for (std::size_t k = 0; k < shape.samples; ++k) {
      const std::size_t index = (k * 7919) % tree->leaf_count();
      const merkle::Proof proof = tree->prove(index);
      TimedSpan span{"merkle.proof_verify"};
      if (!merkle::MerkleTree::verify(tree->root(), tree->leaf(index), proof)) ++out.errors;
    }
  }
  return out;
}

struct LoopStats {
  std::uint64_t sessions = 0;
  std::uint64_t blocks = 0;
  double audit_ms = 0.0;
  double ingest_ms = 0.0;
  std::vector<double> audit_samples;
  std::vector<double> ingest_samples;

  void add(const SessionOutcome& out) {
    ++sessions;
    blocks += out.blocks;
    for (const double ms : out.audit_ms) audit_ms += ms;
    ingest_ms += out.sign_ms + out.store_ms;
    audit_samples.insert(audit_samples.end(), out.audit_ms.begin(), out.audit_ms.end());
    ingest_samples.push_back(out.sign_ms + out.store_ms);
  }
  double audits_per_s() const {
    return audit_ms > 0.0 ? 1000.0 * static_cast<double>(audit_samples.size()) / audit_ms
                          : 0.0;
  }
};

}  // namespace

void probe_core_sessions(const pairing::PairingGroup& group, std::uint64_t seed,
                         std::size_t sessions, bool smoke, Result& result) {
  const IngestShape shape = ingest_shape(smoke);
  const std::unique_ptr<IngestState> st = setup_ingest(group, shape.users, seed);
  for (std::uint64_t s = 0; s < sessions; ++s) {
    result.attempted += 1 + shape.audits_per_session;
    result.failed += run_session(*st, shape, make_session(shape, seed, s), s, false).errors;
  }
}

Result run_ingest(const Options& o) {
  const IngestShape shape = ingest_shape(o.smoke);
  const pairing::PairingGroup& group =
      o.smoke ? pairing::tiny_group() : pairing::default_group();
  Result res;

  // Set-up, repeated; the median is reported: SIO, CS/DA keys, every user's
  // key extraction and the DA's engine.
  std::vector<double> setup_s;
  std::unique_ptr<IngestState> st;
  for (std::size_t rep = 0; rep < shape.setup_repeats; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    st = setup_ingest(group, shape.users, o.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  res.input_digest = ingest_digest(shape, o.seed);

  char line[256];
  std::snprintf(line, sizeof line,
                "shape: %zu users, 1 client (closed loop), %zu blocks/upload (one signer), "
                "%zu subtasks x %zu positions, %zu audits/upload at t = %zu samples, "
                "batch-mode verify on %zu lanes",
                shape.users, shape.blocks_per_session, shape.subtasks,
                shape.positions_per_subtask, shape.audits_per_session, shape.samples,
                kPoolThreads);
  res.log.push_back(line);

  std::uint64_t session = 0;
  std::vector<std::pair<std::size_t, std::vector<core::SignedBlock>>> uploads;  // (user, blocks)
  // Runs sessions until `seconds` have passed and, for up to twice that,
  // until `min_audits` audits ran; `keep(n)` picks the uploads of the loop's
  // n-th session to keep.
  const auto measure = [&](double seconds, LoopStats& stats, auto keep,
                           std::size_t min_audits = 1) {
    const Clock::time_point start = Clock::now();
    do {
      if (session > 0 && session % kSessionsPerSystem == 0) {
        reset_system(*st, group, shape.users, o.seed);
      }
      SessionInput in = make_session(shape, o.seed, session);
      const std::size_t user = in.user;
      const bool keep_upload = keep(stats.sessions);
      SessionOutcome out = run_session(*st, shape, std::move(in), session, keep_upload);
      ++session;
      res.attempted += 1 + shape.audits_per_session;
      res.failed += out.errors;
      stats.add(out);
      if (keep_upload) uploads.emplace_back(user, std::move(out.upload));
      const double elapsed_ms = ms_between(start, Clock::now());
      if (elapsed_ms >= 1000.0 * seconds &&
          (stats.audit_samples.size() >= min_audits || elapsed_ms >= 2000.0 * seconds)) {
        break;
      }
    } while (true);
  };
  const auto keep_none = [](std::uint64_t) { return false; };
  LoopStats warmup;  // untimed
  for (std::size_t k = 0; k < kWarmupSessions; ++k) measure(0.0, warmup, keep_none);

  if (!o.trace) {
    LoopStats stats;
    measure(o.seconds, stats, keep_none, min_samples_for(90.0));
    res.metrics = {
        {"setup_s", "s", percentile(setup_s, 50.0)},
        {"audits_per_s", "1/s", stats.audits_per_s()},
        {"audit_p50_ms", "ms", percentile(stats.audit_samples, 50.0)},
        {"audit_p90_ms", "ms", percentile(stats.audit_samples, 90.0)},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
    };
    const double ingest_blocks_per_s =
        stats.ingest_ms > 0.0 ? 1000.0 * static_cast<double>(stats.blocks) / stats.ingest_ms
                              : 0.0;
    std::snprintf(line, sizeof line,
                  "ingest: %.3f blocks/s, p50 %.3f ms, p90 %.3f ms per %zu-block upload",
                  ingest_blocks_per_s, percentile(stats.ingest_samples, 50.0),
                  percentile(stats.ingest_samples, 90.0), shape.blocks_per_session);
    res.log.push_back(line);
    std::snprintf(line, sizeof line,
                  "samples: %zu audits over %llu uploads; p90 has %zu beyond it "
                  "(%s: >= %zu needed)",
                  stats.audit_samples.size(), static_cast<unsigned long long>(stats.sessions),
                  samples_beyond(stats.audit_samples.size(), 90.0),
                  percentile_supported(stats.audit_samples.size(), 90.0) ? "ok" : "SHORT",
                  kMinSamplesBeyond);
    res.log.push_back(line);
    return res;
  }

  // --- traced run: untraced half, traced half, then replays and probes ------
  LayerTotals totals;
  totals.pool_threads = kPoolThreads;
  LoopStats untraced;
  measure(o.seconds / 2.0, untraced, keep_none);
  totals.audits_per_s_untraced = untraced.audits_per_s();

  obs::Tracer tracer;
  {
    obs::TracerScope scope{&tracer};
    span_clock().clear();
    LoopStats traced;
    measure(o.seconds / 2.0, traced,
            [&uploads](std::uint64_t n) { return n % 2 == 0 && uploads.size() < kReplaySessions; });
    totals.audits_per_s_traced = traced.audits_per_s();

    // The DA's audit service checking each kept upload: one request of the
    // session's signed blocks, verified in one epoch, then replayed.
    core::SecCloudSystem& sys = *st->sys;
    obs::MetricsRegistry service_metrics;
    service::ServiceConfig config;
    config.epoch.batch_capacity = shape.blocks_per_session;
    config.threads = kPoolThreads;
    service::AuditService svc{group, sys.agency().key(), sys.cloud_server().key(), config};
    svc.bind_metrics(service_metrics, "service");
    std::vector<service::UserHandle> handles;
    for (const core::SystemUser& user : st->users) {
      handles.push_back(svc.register_user(user.key().id, user.key().q_id));
    }
    const ReplayContext ctx{&group,   &svc.engine(),   &sys.agency().key(), &sys.cloud_server().key(),
                            &svc.registry(), shape.blocks_per_session};
    for (std::size_t k = 0; k < uploads.size(); ++k) {
      service::AuditRequest request;
      request.user = handles.at(uploads[k].first);
      request.version = k + 1;
      request.blocks = std::move(uploads[k].second);
      const std::vector<service::AuditRequest> batched{request};
      bool admitted = false;
      {
        TimedSpan span{"service.submit"};
        admitted = svc.submit(std::move(request)).accepted;
      }
      TimedSpan epoch_span{"service.run_epoch"};
      const service::EpochReport report = svc.run_epoch();
      const double epoch_ms = epoch_span.end();
      res.attempted += 1;
      if (!admitted || report.verified_requests != 1) res.failed += 1;
      totals.add_epoch(report, epoch_ms);
      replay_epoch(ctx, batched, report, epoch_ms, totals);
    }
    totals.pool_task_ms = service_metrics.histogram("service.batch_verify_ms").snapshot().sum;
    probe_layers(group, sys.cloud_server().key(), sys.agency().key(), o.seed);
    std::snprintf(line, sizeof line,
                  "traced: %llu sessions, %llu uploads replayed through the audit service "
                  "(%llu replay verdict mismatches)",
                  static_cast<unsigned long long>(traced.sessions),
                  static_cast<unsigned long long>(totals.epochs),
                  static_cast<unsigned long long>(totals.replay_mismatches));
    res.log.push_back(line);
    let_pool_workers_settle();  // svc's pool goes next
  }
  res.metrics = layer_metrics(tracer, totals);
  write_trace(tracer, o.trace_out);
  return res;
}

}  // namespace perfbench
