// fleet_honest / fleet_adversarial: many users' audit requests verified by
// the AuditService in shared cross-user batches (Eq. 8/9 at fleet scale).
//
// Closed loop: every epoch each active user submits one request, the loop
// runs the epoch, and every client has its verdict before it sends again.
// Client signing happens at setup (FleetWorkload::make_requests builds a
// small pool of distinct signed requests per user); the loop resubmits them
// under fresh versions. The signed message is (index, payload), so the
// verifier's work per request is unchanged by the reuse.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.h"
#include "obs/metrics.h"
#include "pairing/group.h"
#include "sim/fleet.h"
#include "stats.h"

namespace perfbench {

using namespace seccloud;

namespace {

struct FleetShape {
  std::size_t registered = 100'000;
  std::size_t active = 128;
  std::size_t blocks_per_request = 2;
  std::size_t batch_capacity = 64;  ///< 128 users × 2 blocks = 4 batches
  /// Distinct pre-signed requests per user; the loop cycles them, so this is
  /// the reuse distance in epochs.
  std::size_t pool_depth = 4;
  std::size_t setup_repeats = 3;
  std::size_t warmup_epochs = 2;
  /// Traced pass: epochs replayed layer by layer (every second traced epoch).
  std::size_t replay_epochs = 8;
  std::size_t core_sessions = 2;
};

FleetShape fleet_shape(bool smoke) {
  if (!smoke) return {};
  return {.registered = 256,
          .active = 16,
          .blocks_per_request = 2,
          .batch_capacity = 8,
          .pool_depth = 2,
          .setup_repeats = 2,
          .warmup_epochs = 1,
          .replay_epochs = 2,
          .core_sessions = 1};
}

enum class Role : std::uint8_t { kHonest, kBadSignature, kStaleReplay, kDuplicate };

struct EpochPlan {
  std::vector<Role> roles;  ///< per active user
  bool probe = false;       ///< the unkeyed probe identity submits this epoch
  std::size_t probe_source = 0;  ///< whose signed payload the probe sends
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t epoch) {
  return seed * 0x9E3779B97F4A7C15ULL + epoch * 0xBF58476D1CE4E5B9ULL + 1;
}

/// Seeded behaviour mix for one epoch. Honest: everyone honest. Adversarial:
/// 1/16 stale replays, 1/16 in-epoch duplicates, one unkeyed probe, and 1/32
/// bad signatures placed one per batch-sized window of the admitted stream,
/// so every batch rejects and bisects.
EpochPlan plan_epoch(const FleetShape& shape, bool adversarial, std::uint64_t seed,
                     std::uint64_t epoch) {
  EpochPlan plan;
  plan.roles.assign(shape.active, Role::kHonest);
  if (!adversarial) return plan;
  num::Xoshiro256 rng{mix(seed, epoch)};
  std::vector<std::size_t> order(shape.active);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }
  const std::size_t n_stale = std::max<std::size_t>(1, shape.active / 16);
  const std::size_t n_dup = std::max<std::size_t>(1, shape.active / 16);
  const std::size_t n_bad = std::max<std::size_t>(1, shape.active / 32);
  for (std::size_t k = 0; k < n_stale; ++k) plan.roles[order[k]] = Role::kStaleReplay;
  for (std::size_t k = 0; k < n_dup; ++k) plan.roles[order[n_stale + k]] = Role::kDuplicate;

  const std::size_t per_batch =
      std::max<std::size_t>(1, shape.batch_capacity / shape.blocks_per_request);
  std::vector<std::vector<std::size_t>> windows;
  std::size_t position = 0;
  for (std::size_t i = 0; i < shape.active; ++i) {
    if (plan.roles[i] == Role::kStaleReplay) continue;
    if (plan.roles[i] == Role::kHonest) {
      windows.resize(std::max(windows.size(), position / per_batch + 1));
      windows[position / per_batch].push_back(i);
    }
    position += plan.roles[i] == Role::kDuplicate ? std::size_t{2} : std::size_t{1};
  }
  for (std::size_t b = 0; b < n_bad && !windows.empty(); ++b) {
    std::size_t w = b * windows.size() / n_bad;
    for (std::size_t tries = 0; windows[w].empty() && tries < windows.size(); ++tries) {
      w = (w + 1) % windows.size();
    }
    if (windows[w].empty()) break;
    const std::size_t pick = static_cast<std::size_t>(rng.next_u64() % windows[w].size());
    plan.roles[windows[w][pick]] = Role::kBadSignature;
    windows[w].erase(windows[w].begin() + static_cast<std::ptrdiff_t>(pick));
  }
  plan.probe = true;
  plan.probe_source = static_cast<std::size_t>(rng.next_u64() % shape.active);
  return plan;
}

struct FleetState {
  FleetState() = default;
  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;
  ~FleetState() { let_pool_workers_settle(); }

  obs::MetricsRegistry metrics;  ///< the traced pass binds the service here
  std::unique_ptr<ibc::Sio> sio;
  ibc::IdentityKey verifier;  ///< the DA: the service's own key
  ibc::IdentityKey attestor;  ///< the CS: signs epoch attestations
  std::unique_ptr<service::AuditService> svc;
  std::unique_ptr<sim::FleetWorkload> fleet;
  std::vector<std::vector<service::AuditRequest>> pool;  ///< [user][slot]
  std::vector<std::uint64_t> issued;   ///< per user: last version issued
  std::vector<std::uint64_t> audited;  ///< per user: audited version (truth)
};

std::unique_ptr<FleetState> setup_fleet(const FleetShape& shape, std::uint64_t seed,
                                        bool smoke) {
  const pairing::PairingGroup& group =
      smoke ? pairing::tiny_group() : pairing::default_group();
  auto st = std::make_unique<FleetState>();
  num::Xoshiro256 rng{seed};
  st->sio = std::make_unique<ibc::Sio>(group, rng);
  st->verifier = st->sio->extract("agency@perfbench");
  st->attestor = st->sio->extract("cloud-server@perfbench");
  service::ServiceConfig config;
  config.epoch.queue_capacity = 2 * shape.active + 1;  // duplicates + the probe fit
  config.epoch.batch_capacity = shape.batch_capacity;
  config.threads = kPoolThreads;
  st->svc = std::make_unique<service::AuditService>(group, st->verifier, st->attestor, config);
  st->fleet = std::make_unique<sim::FleetWorkload>(
      *st->sio, sim::FleetConfig{.users = shape.registered,
                                 .active_users = shape.active,
                                 .blocks_per_request = shape.blocks_per_request,
                                 .seed = seed,
                                 .include_unkeyed_probe = true});
  st->fleet->populate(*st->svc);
  st->pool.resize(shape.active);
  for (std::size_t k = 0; k < shape.pool_depth; ++k) {
    std::vector<service::AuditRequest> requests = st->fleet->make_requests(*st->svc);
    for (std::size_t i = 0; i < shape.active; ++i) st->pool[i].push_back(std::move(requests[i]));
  }
  st->issued.assign(shape.active, 0);
  st->audited.assign(shape.active, 0);
  return st;
}

/// Epochs of behaviour schedule folded into the input digest.
constexpr std::uint64_t kDigestEpochs = 256;

std::string fleet_digest(const FleetState& st, const FleetShape& shape, bool adversarial,
                         std::uint64_t seed) {
  const pairing::PairingGroup& g = st.svc->group();
  hash::Sha256 sha;
  sha.update(std::string_view{adversarial ? "fleet_adversarial" : "fleet_honest"});
  for (const auto& slots : st.pool) {
    for (const service::AuditRequest& request : slots) {
      put_u64(sha, request.user);
      for (const core::SignedBlock& sb : request.blocks) {
        put_u64(sha, sb.block.index);
        sha.update(sb.block.payload);
        sha.update(g.curve().serialize(sb.sig.u));
        sha.update(g.gt_serialize(sb.sig.sigma_da));
      }
    }
  }
  for (std::uint64_t e = 0; e < kDigestEpochs; ++e) {
    const EpochPlan plan = plan_epoch(shape, adversarial, seed, e);
    for (const Role role : plan.roles) put_u64(sha, static_cast<std::uint64_t>(role));
    put_u64(sha, plan.probe ? plan.probe_source + 1 : 0);
  }
  return hash::to_hex(sha.finish());
}

struct Submission {
  std::size_t user = 0;  ///< active index (for the probe: its payload source)
  Role role = Role::kHonest;
  bool probe = false;
  bool second_copy = false;
  std::uint64_t version = 0;
};

struct EpochOutcome {
  std::size_t submitted = 0;
  std::uint64_t errors = 0;
  std::uint64_t duplicates_verified = 0;
  double loop_ms = 0.0;       ///< submit×N + run_epoch wall
  double run_epoch_ms = 0.0;
  std::vector<double> latency_ms;  ///< per request: submit() to the epoch's return
  service::EpochReport report;
  std::vector<service::AuditRequest> batched;  ///< kept only for replay
};

EpochOutcome run_one_epoch(FleetState& st, const FleetShape& shape, const EpochPlan& plan,
                           std::uint64_t e, bool keep_batched) {
  // --- each client's request, ready before the epoch clock starts ---------
  const std::size_t slot = e % shape.pool_depth;
  std::vector<service::AuditRequest> requests;
  std::vector<Submission> subs;
  requests.reserve(2 * shape.active + 1);
  subs.reserve(2 * shape.active + 1);
  for (std::size_t i = 0; i < shape.active; ++i) {
    const Role role = plan.roles[i];
    service::AuditRequest request = st.pool[i][slot];
    request.version = role == Role::kStaleReplay ? st.audited[i] : ++st.issued[i];
    if (role == Role::kBadSignature) request.blocks[0].block.payload[0] ^= 0x01;
    if (role == Role::kDuplicate) {
      subs.push_back({i, role, false, false, request.version});
      requests.push_back(request);
      subs.push_back({i, role, false, true, request.version});
    } else {
      subs.push_back({i, role, false, false, request.version});
    }
    requests.push_back(std::move(request));
  }
  if (plan.probe) {
    service::AuditRequest request = st.pool[plan.probe_source][slot];
    request.user = st.fleet->unkeyed_probe_handle();
    request.version = 1;
    subs.push_back({plan.probe_source, Role::kHonest, true, false, 1});
    requests.push_back(std::move(request));
  }
  std::vector<service::AuditRequest> copies;
  if (keep_batched) copies = requests;

  // --- the closed loop: submit everything, run the epoch -----------------
  EpochOutcome out;
  out.submitted = requests.size();
  std::vector<Clock::time_point> sent(requests.size());
  std::uint64_t refused = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    sent[r] = Clock::now();
    TimedSpan span{"service.submit"};
    if (!st.svc->submit(std::move(requests[r])).accepted) ++refused;
  }
  const Clock::time_point t_epoch = Clock::now();
  {
    TimedSpan span{"service.run_epoch"};
    out.report = st.svc->run_epoch();
  }
  const Clock::time_point t1 = Clock::now();
  out.loop_ms = ms_between(t0, t1);
  out.run_epoch_ms = ms_between(t_epoch, t1);
  out.latency_ms.reserve(sent.size());
  for (const Clock::time_point t : sent) out.latency_ms.push_back(ms_between(t, t1));

  // --- ground truth --------------------------------------------------------
  const service::EpochReport& report = out.report;
  const service::ShardedRegistry& registry = st.svc->registry();
  std::vector<bool> invalid(subs.size(), false);
  for (const service::InvalidEntryRef& ref : report.invalid_entries) {
    if (ref.request_index < invalid.size()) invalid[ref.request_index] = true;
  }
  const auto byzantine = [&report](service::UserHandle h) {
    return std::binary_search(report.byzantine_users.begin(), report.byzantine_users.end(), h);
  };
  std::uint64_t errors = refused;
  std::size_t expected_filtered = 0;
  std::size_t expected_verified = 0;
  std::size_t duplicates = 0;
  for (std::size_t r = 0; r < subs.size(); ++r) {
    const Submission& s = subs[r];
    if (s.probe || s.role == Role::kStaleReplay) {
      ++expected_filtered;
      if (invalid[r]) ++errors;
      continue;
    }
    const service::UserHandle handle = st.fleet->handle(s.user);
    if (s.role == Role::kBadSignature) {
      const bool caught = invalid[r] && byzantine(handle) &&
                          registry.audited_version(handle) == st.audited[s.user];
      if (!caught) ++errors;
      continue;
    }
    if (s.second_copy) {
      // An in-epoch duplicate may be verified or filtered, never rejected.
      ++duplicates;
      if (invalid[r]) ++errors;
      continue;
    }
    ++expected_verified;
    const bool verified =
        !invalid[r] && !byzantine(handle) && registry.audited_version(handle) == s.version;
    if (!verified) ++errors;
  }
  const std::size_t filtered = report.stale_rejected + report.unkeyed_rejected;
  if (filtered < expected_filtered) errors += expected_filtered - filtered;
  out.duplicates_verified =
      report.verified_requests > expected_verified
          ? std::min(report.verified_requests - expected_verified, duplicates)
          : 0;
  for (std::size_t i = 0; i < shape.active; ++i) {
    st.audited[i] = registry.audited_version(st.fleet->handle(i));
  }
  out.errors = errors;

  if (keep_batched) {
    const bool duplicates_batched = out.duplicates_verified == duplicates;
    for (std::size_t r = 0; r < subs.size(); ++r) {
      const Submission& s = subs[r];
      if (s.probe || s.role == Role::kStaleReplay) continue;
      if (s.second_copy && !duplicates_batched) continue;
      out.batched.push_back(std::move(copies[r]));
    }
  }
  return out;
}

struct LoopStats {
  std::size_t epochs = 0;
  std::uint64_t submitted = 0;
  double loop_ms = 0.0;
  std::vector<double> latency_ms;

  void add(const EpochOutcome& out) {
    ++epochs;
    submitted += out.submitted;
    loop_ms += out.loop_ms;
    latency_ms.insert(latency_ms.end(), out.latency_ms.begin(), out.latency_ms.end());
  }
  double audits_per_s() const {
    return loop_ms > 0.0 ? 1000.0 * static_cast<double>(submitted) / loop_ms : 0.0;
  }
};

}  // namespace

Result run_fleet(const Options& o) {
  const bool adversarial = o.workload == Workload::kFleetAdversarial;
  const FleetShape shape = fleet_shape(o.smoke);
  Result res;

  // Set-up, repeated; the median is reported. Each repetition builds SIO and
  // keys, the service, the 1e5-identity registry and the pre-signed pool.
  std::vector<double> setup_s;
  std::unique_ptr<FleetState> st;
  for (std::size_t rep = 0; rep < shape.setup_repeats; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    st = setup_fleet(shape, o.seed, o.smoke);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  res.input_digest = fleet_digest(*st, shape, adversarial, o.seed);

  std::uint64_t epoch = 0;
  LayerTotals totals;
  std::vector<EpochOutcome> sampled;  // traced epochs kept for the replay
  // Runs epochs until `seconds` of loop wall have passed and, for up
  // to twice that, until `min_epochs` ran. A traced pass also totals every
  // epoch's report and keeps every second epoch, up to replay_epochs, for
  // the replay.
  const auto measure = [&](double seconds, LoopStats& stats, bool traced,
                           std::size_t min_epochs = 1) {
    const Clock::time_point start = Clock::now();
    do {
      const bool keep =
          traced && stats.epochs % 2 == 0 && sampled.size() < shape.replay_epochs;
      EpochOutcome out = run_one_epoch(
          *st, shape, plan_epoch(shape, adversarial, o.seed, epoch), epoch, keep);
      ++epoch;
      res.attempted += out.submitted;
      res.failed += out.errors;
      stats.add(out);
      if (traced) {
        totals.add_epoch(out.report, out.run_epoch_ms);
        totals.duplicates_verified += out.duplicates_verified;
      }
      if (keep) sampled.push_back(std::move(out));
      const double elapsed_ms = ms_between(start, Clock::now());
      if (elapsed_ms >= 1000.0 * seconds &&
          (stats.epochs >= min_epochs || elapsed_ms >= 2000.0 * seconds)) {
        break;
      }
    } while (true);
  };
  LoopStats warmup;  // untimed
  for (std::size_t w = 0; w < shape.warmup_epochs; ++w) measure(0.0, warmup, false);

  char line[256];
  std::snprintf(line, sizeof line,
                "shape: %zu registered, %zu active, %zu blocks/request, batch capacity %zu, "
                "%zu pool threads, %zu clients (closed loop), pre-signed reuse distance %zu "
                "epochs",
                shape.registered, shape.active, shape.blocks_per_request, shape.batch_capacity,
                kPoolThreads, shape.active, shape.pool_depth);
  res.log.push_back(line);

  if (!o.trace) {
    LoopStats stats;
    // Requests of an epoch finish together, so p90 needs ten epochs beyond it.
    measure(o.seconds, stats, false, min_samples_for(90.0));
    const double p50 = percentile(stats.latency_ms, 50.0);
    const double p90 = percentile(stats.latency_ms, 90.0);
    res.metrics = {
        {"setup_s", "s", percentile(setup_s, 50.0)},
        {"audits_per_s", "1/s", stats.audits_per_s()},
        {"audit_p50_ms", "ms", p50},
        {"audit_p90_ms", "ms", p90},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
    };
    std::snprintf(line, sizeof line,
                  "samples: %zu requests over %zu epochs; p90 has %zu epochs beyond it "
                  "(%s: >= %zu needed)",
                  stats.latency_ms.size(), stats.epochs, samples_beyond(stats.epochs, 90.0),
                  percentile_supported(stats.epochs, 90.0) ? "ok" : "SHORT",
                  kMinSamplesBeyond);
    res.log.push_back(line);
    return res;
  }

  // --- traced run: untraced half, traced half, then replays and probes ------
  totals.pool_threads = kPoolThreads;
  LoopStats untraced;
  measure(o.seconds / 2.0, untraced, false);
  totals.audits_per_s_untraced = untraced.audits_per_s();

  obs::Tracer tracer;
  {
    obs::TracerScope scope{&tracer};
    span_clock().clear();
    st->svc->bind_metrics(st->metrics, "service");
    LoopStats traced;
    measure(o.seconds / 2.0, traced, true);
    totals.audits_per_s_traced = traced.audits_per_s();
    totals.pool_task_ms = st->metrics.histogram("service.batch_verify_ms").snapshot().sum;

    const ReplayContext ctx{&st->svc->group(), &st->svc->engine(), &st->verifier,
                            &st->attestor,     &st->svc->registry(), shape.batch_capacity};
    for (const EpochOutcome& out : sampled) {
      replay_epoch(ctx, out.batched, out.report, out.run_epoch_ms, totals);
    }
    probe_layers(st->svc->group(), st->attestor, st->verifier, o.seed);
    probe_core_sessions(st->svc->group(), o.seed, shape.core_sessions, o.smoke, res);
    std::snprintf(line, sizeof line,
                  "traced: %llu epochs, %zu replayed (%llu replay verdict mismatches)",
                  static_cast<unsigned long long>(totals.epochs), sampled.size(),
                  static_cast<unsigned long long>(totals.replay_mismatches));
    res.log.push_back(line);
  }
  res.metrics = layer_metrics(tracer, totals);
  write_trace(tracer, o.trace_out);
  return res;
}

}  // namespace perfbench
