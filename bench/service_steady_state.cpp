// Steady-state audit service at fleet scale: sweeps the registry across
// 1e5–1e6 users (1e7 behind SECCLOUD_BENCH_XL=1), drives honest epoch
// traffic from the active working set through the bounded admission queue,
// and measures audits/sec, p99 epoch latency, and registry memory while
// asserting the paper's headline invariant — every clean cross-user shared
// batch costs exactly 2 pairings, however many users' signatures it packs.
// The emitted values.cross_user_pairings_per_batch is pinned to 2 in
// bench/baselines/thresholds.json: a regression to per-user verification
// (pairings scaling with entries instead of batches) fails the CI gate.
// values.attestation_pairings_per_batch (assembly pairings ÷ batches) is
// gated at exactly 0: the epoch attestations are signed through the
// service's DvSigner, as a GT power with no pairing.
//
// The largest (sustained) scale also runs the full telemetry pipeline:
// a TelemetrySink snapshotting every epoch, a VerdictLedger recording every
// audited entry, and an SloTracker whose admission-reject objective
// deterministically fires on the epoch-0 backpressure probe and resolves two
// epochs later. The streams land beside the JSON as
// TEL_service_steady_state.bin / LEDGER_service_steady_state.bin
// (tools/teldump.py renders them), and the full run asserts the whole
// pipeline costs <= 2% of epoch wall time.
//
// Usage: service_steady_state
//   SECCLOUD_BENCH_SMOKE=1  shrink the sweep for CI (baseline mode)
//   SECCLOUD_BENCH_XL=1     add the 1e7-user point (needs ~1 GiB + minutes)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_support.h"
#include "bigint/rng.h"
#include "ibc/keys.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "seccloud/service/ledger.h"
#include "seccloud/service/service.h"
#include "sim/fleet.h"

using namespace seccloud;

namespace {

bool xl_mode() {
  const char* env = std::getenv("SECCLOUD_BENCH_XL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

struct SweepPoint {
  std::size_t users = 0;
  double audits_per_sec = 0.0;
  double epoch_p99_ms = 0.0;
  double registry_bytes = 0.0;
  std::size_t batches = 0;
  std::size_t entries = 0;
  std::uint64_t verify_pairings = 0;
  std::uint64_t assembly_pairings = 0;
  std::size_t backpressure_rejected = 0;
  double epoch_ms_total = 0.0;
  double telemetry_ms_total = 0.0;
  std::size_t slo_alerts = 0;
  /// The attribution of the worst epoch (largest p99 end-to-end) — where the
  /// tail request actually spent its time. Zeroed without a journey recorder.
  obs::JourneyAttribution worst_attribution;
};

/// Everything the telemetry pipeline needs at the sustained scale; nullptr
/// members for the warm-up scales.
struct Telemetry {
  seccloud::obs::TelemetrySink* sink = nullptr;
  service::VerdictLedger* ledger = nullptr;
  seccloud::obs::SloTracker* slo = nullptr;
  seccloud::obs::JourneyRecorder* journeys = nullptr;
};

/// p99 over a small sample = worst observation (8 epochs: index 7.92 -> max).
double p99(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t idx =
      static_cast<std::size_t>(0.99 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

SweepPoint run_scale(const pairing::PairingGroup& g, const ibc::Sio& sio,
                     const ibc::IdentityKey& da, const ibc::IdentityKey& cs,
                     std::size_t users, std::size_t active, std::size_t blocks,
                     std::size_t epochs, bool bind_service_metrics, Telemetry tel) {
  service::ServiceConfig config;
  config.epoch.queue_capacity = active;  // exactly one epoch's traffic fits
  config.epoch.batch_capacity = 64;
  service::AuditService svc{g, da, cs, config};
  if (bind_service_metrics) svc.bind_metrics(obs::default_registry(), "service");
  svc.attach_telemetry(tel.sink);
  svc.attach_ledger(tel.ledger);
  svc.attach_journeys(tel.journeys);

  sim::FleetWorkload fleet{sio,
                           {.users = users,
                            .active_users = active,
                            .blocks_per_request = blocks,
                            .seed = 20260808}};
  fleet.populate(svc);

  SweepPoint point;
  point.users = users;
  std::vector<double> epoch_ms;
  double verify_window_ms = 0.0;
  std::size_t verified_total = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<service::AuditRequest> requests = fleet.make_requests(svc);
    const std::size_t wave = requests.size();
    // Backpressure probe on the first epoch: the queue holds exactly one
    // epoch's traffic, so a duplicate submission wave must be rejected with
    // a retry-after hint instead of growing memory.
    std::vector<service::AuditRequest> duplicates;
    if (e == 0) duplicates = requests;
    std::size_t rejected_this_epoch = 0;
    for (auto& r : requests) {
      if (!svc.submit(std::move(r)).accepted) std::abort();
    }
    for (auto& r : duplicates) {
      const service::Admission a = svc.submit(std::move(r));
      if (!a.accepted) {
        ++point.backpressure_rejected;
        ++rejected_this_epoch;
      }
      if (!a.accepted && a.retry_after_epochs == 0) std::abort();
    }

    const service::EpochReport report = svc.run_epoch();
    epoch_ms.push_back(report.epoch_ms);
    verify_window_ms += report.epoch_ms;
    verified_total += report.verified_requests;
    point.batches += report.batches;
    point.entries += report.entries;
    point.verify_pairings += report.verify_ops.pairings;
    point.assembly_pairings += report.assembly_ops.pairings;
    point.epoch_ms_total += report.epoch_ms;
    point.telemetry_ms_total += report.telemetry_ms;
    if (report.attribution.p99_end_to_end_us >
        point.worst_attribution.p99_end_to_end_us) {
      point.worst_attribution = report.attribution;
    }
    if (report.failed_requests != 0 || !report.byzantine_users.empty()) std::abort();

    // SLO evidence for this epoch; fire/resolve transitions append to the
    // telemetry stream as structured alert records.
    if (tel.slo != nullptr && tel.sink != nullptr) {
      tel.slo->observe("admission_rejects", report.epoch,
                       {static_cast<std::uint64_t>(wave),
                        static_cast<std::uint64_t>(rejected_this_epoch)});
      const bool latency_ok = report.epoch_ms <= 60'000.0;
      tel.slo->observe("epoch_latency", report.epoch,
                       {latency_ok ? std::uint64_t{1} : 0, latency_ok ? 0 : std::uint64_t{1}});
      const bool pairings_ok = report.verify_ops.pairings == 2 * report.batches;
      tel.slo->observe("pairings_per_batch", report.epoch,
                       {pairings_ok ? std::uint64_t{1} : 0, pairings_ok ? 0 : std::uint64_t{1}});
      for (const obs::SloAlert& alert : tel.slo->evaluate(report.epoch)) {
        tel.sink->alert(alert);
        ++point.slo_alerts;
        std::printf("  [slo] %s %s at epoch %llu (burn %.1f over %llu-epoch window)\n",
                    alert.slo.c_str(), alert.firing ? "FIRING" : "resolved",
                    static_cast<unsigned long long>(alert.epoch), alert.burn,
                    static_cast<unsigned long long>(alert.window_epochs));
      }
    }
  }

  point.audits_per_sec =
      verify_window_ms > 0.0 ? 1000.0 * static_cast<double>(verified_total) / verify_window_ms
                             : 0.0;
  point.epoch_p99_ms = p99(std::move(epoch_ms));
  point.registry_bytes = static_cast<double>(svc.registry().stats().total_bytes());
  return point;
}

}  // namespace

int main() {
  bench::Bench bench{"service_steady_state"};
  const pairing::PairingGroup& g = pairing::default_group();
  num::Xoshiro256 rng{20260808};
  const ibc::Sio sio{g, rng};
  const ibc::IdentityKey da = sio.extract("agency@steady-state");
  const ibc::IdentityKey cs = sio.extract("cloud-server@steady-state");
  bench.use_group(g);

  std::vector<std::size_t> scales =
      bench::smoke_mode() ? std::vector<std::size_t>{2'000, 10'000}
                          : std::vector<std::size_t>{100'000, 1'000'000};
  if (!bench::smoke_mode() && xl_mode()) scales.push_back(10'000'000);
  const std::size_t active = bench::scaled<std::size_t>(256, 64);
  const std::size_t blocks = bench::scaled<std::size_t>(4, 2);
  const std::size_t epochs = bench::scaled<std::size_t>(8, 3);

  std::printf("=== service steady state: sharded registry + epoch scheduler ===\n");
  std::printf("%zu active users/epoch, %zu blocks/request, %zu epochs/scale\n\n",
              active, blocks, epochs);
  std::printf("%12s %14s %12s %14s %10s %10s\n", "users", "audits/sec", "p99 ms",
              "registry MiB", "batches", "pair/bat");

  // Telemetry pipeline state for the sustained (largest) scale.
  obs::TelemetrySink sink{obs::default_registry(), {.ring_capacity = 64}};
  service::VerdictLedger ledger;
  // Journey recorder with the default deterministic sampling policy: every
  // rejected/bisected request plus the slowest of each epoch is kept, the
  // rest pass the seeded 1-in-16 coin — so journey_records is replayable and
  // pinned exactly in thresholds.json.
  obs::JourneyRecorder journeys{{.ring_capacity = 4096, .stream_id = 1}};
  obs::SloTracker slo;
  // The epoch-0 backpressure probe doubles the submission wave, so the
  // reject objective burns 0.5/0.05 = 10x budget and deterministically
  // fires at epoch 0, resolving once the probe leaves the 2-epoch window.
  slo.add({.name = "admission_rejects",
           .error_budget = 0.05,
           .windows = {{.epochs = 2, .max_burn = 2.0}, {.epochs = 4, .max_burn = 1.0}}});
  slo.add({.name = "epoch_latency",
           .error_budget = 0.05,
           .windows = {{.epochs = 2, .max_burn = 2.0}}});
  // Exact invariant: any epoch whose clean batches cost != 2 pairings each
  // fires the same epoch (near-zero budget, single 1-epoch window).
  slo.add({.name = "pairings_per_batch",
           .error_budget = 1e-6,
           .windows = {{.epochs = 1, .max_burn = 1.0}}});

  std::uint64_t total_pairings = 0;
  std::uint64_t total_assembly_pairings = 0;
  std::size_t total_batches = 0;
  double bind_epoch_ms = 0.0;
  double bind_telemetry_ms = 0.0;
  std::size_t slo_alerts = 0;
  obs::JourneyAttribution tail;
  for (const std::size_t users : scales) {
    // The largest (sustained) scale publishes the service.* metrics tree
    // and runs the snapshot/ledger/SLO/journey pipeline.
    const bool bind = users == scales.back();
    const SweepPoint p =
        run_scale(g, sio, da, cs, users, active, blocks, epochs, bind,
                  bind ? Telemetry{&sink, &ledger, &slo, &journeys} : Telemetry{});
    if (bind) {
      bind_epoch_ms = p.epoch_ms_total;
      bind_telemetry_ms = p.telemetry_ms_total;
      slo_alerts = p.slo_alerts;
      tail = p.worst_attribution;
    }
    total_pairings += p.verify_pairings;
    total_assembly_pairings += p.assembly_pairings;
    total_batches += p.batches;
    const double per_batch =
        static_cast<double>(p.verify_pairings) / static_cast<double>(p.batches);
    std::printf("%12zu %14.1f %12.2f %14.2f %10zu %10.2f\n", users, p.audits_per_sec,
                p.epoch_p99_ms, p.registry_bytes / (1024.0 * 1024.0), p.batches,
                per_batch);

    const std::string tag = "u" + std::to_string(users) + "_";
    bench.value(tag + "audits_per_sec", p.audits_per_sec);
    bench.value(tag + "epoch_p99_ms", p.epoch_p99_ms);
    bench.value(tag + "registry_bytes", p.registry_bytes);
    bench.value(tag + "batches", static_cast<double>(p.batches));
    bench.value(tag + "entries", static_cast<double>(p.entries));
    bench.value(tag + "backpressure_rejected",
                static_cast<double>(p.backpressure_rejected));
  }

  // The pinned invariant: clean cross-user batches verify at exactly
  // 2 pairings each (epoch attestation + mixed-signer aggregate), at every
  // registry scale. Refuse to emit telemetry claiming otherwise.
  const double pairings_per_batch =
      static_cast<double>(total_pairings) / static_cast<double>(total_batches);
  if (pairings_per_batch != 2.0) {
    std::printf("FAIL: %.4f pairings per clean batch (expected exactly 2)\n",
                pairings_per_batch);
    return 1;
  }
  std::printf("\nevery clean shared batch verified at exactly 2 pairings.\n");

  // --- telemetry artifacts: snapshot + alert stream and forensic ledger ---
  {
    std::ofstream out{"TEL_service_steady_state.bin", std::ios::binary};
    out.write(reinterpret_cast<const char*>(sink.stream().data()),
              static_cast<std::streamsize>(sink.stream().size()));
  }
  {
    std::ofstream out{"LEDGER_service_steady_state.bin", std::ios::binary};
    out.write(reinterpret_cast<const char*>(ledger.bytes().data()),
              static_cast<std::streamsize>(ledger.bytes().size()));
  }
  {
    std::ofstream out{"JOURNEY_service_steady_state.bin", std::ios::binary};
    out.write(reinterpret_cast<const char*>(journeys.stream().data()),
              static_cast<std::streamsize>(journeys.stream().size()));
  }
  const double overhead_pct =
      bind_epoch_ms > 0.0 ? 100.0 * bind_telemetry_ms / bind_epoch_ms : 0.0;
  std::printf(
      "[bench] wrote TEL_service_steady_state.bin (%zu records), "
      "LEDGER_service_steady_state.bin (%zu records), "
      "JOURNEY_service_steady_state.bin (%zu records) | telemetry overhead %.3f%% of "
      "epoch time\n",
      sink.records(), ledger.records(), journeys.records(), overhead_pct);
  // Overhead gate: in the full sweep (epochs are hundreds of ms of pairing
  // work) the snapshot+ledger pipeline must stay under 2% of epoch wall
  // time. Smoke epochs are a few ms, so a relative bound is meaningless
  // there — the full run is what the acceptance criterion measures.
  if (!bench::smoke_mode() && overhead_pct > 2.0) {
    std::printf("FAIL: telemetry overhead %.3f%% exceeds the 2%% budget\n", overhead_pct);
    return 1;
  }

  bench.value("cross_user_pairings_per_batch", pairings_per_batch);
  bench.value("attestation_pairings_per_batch", static_cast<double>(total_assembly_pairings) /
                                                    static_cast<double>(total_batches));
  bench.value("users_peak", static_cast<double>(scales.back()));
  bench.value("tel_records", static_cast<double>(sink.records()));
  bench.value("ledger_records", static_cast<double>(ledger.records()));
  bench.value("journey_records", static_cast<double>(journeys.records()));
  bench.value("slo_alerts", static_cast<double>(slo_alerts));
  bench.value("telemetry_overhead_pct", overhead_pct);
  // Critical-path attribution of the worst epoch's p99 journey: which stage
  // the tail request spent its time in, as a percentage of its end-to-end.
  // Timing-derived, so gated warn-only (service_steady_state:values.p99_attribution_*).
  for (std::size_t s = 0; s < obs::kJourneyStageCount; ++s) {
    bench.value(std::string{"p99_attribution_"} +
                    obs::to_string(static_cast<obs::JourneyStage>(s)) + "_pct",
                100.0 * tail.p99_share[s]);
  }
  bench.note("sweep", bench::smoke_mode() ? "smoke" : (xl_mode() ? "full+xl" : "full"));
  bench.note("invariant", "verify pairings == 2 x batches on honest traffic");
  bench.note("telemetry",
             "TEL_/LEDGER_/JOURNEY_ streams from the sustained scale; see tools/teldump.py");
  // The tail-attribution headline: where the worst epoch's p99 request spent
  // its time. "queue" folds the enqueue+admit stages (pre-batch waiting).
  const double queue_pct =
      100.0 * (tail.p99_share[0] + tail.p99_share[1]);
  const double verify_pct =
      100.0 * tail.p99_share[static_cast<std::size_t>(obs::JourneyStage::kVerify)];
  const double bisect_pct =
      100.0 * tail.p99_share[static_cast<std::size_t>(obs::JourneyStage::kBisect)];
  char headline[96];
  std::snprintf(headline, sizeof headline,
                "p99=%.0fms [queue %.0f%% verify %.0f%% bisect %.0f%%]",
                static_cast<double>(tail.p99_end_to_end_us) / 1000.0, queue_pct,
                verify_pct, bisect_pct);
  bench.headline(headline);
  return bench.finish();
}
