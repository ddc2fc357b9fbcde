// Ablation — parallel verification engine: wall time of batch (Eq. 8/9)
// and individual (Eq. 5/7) designated-verifier verification across thread
// counts {1, 2, 4, hardware}, asserting along the way that every thread
// count produces the SAME verdicts, the SAME serialized aggregates, and the
// SAME op-counter totals as the serial reference (the engine's bit-identity
// guarantee). Exits non-zero on any mismatch.
//
// Usage: ablation_parallel_verify [num_signatures]   (default 1024)
//
// NOTE: the speedup column only reflects real concurrency when the host
// exposes multiple cores; on a single-core container all thread counts
// degenerate to ~1.0x and the run degrades to a pure bit-identity check.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "hash/hash_to.h"
#include "ibc/dvs.h"
#include "ibc/keys.h"
#include "pairing/parallel.h"

using namespace seccloud;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// U_A ‖ Σ_A as bytes — the canonical "output" of a batch verification.
std::vector<std::uint8_t> serialize_aggregates(const pairing::PairingGroup& g,
                                               const ibc::BatchAccumulator& acc) {
  std::vector<std::uint8_t> out = g.curve().serialize(acc.u_aggregate());
  const auto sigma = g.gt_serialize(acc.sigma_aggregate());
  out.insert(out.end(), sigma.begin(), sigma.end());
  return out;
}

struct Fixture {
  const pairing::PairingGroup& g = pairing::default_group();
  num::Xoshiro256 rng{424242};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey csp = sio.extract("csp");
  ibc::DesignatedVerifier csp_verifier{g, csp};
  std::vector<ibc::IdentityKey> signers;
  std::vector<std::string> messages;
  std::vector<ibc::DvSignature> sigs;

  explicit Fixture(std::size_t n) {
    for (std::size_t s = 0; s < 8; ++s) {
      signers.push_back(sio.extract("signer-" + std::to_string(s)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      messages.push_back("m-" + std::to_string(i));
      const auto& signer = signers[i % signers.size()];
      sigs.push_back(ibc::dv_transform(
          g, ibc::ibs_sign(g, signer, hash::as_bytes(messages.back()), rng), csp.q_id));
    }
  }

  const ibc::IdentityKey& signer_of(std::size_t i) const {
    return signers[i % signers.size()];
  }
};

struct RunResult {
  double batch_ms = 0.0;
  double individual_ms = 0.0;
  bool batch_verdict = false;
  std::vector<std::uint8_t> batch_output;     ///< serialized U_A ‖ Σ_A
  std::vector<std::uint8_t> verdict_bitmap;   ///< per-signature pass/fail
  pairing::OpCounters batch_ops;
  pairing::OpCounters individual_ops;
};

/// Serial reference: plain add() loop + one pairing, then per-signature
/// dv_verify. Thread-count runs must reproduce this exactly.
RunResult run_serial(const Fixture& f) {
  RunResult r;
  f.g.reset_counters();
  auto start = std::chrono::steady_clock::now();
  ibc::BatchAccumulator acc{f.g};
  for (std::size_t i = 0; i < f.sigs.size(); ++i) {
    acc.add(f.signer_of(i).q_id, hash::as_bytes(f.messages[i]), f.sigs[i]);
  }
  r.batch_verdict = acc.verify(f.csp_verifier);
  r.batch_ms = ms_since(start);
  r.batch_output = serialize_aggregates(f.g, acc);
  r.batch_ops = f.g.counters();

  f.g.reset_counters();
  start = std::chrono::steady_clock::now();
  r.verdict_bitmap.resize(f.sigs.size());
  for (std::size_t i = 0; i < f.sigs.size(); ++i) {
    r.verdict_bitmap[i] = ibc::dv_verify(f.g, f.signer_of(i).q_id,
                                         hash::as_bytes(f.messages[i]), f.sigs[i], f.csp)
                              ? 1
                              : 0;
  }
  r.individual_ms = ms_since(start);
  r.individual_ops = f.g.counters();
  return r;
}

RunResult run_parallel(const Fixture& f, std::size_t threads) {
  const pairing::ParallelPairingEngine engine{f.g, threads};
  RunResult r;

  std::vector<ibc::BatchEntry> entries;
  entries.reserve(f.sigs.size());
  for (std::size_t i = 0; i < f.sigs.size(); ++i) {
    entries.push_back({f.signer_of(i).q_id, hash::as_bytes(f.messages[i]), &f.sigs[i]});
  }

  f.g.reset_counters();
  auto start = std::chrono::steady_clock::now();
  ibc::BatchAccumulator acc{f.g};
  acc.add_batch(engine, entries);
  r.batch_verdict = acc.verify(f.csp_verifier);
  r.batch_ms = ms_since(start);
  r.batch_output = serialize_aggregates(f.g, acc);
  r.batch_ops = f.g.counters();

  f.g.reset_counters();
  start = std::chrono::steady_clock::now();
  r.verdict_bitmap.resize(f.sigs.size());
  engine.for_each(f.sigs.size(), [&](std::size_t i) {
    r.verdict_bitmap[i] = f.csp_verifier.verify(f.signer_of(i).q_id,
                                                hash::as_bytes(f.messages[i]), f.sigs[i])
                              ? 1
                              : 0;
  });
  r.individual_ms = ms_since(start);
  r.individual_ops = f.g.counters();
  return r;
}

bool matches(const RunResult& a, const RunResult& b) {
  return a.batch_verdict == b.batch_verdict && a.batch_output == b.batch_output &&
         a.verdict_bitmap == b.verdict_bitmap && a.batch_ops == b.batch_ops &&
         a.individual_ops == b.individual_ops;
}

}  // namespace

int main(int argc, char** argv) {
  seccloud::bench::Bench bench{"ablation_parallel_verify"};
  std::size_t n = seccloud::bench::scaled(1024, 32);
  if (argc > 1) n = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("=== ablation: parallel verification engine ===\n");
  std::printf("%zu signatures, 8 signers, 512-bit group; host has %u hardware thread(s)\n\n",
              n, hw);
  std::fprintf(stderr, "setting up %zu signatures...\n", n);
  const Fixture fixture{n};
  bench.use_group(fixture.g);
  bench.value("signatures", static_cast<double>(n));

  const RunResult serial = run_serial(fixture);
  if (!serial.batch_verdict) {
    std::printf("FAIL: serial batch verification rejected a valid batch\n");
    return 1;
  }
  bench.value("serial_batch_ms", serial.batch_ms);
  bench.value("serial_individual_ms", serial.individual_ms);

  std::printf("%8s %12s %14s %14s %14s\n", "threads", "batch (ms)", "individual(ms)",
              "batch spdup", "indiv spdup");
  std::printf("%8s %12.2f %14.2f %14s %14s\n", "serial", serial.batch_ms,
              serial.individual_ms, "1.00x", "1.00x");

  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);

  for (const std::size_t t : thread_counts) {
    const RunResult par = run_parallel(fixture, t);
    if (!matches(serial, par)) {
      std::printf("FAIL: %zu-thread run diverged from the serial reference\n", t);
      return 1;
    }
    std::printf("%8zu %12.2f %14.2f %13.2fx %13.2fx\n", t, par.batch_ms,
                par.individual_ms, serial.batch_ms / par.batch_ms,
                serial.individual_ms / par.individual_ms);
    const std::string prefix = "threads" + std::to_string(t);
    bench.value(prefix + "_batch_ms", par.batch_ms);
    bench.value(prefix + "_individual_ms", par.individual_ms);
  }

  std::printf("\nall thread counts reproduced the serial verdicts, serialized\n"
              "aggregates, and op-counter totals bit-for-bit.\n");
  if (hw < 2) {
    std::printf("note: single hardware thread — speedups cannot exceed ~1.0x here.\n");
  }
  bench.note("bit_identity", "all thread counts matched the serial reference");
  return bench.finish();
}
