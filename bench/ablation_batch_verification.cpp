// Ablation E3 — batch verification scaling (Section VI): wall time and
// pairing count of individual vs batch designated-verifier verification as
// the batch size grows, single-signer and mixed-signer.
#include <benchmark/benchmark.h>

#include "bench_support.h"
#include "hash/hash_to.h"
#include "ibc/dvs.h"
#include "ibc/keys.h"

using namespace seccloud;

namespace {

struct Fixture {
  const pairing::PairingGroup& g = pairing::default_group();
  num::Xoshiro256 rng{777};
  ibc::Sio sio{g, rng};
  ibc::IdentityKey csp = sio.extract("csp");
  ibc::DesignatedVerifier csp_verifier{g, csp};
  std::vector<ibc::IdentityKey> users;
  std::vector<std::string> messages;
  std::vector<ibc::DvSignature> sigs;

  explicit Fixture(std::size_t n, std::size_t signers) {
    for (std::size_t s = 0; s < signers; ++s) {
      users.push_back(sio.extract("signer-" + std::to_string(s)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      messages.push_back("m-" + std::to_string(i));
      const auto& signer = users[i % signers];
      sigs.push_back(ibc::dv_transform(
          g, ibc::ibs_sign(g, signer, hash::as_bytes(messages.back()), rng), csp.q_id));
    }
  }

  const ibc::IdentityKey& signer_of(std::size_t i) const { return users[i % users.size()]; }
};

void BM_IndividualVerify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static Fixture* fixture = nullptr;
  static std::size_t fixture_n = 0;
  if (fixture == nullptr || fixture_n != n) {
    delete fixture;
    fixture = new Fixture(n, 1);
    fixture_n = n;
  }
  for (auto _ : state) {
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      ok = ok && ibc::dv_verify(fixture->g, fixture->signer_of(i).q_id,
                                hash::as_bytes(fixture->messages[i]), fixture->sigs[i],
                                fixture->csp);
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["pairings"] = static_cast<double>(n);
}
BENCHMARK(BM_IndividualVerify)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_BatchVerify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static Fixture* fixture = nullptr;
  static std::size_t fixture_n = 0;
  if (fixture == nullptr || fixture_n != n) {
    delete fixture;
    fixture = new Fixture(n, 1);
    fixture_n = n;
  }
  for (auto _ : state) {
    ibc::BatchAccumulator acc{fixture->g};
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(fixture->signer_of(i).q_id, hash::as_bytes(fixture->messages[i]),
              fixture->sigs[i]);
    }
    benchmark::DoNotOptimize(acc.verify(fixture->csp_verifier));
  }
  state.counters["pairings"] = 1;
}
BENCHMARK(BM_BatchVerify)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_BatchVerifyMixedSigners(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static Fixture* fixture = nullptr;
  static std::size_t fixture_n = 0;
  if (fixture == nullptr || fixture_n != n) {
    delete fixture;
    fixture = new Fixture(n, 8);  // 8 distinct cloud users
    fixture_n = n;
  }
  for (auto _ : state) {
    ibc::BatchAccumulator acc{fixture->g};
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(fixture->signer_of(i).q_id, hash::as_bytes(fixture->messages[i]),
              fixture->sigs[i]);
    }
    benchmark::DoNotOptimize(acc.verify(fixture->csp_verifier));
  }
}
BENCHMARK(BM_BatchVerifyMixedSigners)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// Incremental accumulation cost (pairing-free adds).
void BM_BatchAccumulateOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static Fixture fixture{64, 1};
  for (auto _ : state) {
    ibc::BatchAccumulator acc{fixture.g};
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(fixture.signer_of(i).q_id, hash::as_bytes(fixture.messages[i]),
              fixture.sigs[i]);
    }
    benchmark::DoNotOptimize(acc.size());
  }
}
BENCHMARK(BM_BatchAccumulateOnly)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E3: batch verification ablation (Section VI) ===\n"
              "expected shape: individual grows linearly in batch size; batch stays\n"
              "near-constant (1 pairing) with a small linear point-add term.\n\n");
  seccloud::bench::Bench bench{"ablation_batch_verification"};
  bench.use_group(pairing::default_group());
  seccloud::bench::run_gbench(argc, argv);
  return bench.finish();
}
