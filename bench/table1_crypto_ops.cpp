// Table I — cryptographic operation execution times.
//
// Paper (MIRACL on an Intel Core 2 Duo E6550, 2 GB RAM):
//   T_mult (point multiplication) = 0.86 ms
//   T_pair (pairing operation)    = 4.14 ms
// This benchmark measures the same operations on our from-scratch stack at
// the same parameter class (SS512 type-A curve), plus the supporting
// primitives the protocol uses. EXPERIMENTS.md records paper-vs-measured.
#include <benchmark/benchmark.h>

#include "baselines/ecdsa.h"
#include "baselines/rsa.h"
#include "bench_support.h"
#include "hash/sha256.h"
#include "pairing/group.h"

using namespace seccloud;

namespace {

const pairing::PairingGroup& group() { return pairing::default_group(); }

void BM_PointMultiplication_Tmult(benchmark::State& state) {
  num::Xoshiro256 rng{1};
  const auto& g = group();
  const pairing::Point p = g.generator();
  const num::BigUint k = g.random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.curve().mul(k, p));
  }
}
BENCHMARK(BM_PointMultiplication_Tmult)->Unit(benchmark::kMillisecond);

void BM_Pairing_Tpair(benchmark::State& state) {
  num::Xoshiro256 rng{2};
  const auto& g = group();
  const pairing::Point p = g.generator();
  const pairing::Point q = g.curve().mul(g.random_scalar(rng), p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.pair(p, q));
  }
}
BENCHMARK(BM_Pairing_Tpair)->Unit(benchmark::kMillisecond);

void BM_PairProduct(benchmark::State& state) {
  num::Xoshiro256 rng{3};
  const auto& g = group();
  std::vector<std::pair<pairing::Point, pairing::Point>> pairs;
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back(g.curve().mul(g.random_scalar(rng), g.generator()),
                       g.curve().mul(g.random_scalar(rng), g.generator()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.pair_product(pairs));
  }
}
BENCHMARK(BM_PairProduct)->Unit(benchmark::kMillisecond);

void BM_HashToG1(benchmark::State& state) {
  const auto& g = group();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.hash_to_g1("bench", "id-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_HashToG1)->Unit(benchmark::kMillisecond);

void BM_GtExponentiation(benchmark::State& state) {
  num::Xoshiro256 rng{4};
  const auto& g = group();
  const pairing::Gt e = g.pair(g.generator(), g.generator());
  const num::BigUint k = g.random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.gt_pow(e, k));
  }
}
BENCHMARK(BM_GtExponentiation)->Unit(benchmark::kMillisecond);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_P256_PointMul(benchmark::State& state) {
  static const ec::P256 p256;
  num::Xoshiro256 rng{5};
  const num::BigUint k = rng.next_nonzero_below(p256.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p256.curve().mul(k, p256.generator()));
  }
}
BENCHMARK(BM_P256_PointMul)->Unit(benchmark::kMillisecond);

void BM_Rsa1024_Verify(benchmark::State& state) {
  num::Xoshiro256 rng{6};
  static const baselines::RsaKeyPair key = baselines::rsa_generate(1024, rng);
  const std::vector<std::uint8_t> msg{1, 2, 3};
  const num::BigUint sig = baselines::rsa_sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::rsa_verify(key.n, key.e, msg, sig));
  }
}
BENCHMARK(BM_Rsa1024_Verify)->Unit(benchmark::kMillisecond);

void BM_Ecdsa_Verify(benchmark::State& state) {
  static const ec::P256 p256;
  num::Xoshiro256 rng{7};
  const baselines::EcdsaKeyPair key = baselines::ecdsa_generate(p256, rng);
  const std::vector<std::uint8_t> msg{4, 5, 6};
  const baselines::EcdsaSignature sig = baselines::ecdsa_sign(p256, key, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::ecdsa_verify(p256, key.q, msg, sig));
  }
}
BENCHMARK(BM_Ecdsa_Verify)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Table I: cryptographic operation execution time ===\n");
  std::printf("paper reference (MIRACL, Core 2 Duo E6550): T_mult = 0.86 ms, "
              "T_pair = 4.14 ms\n\n");
  seccloud::bench::Bench bench{"table1_crypto_ops"};
  bench.use_group(group());
  bench.note("paper_reference", "T_mult=0.86ms T_pair=4.14ms (MIRACL, Core 2 Duo E6550)");
  seccloud::bench::run_gbench(argc, argv);
  return bench.finish();
}
