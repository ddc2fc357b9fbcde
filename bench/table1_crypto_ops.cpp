// Table I — cryptographic operation execution times.
//
// Paper (MIRACL on an Intel Core 2 Duo E6550, 2 GB RAM):
//   T_mult (point multiplication) = 0.86 ms
//   T_pair (pairing operation)    = 4.14 ms
// This benchmark measures the same operations on our from-scratch stack at
// the same parameter class (SS512 type-A curve), plus the supporting
// primitives the protocol uses: the final exponentiation on its own, and
// SHA-256 over 1 MiB (its mean time is the hash's throughput, 1 MiB per
// sha256_1mib_ms). The fixed-base rows (a prepared Q_ID table,
// a prepared GT comb, a two-verifier DvSigner::sign and the table builds) are
// the per-block signing cost under the fleet's set-up; each row's mean time
// is also recorded in BENCH_table1_crypto_ops.json as "<row>_ms", next to the
// pinned table sizes. EXPERIMENTS.md records paper-vs-measured.
#include <benchmark/benchmark.h>

#include "baselines/ecdsa.h"
#include "baselines/rsa.h"
#include "bench_support.h"
#include "hash/sha256.h"
#include "ibc/dvs.h"
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

void BM_FixedBaseMultiplication(benchmark::State& state) {
  num::Xoshiro256 rng{1};
  const auto& g = group();
  const ec::FixedBaseTable table{g.curve(), g.generator()};
  const num::BigUint k = g.random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.curve().mul(table, k));
  }
}
BENCHMARK(BM_FixedBaseMultiplication)->Unit(benchmark::kMillisecond);

void BM_FixedBaseTableBuild(benchmark::State& state) {
  const auto& g = group();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::FixedBaseTable{g.curve(), g.generator()});
  }
}
BENCHMARK(BM_FixedBaseTableBuild)->Unit(benchmark::kMillisecond);

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

void BM_FinalExponentiation(benchmark::State& state) {
  num::Xoshiro256 rng{2};
  const auto& g = group();
  const pairing::Point q = g.curve().mul(g.random_scalar(rng), g.generator());
  const field::Fp2 f = g.miller(g.generator(), q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.finalize(f));
  }
}
BENCHMARK(BM_FinalExponentiation)->Unit(benchmark::kMillisecond);

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

void BM_GtCombExponentiation(benchmark::State& state) {
  num::Xoshiro256 rng{4};
  const auto& g = group();
  const pairing::GtComb comb{g, g.pair(g.generator(), g.generator())};
  const num::BigUint k = g.random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.gt_pow(comb, k));
  }
}
BENCHMARK(BM_GtCombExponentiation)->Unit(benchmark::kMillisecond);

void BM_GtCombBuild(benchmark::State& state) {
  const auto& g = group();
  const pairing::Gt e = g.pair(g.generator(), g.generator());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::GtComb{g, e});
  }
}
BENCHMARK(BM_GtCombBuild)->Unit(benchmark::kMillisecond);

/// A block signer designating the cloud server and the agency, as the
/// fleet's pre-signing and sign_blocks use it.
const ibc::DvSigner& two_verifier_signer() {
  static const ibc::DvSigner signer = [] {
    const auto& g = group();
    num::Xoshiro256 rng{9};
    const ibc::Sio sio{g, rng};
    const pairing::Point verifiers[] = {sio.extract("CS").q_id, sio.extract("DA").q_id};
    return ibc::DvSigner{g, sio.extract("user"), verifiers};
  }();
  return signer;
}

void BM_DvSignerSign_TwoVerifiers(benchmark::State& state) {
  num::Xoshiro256 rng{8};
  const ibc::DvSigner& signer = two_verifier_signer();
  const std::vector<std::uint8_t> block(64, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign(block, rng));
  }
}
BENCHMARK(BM_DvSignerSign_TwoVerifiers)->Unit(benchmark::kMillisecond);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_Sha256_1MiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(std::size_t{1} << 20, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) << 20);
}
BENCHMARK(BM_Sha256_1MiB)->Unit(benchmark::kMillisecond);

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
  std::map<std::string, double> wall_ms;
  seccloud::bench::run_gbench(argc, argv, &wall_ms);
  for (const auto& [row, key] : std::initializer_list<std::pair<const char*, const char*>>{
           {"BM_PointMultiplication_Tmult", "t_mult_ms"},
           {"BM_FixedBaseMultiplication", "fixed_base_mul_ms"},
           {"BM_FixedBaseTableBuild", "fixed_base_build_ms"},
           {"BM_Pairing_Tpair", "t_pair_ms"},
           {"BM_FinalExponentiation", "final_exp_ms"},
           {"BM_GtExponentiation", "gt_pow_ms"},
           {"BM_GtCombExponentiation", "gt_comb_pow_ms"},
           {"BM_GtCombBuild", "gt_comb_build_ms"},
           {"BM_DvSignerSign_TwoVerifiers", "dv_sign_2v_ms"},
           {"BM_Sha256_1MiB", "sha256_1mib_ms"}}) {
    if (const auto it = wall_ms.find(row); it != wall_ms.end()) bench.value(key, it->second);
  }
  const auto& g = group();
  bench.value("fixed_base_table_bytes",
              static_cast<double>(ec::FixedBaseTable{g.curve(), g.generator()}.bytes()));
  bench.value("gt_comb_bytes", static_cast<double>(pairing::GtComb{g, g.gt_one()}.bytes()));
  bench.value("dv_signer_2v_table_bytes",
              static_cast<double>(two_verifier_signer().table_bytes()));
  return bench.finish();
}
