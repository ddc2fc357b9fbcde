// Figure 5 — comparison of verification computation cost vs the number of
// cloud users (1..50).
//
// Paper: SecCloud's batch verification keeps the pairing count constant
// (flat curve ~2·T_pair) while the public-auditing schemes of Wang et al.
// [4]/[5] pay 2 pairings PER USER (linear curve). We reproduce both curves
// with real executions: our designated-verifier batch vs an executable
// Wang-style BLS homomorphic-authenticator verifier.
#include <chrono>
#include <cstdio>
#include <vector>

#include "baselines/wang_auditing.h"
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

}  // namespace

int main() {
  seccloud::bench::Bench bench{"figure5_verification_cost"};
  const auto& g = pairing::default_group();
  num::Xoshiro256 rng{20100611};
  const ibc::Sio sio{g, rng};
  const ibc::IdentityKey csp = sio.extract("csp");
  const ibc::DesignatedVerifier csp_verifier{g, csp};

  const std::size_t kMaxUsers = seccloud::bench::scaled(50, 4);
  constexpr std::size_t kBlocksPerWangFile = 4;
  constexpr std::size_t kWangSamples = 2;

  // --- setup: per-user SecCloud DV signatures and Wang files --------------
  struct OurUser {
    ibc::IdentityKey key;
    std::string message;
    ibc::DvSignature sig;
  };
  std::vector<OurUser> ours;
  baselines::WangScheme wang{g};
  struct WangUser {
    baselines::WangUserKey key;
    std::vector<num::BigUint> blocks;
    std::vector<pairing::Point> tags;
  };
  std::vector<WangUser> theirs;

  std::fprintf(stderr, "setting up %zu users...\n", kMaxUsers);
  for (std::size_t u = 0; u < kMaxUsers; ++u) {
    OurUser mine;
    mine.key = sio.extract("user-" + std::to_string(u));
    mine.message = "block-" + std::to_string(u);
    mine.sig = ibc::dv_transform(g, ibc::ibs_sign(g, mine.key, hash::as_bytes(mine.message), rng),
                                 csp.q_id);
    ours.push_back(std::move(mine));

    WangUser wu;
    wu.key = wang.keygen("file-" + std::to_string(u), rng);
    for (std::uint64_t i = 0; i < kBlocksPerWangFile; ++i) {
      wu.blocks.push_back(num::BigUint{100 * u + i});
      wu.tags.push_back(wang.tag_block(wu.key, i, wu.blocks.back()));
    }
    theirs.push_back(std::move(wu));
  }

  const pairing::ParallelPairingEngine engine{g};
  bench.use_engine(engine);
  bench.value("max_users", static_cast<double>(kMaxUsers));

  std::printf("=== Figure 5: verification cost vs number of cloud users ===\n");
  std::printf("(ours = designated-verifier batch, Eq. 8/9, final pairing only;\n"
              " par = per-entry aggregation PLUS the pairing, spread over the\n"
              " %zu-thread engine; wang = BLS homomorphic authenticator per [4]/[5];\n"
              " all measured on the 512-bit group)\n\n",
              engine.threads());
  std::printf("%6s %12s %14s %12s %14s %14s\n", "users", "ours (ms)", "ours pairings",
              "par (ms)", "wang (ms)", "wang pairings");

  for (std::size_t k = 1; k <= kMaxUsers; k += (k < 5 ? 4 : 5)) {
    // ours: one batch across the first k users.
    ibc::BatchAccumulator batch{g};
    for (std::size_t u = 0; u < k; ++u) {
      batch.add(ours[u].key.q_id, hash::as_bytes(ours[u].message), ours[u].sig);
    }
    g.reset_counters();
    const auto ours_start = std::chrono::steady_clock::now();
    const bool ours_ok = batch.verify(csp_verifier);
    const double ours_ms = ms_since(ours_start);
    const auto ours_pairings = g.counters().pairings;

    // ours-par: aggregation + single pairing through the parallel engine
    // (bit-identical verdict; the aggregation work spreads over the pool).
    std::vector<ibc::BatchEntry> entries;
    for (std::size_t u = 0; u < k; ++u) {
      entries.push_back({ours[u].key.q_id, hash::as_bytes(ours[u].message), &ours[u].sig});
    }
    g.reset_counters();
    const auto par_start = std::chrono::steady_clock::now();
    ibc::BatchAccumulator par_batch{g};
    par_batch.add_batch(engine, entries);
    const bool par_ok = par_batch.verify(csp_verifier);
    const double par_ms = ms_since(par_start);

    // wang: one 2-pairing proof verification per user.
    std::vector<std::vector<baselines::WangChallengeItem>> challenges;
    std::vector<baselines::WangProof> proofs;
    for (std::size_t u = 0; u < k; ++u) {
      challenges.push_back(wang.make_challenge(kBlocksPerWangFile, kWangSamples, rng));
      proofs.push_back(wang.prove(challenges.back(), theirs[u].blocks, theirs[u].tags));
    }
    g.reset_counters();
    const auto wang_start = std::chrono::steady_clock::now();
    bool wang_ok = true;
    for (std::size_t u = 0; u < k; ++u) {
      wang_ok = wang_ok &&
                wang.verify(wang.public_info(theirs[u].key), challenges[u], proofs[u]);
    }
    const double wang_ms = ms_since(wang_start);
    const auto wang_pairings = g.counters().pairings;

    if (!ours_ok || !par_ok || !wang_ok) {
      std::printf("verification unexpectedly failed at k=%zu\n", k);
      return 1;
    }
    std::printf("%6zu %12.2f %14llu %12.2f %14.2f %14llu\n", k, ours_ms,
                static_cast<unsigned long long>(ours_pairings), par_ms, wang_ms,
                static_cast<unsigned long long>(wang_pairings));
  }

  std::printf("\nshape check (paper): ours stays ~constant in the number of users;\n"
              "the comparison schemes grow linearly (2 pairings per user).\n");
  bench.note("shape", "ours ~constant pairings vs users; Wang-style 2 pairings/user");
  return bench.finish();
}
