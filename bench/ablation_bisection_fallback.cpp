// Ablation E10 — batch-verify fallback cost.
//
// When the one-pairing batch check (Eq. 8/9) rejects, the auditor isolates
// the invalid signatures by bisecting over range aggregates instead of
// re-verifying all n individually. This bench sweeps batch size n against
// the number of corrupted members k and reports the measured pairing counts
// (from the group's op counters) of the fallback path — batch check plus
// standalone isolation, at most 2 + k·⌈log2 n⌉ pairings — against individual
// re-verification at n pairings. The headline cell is the acceptance
// criterion: a batch of 64 with 3 corrupted isolates exactly those 3 at a
// fraction of 64 pairings.
#include <cstdio>
#include <vector>

#include "bench_support.h"
#include "ibc/dvs.h"
#include "ibc/ibs.h"
#include "ibc/keys.h"
#include "pairing/group.h"

using namespace seccloud;
using pairing::PairingGroup;

namespace {

struct Batch {
  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<ibc::DvSignature> sigs;
};

Batch make_batch(const PairingGroup& group, const ibc::IdentityKey& signer,
                 const ibc::IdentityKey& verifier, std::size_t n, num::RandomSource& rng) {
  Batch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.messages.push_back({'e', '1', '0', static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(i >> 8)});
    batch.sigs.push_back(ibc::dv_transform(
        group, ibc::ibs_sign(group, signer, batch.messages.back(), rng), verifier.q_id));
  }
  return batch;
}

/// k corruption sites spread evenly over [0, n).
std::vector<std::size_t> spread_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < k; ++i) bad.push_back(i * n / k);
  return bad;
}

struct Cell {
  std::uint64_t fallback_pairings = 0;    ///< batch check + bisection
  std::uint64_t individual_pairings = 0;  ///< one Eq. 5/7 check per entry
  ibc::BisectionStats stats;
  bool isolated_exactly = false;
};

Cell run_cell(const PairingGroup& group, const Batch& pristine,
              const ibc::IdentityKey& signer, const ibc::IdentityKey& verifier,
              std::size_t n, std::size_t k) {
  auto sigs = pristine.sigs;
  const std::vector<std::size_t> bad = spread_indices(n, k);
  for (const std::size_t i : bad) {
    sigs[i].sigma = group.gt_mul(sigs[i].sigma, sigs[i].sigma);
  }
  std::vector<ibc::BatchEntry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back({signer.q_id, pristine.messages[i], &sigs[i]});
  }

  Cell cell;
  group.reset_counters();
  const bool batch_ok = ibc::dv_batch_verify(group, entries, verifier);
  std::vector<std::size_t> invalid;
  if (!batch_ok) {
    invalid = ibc::dv_batch_isolate(group, entries, verifier, &cell.stats);
  }
  cell.fallback_pairings = group.counters().pairings;
  cell.isolated_exactly = invalid == bad && batch_ok == bad.empty();

  group.reset_counters();
  for (const auto& entry : entries) {
    (void)ibc::dv_verify(group, entry.signer_q_id, entry.message, *entry.sig, verifier);
  }
  cell.individual_pairings = group.counters().pairings;
  return cell;
}

}  // namespace

int main() {
  seccloud::bench::Bench bench{"ablation_bisection_fallback"};
  const PairingGroup& group = pairing::tiny_group();
  bench.use_group(group);

  num::Xoshiro256 rng{0xB15EC7ULL};
  const ibc::Sio sio{group, rng};
  const ibc::IdentityKey signer = sio.extract("user@bisect-bench");
  const ibc::IdentityKey verifier = sio.extract("da@bisect-bench");

  const std::vector<std::size_t> sizes =
      seccloud::bench::smoke_mode() ? std::vector<std::size_t>{16, 64}
                                    : std::vector<std::size_t>{16, 64, 256};
  const std::size_t n_max = sizes.back();
  const Batch pristine = make_batch(group, signer, verifier, n_max, rng);

  std::printf("=== E10: batch-reject bisection fallback (DVS, one signer) ===\n\n");
  std::printf("%6s %5s | %9s %11s %8s | %7s %6s | %s\n", "n", "bad", "fallback",
              "individual", "saving", "oracle", "depth", "isolated");

  bool all_exact = true;
  for (const std::size_t n : sizes) {
    Batch slice;
    slice.messages.assign(pristine.messages.begin(),
                          pristine.messages.begin() + static_cast<std::ptrdiff_t>(n));
    slice.sigs.assign(pristine.sigs.begin(),
                      pristine.sigs.begin() + static_cast<std::ptrdiff_t>(n));
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, n / 8}) {
      if (k > n) continue;
      const Cell cell = run_cell(group, slice, signer, verifier, n, k);
      all_exact = all_exact && cell.isolated_exactly;
      const double saving = cell.individual_pairings == 0
                                ? 0.0
                                : 1.0 - static_cast<double>(cell.fallback_pairings) /
                                            static_cast<double>(cell.individual_pairings);
      std::printf("%6zu %5zu | %9llu %11llu %7.0f%% | %7zu %6zu | %s\n", n, k,
                  static_cast<unsigned long long>(cell.fallback_pairings),
                  static_cast<unsigned long long>(cell.individual_pairings),
                  100.0 * saving, cell.stats.oracle_calls, cell.stats.max_depth,
                  cell.isolated_exactly ? "exact" : "MISMATCH");

      if (n == 64 && k == 3) {
        bench.value("acceptance_fallback_pairings",
                    static_cast<double>(cell.fallback_pairings));
        bench.value("acceptance_individual_pairings",
                    static_cast<double>(cell.individual_pairings));
        bench.value("acceptance_isolated_exactly", cell.isolated_exactly ? 1.0 : 0.0);
      }
    }
    std::printf("\n");
  }

  bench.value("all_cells_isolated_exactly", all_exact ? 1.0 : 0.0);
  bench.value("max_batch", static_cast<double>(n_max));
  bench.note("scheme", "DVS Eq. 8/9 aggregate with range-bisection fallback");
  return bench.finish();
}
