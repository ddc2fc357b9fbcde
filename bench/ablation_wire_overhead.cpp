// Ablation E5 — transmission overhead (the C_trans term of Eq. 17 and the
// "data transfer bottleneck" the paper cites as a top cloud obstacle):
// exact wire sizes of every protocol message as the audit sample size t and
// the task size n grow, plus the compressed-point saving.
#include <cstdio>

#include "bench_support.h"
#include "ibc/keys.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/codec.h"
#include "seccloud/server.h"
#include "sim/workload.h"

using namespace seccloud;

int main() {
  seccloud::bench::Bench bench{"ablation_wire_overhead"};
  const auto& g = pairing::tiny_group();
  bench.use_group(g);
  num::Xoshiro256 rng{606};
  const ibc::Sio sio{g, rng};
  const auto user_key = sio.extract("user");
  const auto server_key = sio.extract("server");
  const auto da_key = sio.extract("da");
  const core::UserClient client{g, sio.params(), user_key, server_key.q_id, da_key.q_id};

  const std::size_t field_bytes = (g.params().p.bit_length() + 7) / 8;
  std::printf("=== E5: wire overhead (tiny group, |p| = %zu bytes; scale element\n"
              "sizes by %zux for the SS512 production group) ===\n\n",
              field_bytes, 64 / field_bytes);

  // --- per-element sizes ---------------------------------------------------
  const auto one_block = client.sign_blocks({core::DataBlock::from_value(0, 42)}, rng).at(0);
  const std::size_t signed_block_bytes = core::encode_signed_block(g, one_block).size();
  bench.value("signed_block_bytes", static_cast<double>(signed_block_bytes));
  bench.value("field_bytes", static_cast<double>(field_bytes));
  std::printf("signed block (8B payload): %zu bytes (point %zu + 2 GT %zu + framing)\n",
              signed_block_bytes, 1 + 2 * field_bytes, 2 * field_bytes);
  std::printf("compressed point would save %zu bytes/signature\n\n", field_bytes);

  // --- response size vs sample size t ------------------------------------
  const sim::Workload w = sim::make_random_workload({256, 64, 4, true, 3});
  const std::vector<core::SignedBlock> stored = client.sign_blocks(w.blocks, rng);
  const core::BlockLookup lookup = [&stored](std::uint64_t index) -> const core::SignedBlock* {
    return index < stored.size() ? &stored[index] : nullptr;
  };
  const core::TaskExecution exec = core::execute_task_honestly(w.task, lookup);
  const ibc::DesignatedVerifier server{g, server_key};  // sk_CS lines for every warrant

  std::printf("%6s %18s %18s %22s\n", "t", "challenge (B)", "response (B)",
              "response B/sample");
  for (const std::size_t t : {1u, 2u, 4u, 8u, 16u, 33u, 64u}) {
    const core::Warrant warrant = client.make_warrant(da_key.id, 100, rng);
    const auto challenge = core::make_challenge(w.task.requests.size(), t, warrant, rng);
    const auto response =
        core::respond_to_audit(exec, challenge, lookup, user_key.q_id, server, 1);
    const auto challenge_bytes = core::encode_challenge(g, challenge).size();
    const auto response_bytes = core::encode_response(g, response).size();
    std::printf("%6zu %18zu %18zu %22.1f\n", t, challenge_bytes, response_bytes,
                static_cast<double>(response_bytes) / static_cast<double>(t));
  }

  // --- Merkle path share vs task size n -----------------------------------
  std::printf("\nper-sample Merkle-path share vs task size n (log n levels x 33 B):\n");
  std::printf("%8s %16s %20s\n", "n", "path levels", "path bytes/sample");
  for (const std::size_t n : {8u, 64u, 512u, 4096u}) {
    sim::WorkloadSpec spec;
    spec.num_blocks = 16;
    spec.num_requests = n;
    spec.positions_per_request = 2;
    spec.seed = n;
    const sim::Workload big = sim::make_random_workload(spec);
    const std::vector<core::SignedBlock> small_store = client.sign_blocks(big.blocks, rng);
    const core::BlockLookup small_lookup =
        [&small_store](std::uint64_t index) -> const core::SignedBlock* {
      return index < small_store.size() ? &small_store[index] : nullptr;
    };
    const core::TaskExecution big_exec = core::execute_task_honestly(big.task, small_lookup);
    const auto path = big_exec.tree().prove(n / 2);
    std::printf("%8zu %16zu %20zu\n", n, path.size(),
                merkle::MerkleTree::serialize_proof(path).size());
  }

  std::printf("\nshape: response bytes grow linearly in t (dominated by the sampled\n"
              "input blocks + signatures); the Merkle share grows only as log n —\n"
              "this is why the paper samples instead of shipping whole results.\n");
  return bench.finish();
}
