// Golden audit reports: every field of AuditReport and StorageAuditReport —
// verdict, failure counts, the isolated entry set, the bisection cost and
// the op counters — pinned as literals for fixed seeds, on honest, 1-bad and
// 3-of-8-bad inputs, in both signature-check modes. The audit entry points
// must reproduce each report exactly on a 1-lane engine (the serial path)
// and on 2 and 4 lanes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "ibc/keys.h"
#include "pairing/parallel.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/server.h"

namespace seccloud {
namespace {

using core::SignatureCheckMode;
using num::Xoshiro256;
using pairing::OpCounters;
using pairing::tiny_group;

constexpr std::size_t kLanes[] = {1, 2, 4};
constexpr std::size_t kBlocks = 8;

/// Which of the eight audited entries carry a bad signature.
const std::vector<std::vector<std::size_t>> kBadSets = {{}, {5}, {1, 4, 6}};

std::string describe(const OpCounters& ops) {
  return "{" + std::to_string(ops.pairings) + ", " + std::to_string(ops.miller_loops) + ", " +
         std::to_string(ops.final_exps) + ", " + std::to_string(ops.point_muls) + ", " +
         std::to_string(ops.gt_exps) + ", " + std::to_string(ops.hash_to_points) + ", " +
         std::to_string(ops.msm_terms) + "}";
}

std::string describe(const std::vector<std::size_t>& entries) {
  std::string out = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(entries[i]);
  }
  return out + "}";
}

void expect_ops(const OpCounters& actual, const OpCounters& expected, const std::string& what) {
  EXPECT_EQ(actual, expected) << what << ": ops " << describe(actual) << ", pinned "
                              << describe(expected);
}

class AuditGoldenTest : public ::testing::Test {
 protected:
  AuditGoldenTest()
      : g(tiny_group()),
        rng(0x601DE2),
        sio(g, rng),
        user_key(sio.extract("user@golden")),
        server_key(sio.extract("cs@golden")),
        da_key(sio.extract("da@golden")),
        client(g, sio.params(), user_key, server_key.q_id, da_key.q_id) {
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      raw.push_back(core::DataBlock::from_value(i, 11 * i + 3));
    }
    blocks = client.sign_blocks(std::move(raw), rng);
    // Four two-input requests cover all eight blocks, so a full challenge
    // puts eight input signatures in front of the auditor.
    for (std::uint64_t i = 0; i < kBlocks / 2; ++i) {
      core::ComputeRequest req;
      req.kind = static_cast<core::FuncKind>(i % 6);
      req.positions = {2 * i, 2 * i + 1};
      task.requests.push_back(std::move(req));
    }
  }

  core::BlockLookup lookup() const {
    return [this](std::uint64_t index) -> const core::SignedBlock* {
      return index < blocks.size() ? &blocks[index] : nullptr;
    };
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
  const ibc::DesignatedVerifier server_verifier{g, server_key};  ///< sk_CS lines, built once
  const ibc::DesignatedVerifier da_verifier{g, da_key};          ///< sk_DA lines, built once
  core::UserClient client;
  std::vector<core::SignedBlock> blocks;
  core::ComputationTask task;
};

/// The report fields that vary across the inputs; the rest are checked
/// against their fixed values inline.
struct Golden {
  bool accepted;
  std::size_t signature_failures;
  std::vector<std::size_t> invalid_signature_entries;
  ibc::BisectionStats bisection;
  OpCounters ops;
};

TEST_F(AuditGoldenTest, StorageAuditReportsArePinned) {
  // Indexed [bad set][mode]: kIndividual first, then kBatch. Ops are
  // {pairings, miller_loops, final_exps, point_muls, gt_exps,
  //  hash_to_points, msm_terms}. Each individual Eq. 5/7 check forms
  // U + h·Q_ID as one multi_mul with U as its addend: one msm_term.
  const Golden golden[3][2] = {
      {{true, 0, {}, {0, 0}, {8, 8, 8, 0, 0, 0, 8}},
       {true, 0, {}, {0, 0}, {1, 1, 1, 0, 0, 0, 1}}},
      {{false, 1, {}, {0, 0}, {8, 8, 8, 0, 0, 0, 8}},
       {false, 1, {5}, {3, 3}, {4, 4, 4, 0, 0, 0, 4}}},
      {{false, 3, {}, {0, 0}, {8, 8, 8, 0, 0, 0, 8}},
       {false, 3, {1, 4, 6}, {6, 3}, {7, 7, 7, 0, 0, 0, 7}}},
  };
  for (std::size_t b = 0; b < kBadSets.size(); ++b) {
    auto audited = blocks;
    for (const std::size_t i : kBadSets[b]) audited[i].block.payload[0] ^= 0x5A;
    for (const auto mode : {SignatureCheckMode::kIndividual, SignatureCheckMode::kBatch}) {
      const Golden& want = golden[b][mode == SignatureCheckMode::kBatch ? 1 : 0];
      for (const std::size_t lanes : kLanes) {
        const std::string what = "bad " + describe(kBadSets[b]) + ", " +
                                 (mode == SignatureCheckMode::kBatch ? "batch" : "individual") +
                                 ", " + std::to_string(lanes) + " lanes";
        const pairing::ParallelPairingEngine engine{g, lanes};
        const auto report =
            core::verify_storage_audit(engine, user_key.q_id, audited, da_verifier,
                                       core::VerifierRole::kDesignatedAgency, mode);
        EXPECT_EQ(report.accepted, want.accepted) << what;
        EXPECT_EQ(report.blocks_checked, kBlocks) << what;
        EXPECT_EQ(report.signature_failures, want.signature_failures) << what;
        EXPECT_EQ(report.invalid_signature_entries, want.invalid_signature_entries)
            << what << ": isolated " << describe(report.invalid_signature_entries);
        EXPECT_EQ(report.bisection.oracle_calls, want.bisection.oracle_calls) << what;
        EXPECT_EQ(report.bisection.max_depth, want.bisection.max_depth) << what;
        expect_ops(report.ops, want.ops, what);
      }
    }
  }
}

TEST_F(AuditGoldenTest, ComputationAuditReportsArePinned) {
  const core::TaskExecution exec = core::execute_task_honestly(task, lookup());
  const core::Commitment commitment =
      core::make_commitment(g, exec, server_key, da_key.q_id, user_key.q_id, rng);
  const core::Warrant warrant = client.make_warrant(da_key.id, 77, rng);
  const core::AuditChallenge challenge =
      core::make_challenge(task.requests.size(), task.requests.size(), warrant, rng);
  const core::AuditResponse honest =
      core::respond_to_audit(exec, challenge, lookup(), user_key.q_id, server_verifier, 1);
  ASSERT_EQ(honest.items.size(), task.requests.size());
  const pairing::Gt defect = g.pair(g.generator(), g.generator());

  // Indexed [bad set][mode]: kIndividual first, then kBatch. The Sig_CS(R)
  // check adds one pairing and one msm_term to either mode.
  const Golden golden[3][2] = {
      {{true, 0, {}, {0, 0}, {9, 9, 9, 0, 0, 0, 9}},
       {true, 0, {}, {0, 0}, {2, 2, 2, 0, 0, 0, 2}}},
      {{false, 1, {}, {0, 0}, {9, 9, 9, 0, 0, 0, 9}},
       {false, 1, {5}, {3, 3}, {5, 5, 5, 0, 0, 0, 5}}},
      {{false, 3, {}, {0, 0}, {9, 9, 9, 0, 0, 0, 9}},
       {false, 3, {1, 4, 6}, {6, 3}, {8, 8, 8, 0, 0, 0, 8}}},
  };
  for (std::size_t b = 0; b < kBadSets.size(); ++b) {
    // Entry e is input e % 2 of the e / 2-th returned sample (presentation
    // order); its Σ_DA is multiplied by a nontrivial GT element.
    core::AuditResponse response = honest;
    for (const std::size_t e : kBadSets[b]) {
      auto& sig = response.items[e / 2].inputs[e % 2].sig;
      sig.sigma_da = g.gt_mul(sig.sigma_da, defect);
    }
    for (const auto mode : {SignatureCheckMode::kIndividual, SignatureCheckMode::kBatch}) {
      const Golden& want = golden[b][mode == SignatureCheckMode::kBatch ? 1 : 0];
      for (const std::size_t lanes : kLanes) {
        const std::string what = "bad " + describe(kBadSets[b]) + ", " +
                                 (mode == SignatureCheckMode::kBatch ? "batch" : "individual") +
                                 ", " + std::to_string(lanes) + " lanes";
        const pairing::ParallelPairingEngine engine{g, lanes};
        const auto report =
            core::verify_computation_audit(engine, user_key.q_id, server_key.q_id, task,
                                           commitment, challenge, response, da_key, mode);
        EXPECT_EQ(report.accepted, want.accepted) << what;
        EXPECT_FALSE(report.warrant_rejected) << what;
        EXPECT_TRUE(report.root_signature_valid) << what;
        EXPECT_EQ(report.samples_requested, task.requests.size()) << what;
        EXPECT_EQ(report.samples_returned, task.requests.size()) << what;
        EXPECT_EQ(report.signature_failures, want.signature_failures) << what;
        EXPECT_EQ(report.computation_failures, 0u) << what;
        EXPECT_EQ(report.root_failures, 0u) << what;
        EXPECT_EQ(report.invalid_signature_entries, want.invalid_signature_entries)
            << what << ": isolated " << describe(report.invalid_signature_entries);
        EXPECT_EQ(report.bisection.oracle_calls, want.bisection.oracle_calls) << what;
        EXPECT_EQ(report.bisection.max_depth, want.bisection.max_depth) << what;
        expect_ops(report.ops, want.ops, what);
      }
    }
  }
}

}  // namespace
}  // namespace seccloud
