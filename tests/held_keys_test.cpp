// Held keys on the core audit path: the client's block signer is built once
// (on first use) and shared by its copies; the facade's server and agency
// check through verifiers they hold, with reports equal to the IdentityKey
// wrappers'.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "ibc/keys.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"
#include "seccloud/server.h"
#include "seccloud/system.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using pairing::OpCounters;
using pairing::tiny_group;

class HeldKeysTest : public ::testing::Test {
 protected:
  HeldKeysTest()
      : g(tiny_group()),
        rng(2701),
        sio(g, rng),
        user_key(sio.extract("alice@held")),
        server_key(sio.extract("cs@held")),
        da_key(sio.extract("da@held")) {}

  core::UserClient make_client() const {
    return core::UserClient{g, sio.params(), user_key, server_key.q_id, da_key.q_id};
  }

  static std::vector<core::DataBlock> blocks(std::uint64_t first, std::uint64_t count) {
    std::vector<core::DataBlock> out;
    for (std::uint64_t i = first; i < first + count; ++i) {
      out.push_back(core::DataBlock::from_value(i, 7 * i + 1));
    }
    return out;
  }

  const pairing::PairingGroup& g;
  Xoshiro256 rng;
  ibc::Sio sio;
  ibc::IdentityKey user_key;
  ibc::IdentityKey server_key;
  ibc::IdentityKey da_key;
};

TEST_F(HeldKeysTest, ClientPairsOnlyToBuildItsSigner) {
  const core::UserClient client = make_client();
  const ibc::DesignatedVerifier server{g, server_key};

  g.reset_counters();
  (void)client.sign_blocks(blocks(0, 4), rng);
  EXPECT_EQ(g.counters().pairings, 2u) << "g_CS and g_DA, once";

  g.reset_counters();
  const auto second = client.sign_blocks(blocks(4, 4), rng);
  EXPECT_EQ(g.counters().pairings, 0u);

  // One fixed-base U and a comb power per designated verifier; Σ_DA is
  // computed and dropped.
  g.reset_counters();
  const core::Warrant warrant = client.make_warrant(da_key.id, 9, rng);
  EXPECT_EQ(g.counters(), (OpCounters{.point_muls = 1, .gt_exps = 2}));
  EXPECT_TRUE(core::warrant_valid(server, user_key.q_id, warrant, 9));
  EXPECT_FALSE(core::warrant_valid(server, user_key.q_id, warrant, 10));  // expired

  // A copy shares the signer: no pairing for it either.
  const core::UserClient copy = client;
  g.reset_counters();
  const auto copied = copy.sign_blocks(blocks(8, 2), rng);
  const core::Warrant copied_warrant = copy.make_warrant(da_key.id, 9, rng);
  EXPECT_EQ(g.counters().pairings, 0u);
  EXPECT_TRUE(core::warrant_valid(server, user_key.q_id, copied_warrant, 9));

  // Blocks signed by the reused signer verify for both designated verifiers.
  const ibc::DesignatedVerifier da{g, da_key};
  for (const auto& [signed_blocks, role, verifier] :
       {std::tuple{&second, core::VerifierRole::kDesignatedAgency, &da},
        std::tuple{&copied, core::VerifierRole::kCloudServer, &server}}) {
    EXPECT_TRUE(core::verify_storage_audit(pairing::ParallelPairingEngine{g, 1},
                                           user_key.q_id, *signed_blocks, *verifier, role,
                                           core::SignatureCheckMode::kIndividual)
                    .accepted);
  }
}

TEST_F(HeldKeysTest, WarrantFirstBuildsTheSameSigner) {
  // A client whose first call is make_warrant pays the signer's two
  // pairings there, and signs the same bytes as one that signed blocks first.
  const core::UserClient fresh = make_client();
  const core::UserClient warmed = make_client();
  (void)warmed.sign_blocks(blocks(0, 1), rng);

  Xoshiro256 fresh_rng{5};
  Xoshiro256 warmed_rng{5};
  g.reset_counters();
  const core::Warrant a = fresh.make_warrant(da_key.id, 3, fresh_rng);
  EXPECT_EQ(g.counters().pairings, 2u);
  const core::Warrant b = warmed.make_warrant(da_key.id, 3, warmed_rng);
  EXPECT_EQ(g.counters().pairings, 2u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(fresh_rng.next_u64(), warmed_rng.next_u64());
}

TEST_F(HeldKeysTest, ConcurrentWarrantsShareOneSignerBuild) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWarrantsPerThread = 3;
  const core::UserClient client = make_client();
  std::vector<std::vector<core::Warrant>> warrants(kThreads);

  g.reset_counters();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&client, &warrants, t, this] {
        Xoshiro256 thread_rng{100 + t};
        for (std::size_t w = 0; w < kWarrantsPerThread; ++w) {
          warrants[t].push_back(client.make_warrant(da_key.id, 50 + w, thread_rng));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(g.counters().pairings, 2u) << "one signer build across all threads";

  const ibc::DesignatedVerifier server{g, server_key};
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(warrants[t].size(), kWarrantsPerThread);
    for (std::size_t w = 0; w < kWarrantsPerThread; ++w) {
      EXPECT_TRUE(core::warrant_valid(server, user_key.q_id, warrants[t][w], 50))
          << "thread " << t << ", warrant " << w;
    }
  }
  // Each thread's warrants are what a serial client signs from the same RNG.
  Xoshiro256 serial_rng{100 + 2};
  EXPECT_EQ(make_client().make_warrant(da_key.id, 50, serial_rng), warrants[2][0]);
}

TEST(HeldKeysSystemTest, AgencyAuditEqualsTheIdentityKeyWrapper) {
  // Two systems from one seed draw the same keys, challenges and nonces: one
  // audits through SystemAgency::audit (held verifiers), the other replays
  // its steps and verifies through the IdentityKey wrapper.
  const auto& g = tiny_group();
  core::ComputationTask task;
  for (std::uint64_t i = 0; i < 8; ++i) {
    core::ComputeRequest request;
    request.kind = static_cast<core::FuncKind>(i % 6);
    request.positions = {2 * i, 2 * i + 1};
    task.requests.push_back(std::move(request));
  }
  struct Rig {
    explicit Rig(const pairing::PairingGroup& group) : sys(group, 77) {}
    core::SecCloudSystem sys;
    std::vector<core::SystemUser> users;
  };
  Rig held{g};
  Rig wrapped{g};
  std::vector<core::SystemServer::ExecutedTask> executed(2);
  for (Rig* rig : {&held, &wrapped}) {
    rig->users.push_back(rig->sys.register_user("alice"));
    const core::SystemUser& user = rig->users.back();
    std::vector<core::DataBlock> raw;
    for (std::uint64_t i = 0; i < 16; ++i) raw.push_back(core::DataBlock::from_value(i, i * i));
    ASSERT_TRUE(rig->sys.cloud_server().store(user.key().q_id, user.sign_blocks(raw)));
    executed[rig == &held ? 0 : 1] = rig->sys.cloud_server().compute(user.key().q_id, task);
  }
  ASSERT_EQ(executed[0].commitment, executed[1].commitment);

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    const core::AuditReport by_held = held.sys.agency().audit(
        held.users[0], held.sys.cloud_server(), executed[0].task_id, task,
        executed[0].commitment, /*samples=*/5, epoch);

    const core::SystemUser& user = wrapped.users[0];
    core::SystemServer& server = wrapped.sys.cloud_server();
    const core::AuditChallenge challenge = wrapped.sys.agency().challenge(
        task.requests.size(), 5, user.delegate_audit(epoch + 16));
    const core::AuditResponse response =
        server.respond(user.key().q_id, executed[1].task_id, challenge, epoch);
    const core::AuditReport by_key = core::verify_computation_audit(
        pairing::ParallelPairingEngine{g, 1}, user.key().q_id, server.key().q_id, task,
        executed[1].commitment, challenge, response, wrapped.sys.agency().key(),
        core::SignatureCheckMode::kBatch);

    EXPECT_TRUE(by_held.accepted) << "epoch " << epoch;
    EXPECT_EQ(by_held, by_key) << "epoch " << epoch;
    EXPECT_EQ(by_held.ops, by_key.ops) << "epoch " << epoch;
  }
}

}  // namespace
}  // namespace seccloud
