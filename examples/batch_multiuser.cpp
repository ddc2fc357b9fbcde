// Multi-user batch verification (Section VI) and the privacy-cheating
// discouragement model: k users submit signed blocks to one CSP, which
// batch-verifies everything with a single pairing (Eq. 8/9); a compromised
// server then tries to resell user data and fails because designated-
// verifier transcripts are simulatable.
#include <chrono>
#include <cstdio>

#include "hash/hash_to.h"
#include "ibc/dvs.h"
#include "sim/resale.h"

using namespace seccloud;

int main() {
  const auto& group = pairing::default_group();  // full 512-bit parameters
  num::Xoshiro256 rng{99};
  const ibc::Sio sio{group, rng};
  const ibc::IdentityKey csp = sio.extract("csp.cloud.example");
  const ibc::DesignatedVerifier csp_verifier{group, csp};  // sk_CS lines, built once

  std::printf("=== Multi-user batch verification (Eq. 8/9, 512-bit group) ===\n\n");

  constexpr int kUsers = 5;
  constexpr int kSigsPerUser = 4;
  struct UserBundle {
    ibc::IdentityKey key;
    std::vector<std::string> messages;
    std::vector<ibc::DvSignature> sigs;
  };
  std::vector<UserBundle> users;
  for (int u = 0; u < kUsers; ++u) {
    UserBundle bundle;
    bundle.key = sio.extract("user-" + std::to_string(u) + "@example.com");
    for (int j = 0; j < kSigsPerUser; ++j) {
      bundle.messages.push_back("block-" + std::to_string(u) + "-" + std::to_string(j));
      const auto ibs =
          ibc::ibs_sign(group, bundle.key, hash::as_bytes(bundle.messages.back()), rng);
      bundle.sigs.push_back(ibc::dv_transform(group, ibs, csp.q_id));
    }
    users.push_back(std::move(bundle));
  }
  std::printf("%d users generated %d designated-verifier signatures\n", kUsers,
              kUsers * kSigsPerUser);

  // Individual verification: one pairing each.
  group.reset_counters();
  auto start = std::chrono::steady_clock::now();
  bool all_ok = true;
  for (const auto& user : users) {
    for (int j = 0; j < kSigsPerUser; ++j) {
      all_ok = all_ok && ibc::dv_verify(group, user.key.q_id,
                                        hash::as_bytes(user.messages[static_cast<std::size_t>(j)]),
                                        user.sigs[static_cast<std::size_t>(j)], csp);
    }
  }
  const auto individual_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  const auto individual_pairings = group.counters().pairings;

  // Batch verification: one pairing total, regardless of users or count.
  ibc::BatchAccumulator batch{group};
  for (const auto& user : users) {
    for (int j = 0; j < kSigsPerUser; ++j) {
      batch.add(user.key.q_id, hash::as_bytes(user.messages[static_cast<std::size_t>(j)]),
                user.sigs[static_cast<std::size_t>(j)]);
    }
  }
  group.reset_counters();
  start = std::chrono::steady_clock::now();
  const bool batch_ok = batch.verify(csp_verifier);
  const auto batch_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const auto batch_pairings = group.counters().pairings;

  std::printf("individual verify: %s, %llu pairings, %lld us\n", all_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(individual_pairings),
              static_cast<long long>(individual_us));
  std::printf("batch verify:      %s, %llu pairing,  %lld us  (%.1fx faster)\n\n",
              batch_ok ? "ok" : "FAIL", static_cast<unsigned long long>(batch_pairings),
              static_cast<long long>(batch_us),
              static_cast<double>(individual_us) / static_cast<double>(batch_us));

  // --- privacy-cheating discouragement -----------------------------------
  std::printf("=== Privacy: why a hacked CSP cannot sell this data ===\n\n");
  const auto& alice = users[0];
  const auto transcript = sim::make_transcript_pair(
      group, alice.key, csp, hash::as_bytes(alice.messages[0]), rng);
  std::printf("genuine transcript verifies AND a CSP-forged one verifies: %s\n",
              transcript.both_verify ? "yes" : "no");
  std::printf("=> a verification transcript proves nothing to a buyer; only holders of\n"
              "   sk_CS / sk_DA can check signatures, so Pr[InfoLeak] ~ Pr[SigForge]\n"
              "   (Eq. 16) and rational buyers walk away.\n");
  return all_ok && batch_ok && transcript.both_verify ? 0 : 1;
}
