// Cost-attribution profiler tests: the ProfileSpan op-delta plumbing, the
// call-path aggregation math (inclusive/exclusive time and ops, saturating),
// the collapsed-stack / JSON exports, and the two determinism guarantees —
// identical runs produce identical traces AND profiles under the
// deterministic clock, and the attributed op totals of a storage audit are
// thread-count invariant for the parallel engine (every worker chunk
// accounts exactly its own ops via the per-thread mirror).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ibc/keys.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "pairing/parallel.h"
#include "seccloud/auditor.h"
#include "seccloud/client.h"

namespace seccloud {
namespace {

using num::Xoshiro256;
using obs::Profile;
using obs::ProfileSpan;
using obs::TraceEvent;
using pairing::OpCounters;
using pairing::tiny_group;

pairing::Point random_point(const pairing::PairingGroup& g, num::RandomSource& rng) {
  return g.mul(g.random_scalar(rng), g.generator());
}

TraceEvent span_event(std::string name, std::uint64_t ts, std::uint64_t dur,
                      std::uint32_t tid, std::uint32_t depth,
                      std::vector<std::pair<std::string, std::string>> args = {}) {
  TraceEvent event;
  event.name = std::move(name);
  event.kind = obs::EventKind::kSpan;
  event.ts_us = ts;
  event.dur_us = dur;
  event.tid = tid;
  event.depth = depth;
  event.args = std::move(args);
  return event;
}

const obs::PathStats* find_path(const Profile& profile, std::string_view path) {
  for (const auto& stats : profile.paths()) {
    if (stats.path == path) return &stats;
  }
  return nullptr;
}

const obs::PhaseStats* find_phase(const std::vector<obs::PhaseStats>& phases,
                                  std::string_view name) {
  for (const auto& phase : phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

// --- ProfileSpan -----------------------------------------------------------

TEST(ProfileSpan, InertWithoutTracer) {
  ASSERT_EQ(obs::current_tracer(), nullptr);
  ProfileSpan span = obs::profile_span("nothing");
  EXPECT_FALSE(span);
  span.arg("k", "v");  // must be harmless no-ops
  span.end();
}

TEST(ProfileSpan, AttachesOpDeltasAsArgs) {
  const auto& g = tiny_group();
  Xoshiro256 rng{7};
  const pairing::Point p = random_point(g, rng);
  const pairing::Point q = random_point(g, rng);

  obs::Tracer tracer{obs::Tracer::Clock::kDeterministic};
  {
    obs::TracerScope scope{&tracer};
    ProfileSpan span = obs::profile_span("paired");
    ASSERT_TRUE(span);
    (void)g.pair(p, q);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  // pair() bumps the derived pairings counter plus its two stages.
  std::map<std::string, std::string> args(events[0].args.begin(), events[0].args.end());
  EXPECT_EQ(args.at("ops.pairings"), "1");
  EXPECT_EQ(args.at("ops.miller_loops"), "1");
  EXPECT_EQ(args.at("ops.final_exps"), "1");
  // Zero-valued fields must be absent, not "0".
  EXPECT_EQ(args.count("ops.hash_to_points"), 0u);
}

TEST(ProfileSpan, NestedSpansSeeInclusiveDeltas) {
  const auto& g = tiny_group();
  Xoshiro256 rng{11};
  const pairing::Point p = random_point(g, rng);
  const pairing::Point q = random_point(g, rng);

  obs::Tracer tracer{obs::Tracer::Clock::kDeterministic};
  {
    obs::TracerScope scope{&tracer};
    ProfileSpan outer = obs::profile_span("outer");
    (void)g.mul(num::BigUint{3}, p);
    {
      ProfileSpan inner = obs::profile_span("inner");
      (void)g.pair(p, q);
    }
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // events() sorts parents first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  std::map<std::string, std::string> outer_args(events[0].args.begin(),
                                                events[0].args.end());
  std::map<std::string, std::string> inner_args(events[1].args.begin(),
                                                events[1].args.end());
  // The span arg carries the INCLUSIVE delta; exclusive attribution happens
  // at aggregation time.
  EXPECT_EQ(outer_args.at("ops.pairings"), "1");
  EXPECT_EQ(inner_args.at("ops.pairings"), "1");
  ASSERT_TRUE(outer_args.count("ops.point_muls"));
  EXPECT_GE(std::stoull(outer_args.at("ops.point_muls")), 1u);

  // Aggregation subtracts the child: outer keeps no pairing for itself.
  const Profile profile = Profile::from_tracer(tracer);
  const obs::PathStats* outer_path = find_path(profile, "outer");
  const obs::PathStats* inner_path = find_path(profile, "outer;inner");
  ASSERT_NE(outer_path, nullptr);
  ASSERT_NE(inner_path, nullptr);
  EXPECT_EQ(outer_path->incl_ops.pairings, 1u);
  EXPECT_EQ(outer_path->excl_ops.pairings, 0u);
  EXPECT_EQ(inner_path->excl_ops.pairings, 1u);
}

// --- aggregation math on hand-built events ---------------------------------

TEST(Profile, ExclusiveTimeAndOpsMath) {
  const std::vector<TraceEvent> events = {
      span_event("parent", 0, 100, 0, 0,
                 {{"ops.pairings", "3"}, {"ops.point_muls", "10"}}),
      span_event("child", 10, 30, 0, 1, {{"ops.pairings", "1"}}),
      span_event("child2", 50, 20, 0, 1, {{"ops.point_muls", "4"}}),
      span_event("worker", 5, 50, 1, 0, {{"ops.gt_exps", "2"}}),
  };
  const Profile profile = Profile::from_events(events);
  ASSERT_EQ(profile.paths().size(), 4u);

  const obs::PathStats* parent = find_path(profile, "parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->count, 1u);
  EXPECT_EQ(parent->incl_time, 100u);
  EXPECT_EQ(parent->excl_time, 50u);  // 100 - (30 + 20)
  EXPECT_EQ(parent->incl_ops.pairings, 3u);
  EXPECT_EQ(parent->excl_ops.pairings, 2u);
  EXPECT_EQ(parent->excl_ops.point_muls, 6u);

  const obs::PathStats* worker = find_path(profile, "worker");
  ASSERT_NE(worker, nullptr);  // other thread roots its own path
  EXPECT_EQ(worker->excl_ops.gt_exps, 2u);

  // Totals: every op and tick attributed exactly once.
  const OpCounters total = profile.total_ops();
  EXPECT_EQ(total.pairings, 3u);
  EXPECT_EQ(total.point_muls, 10u);
  EXPECT_EQ(total.gt_exps, 2u);
  EXPECT_EQ(profile.total_time(), 100u + 50u);
}

TEST(Profile, ChildOpsSaturateParentExclusive) {
  // A child claiming more ops than its parent (possible only if the mirror
  // were misused) must clamp the parent's exclusive count to zero, never
  // wrap around.
  const std::vector<TraceEvent> events = {
      span_event("parent", 0, 100, 0, 0, {{"ops.pairings", "1"}}),
      span_event("child", 10, 200, 0, 1, {{"ops.pairings", "5"}}),
  };
  const Profile profile = Profile::from_events(events);
  const obs::PathStats* parent = find_path(profile, "parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->excl_ops.pairings, 0u);
  EXPECT_EQ(parent->excl_time, 0u);
}

TEST(Profile, RepeatedPathsAccumulate) {
  const std::vector<TraceEvent> events = {
      span_event("a", 0, 10, 0, 0, {{"ops.pairings", "1"}}),
      span_event("a", 20, 30, 0, 0, {{"ops.pairings", "2"}}),
  };
  const Profile profile = Profile::from_events(events);
  ASSERT_EQ(profile.paths().size(), 1u);
  EXPECT_EQ(profile.paths()[0].count, 2u);
  EXPECT_EQ(profile.paths()[0].incl_time, 40u);
  EXPECT_EQ(profile.paths()[0].incl_ops.pairings, 3u);
}

TEST(Profile, PhasesAggregateByLeafNameAcrossPaths) {
  const std::vector<TraceEvent> events = {
      span_event("storage", 0, 100, 0, 0),
      span_event("verify", 10, 20, 0, 1, {{"ops.pairings", "1"}}),
      span_event("compute", 200, 100, 0, 0),
      span_event("verify", 210, 40, 0, 1, {{"ops.pairings", "2"}}),
  };
  const std::vector<obs::PhaseStats> phases = Profile::from_events(events).phases();
  const obs::PhaseStats* verify = find_phase(phases, "verify");
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(verify->count, 2u);
  EXPECT_EQ(verify->incl_time, 60u);
  EXPECT_EQ(verify->incl_ops.pairings, 3u);
}

TEST(Profile, CollapsedStackFormat) {
  const std::vector<TraceEvent> events = {
      span_event("parent", 0, 100, 0, 0),
      span_event("child", 10, 30, 0, 1),
  };
  const std::string collapsed = Profile::from_events(events).to_collapsed();
  EXPECT_NE(collapsed.find("parent 70\n"), std::string::npos);
  EXPECT_NE(collapsed.find("parent;child 30\n"), std::string::npos);
}

TEST(Profile, JsonCarriesPredictedVsMeasured) {
  const std::vector<TraceEvent> events = {
      span_event("verify", 0, 5000, 0, 0, {{"ops.miller_loops", "1"},
                                           {"ops.final_exps", "1"}}),
  };
  const obs::CostTable costs = obs::CostTable::paper_table1();
  const std::string json = Profile::from_events(events).to_json(&costs);
  EXPECT_NE(json.find("\"predicted_vs_measured\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"verify\""), std::string::npos);
  // One full pairing at Table I: 3.105 + 1.035 = T_pair = 4.14 ms (the JSON
  // prints the shortest round-trippable digits, so match only the prefix).
  EXPECT_NE(json.find("\"predicted_ms\":4.1"), std::string::npos);
}

TEST(CostTable, PricesPairingAsMillerPlusFinalExp) {
  const obs::CostTable costs = obs::CostTable::paper_table1();
  OpCounters ops;
  ops.pairings = 1;  // derived counter: must NOT be priced (double count)
  ops.miller_loops = 1;
  ops.final_exps = 1;
  EXPECT_DOUBLE_EQ(costs.predict_ms(ops), 4.14);
  ops.point_muls = 2;
  EXPECT_DOUBLE_EQ(costs.predict_ms(ops), 4.14 + 2 * 0.86);
}

// --- determinism ------------------------------------------------------------

/// A fixed span workload with real crypto ops; bit-identical across runs.
void deterministic_workload(const pairing::PairingGroup& g) {
  Xoshiro256 rng{99};
  const pairing::Point p = random_point(g, rng);
  const pairing::Point q = random_point(g, rng);
  ProfileSpan session = obs::profile_span("session");
  for (int i = 0; i < 2; ++i) {
    ProfileSpan verify = obs::profile_span("verify");
    verify.arg("round", std::to_string(i));
    (void)g.pair(p, q);
    (void)g.mul(num::BigUint{5}, p);
  }
}

TEST(Profile, DeterministicClockRunsAreBitIdentical) {
  const auto& g = tiny_group();
  obs::Tracer first{obs::Tracer::Clock::kDeterministic};
  {
    obs::TracerScope scope{&first};
    deterministic_workload(g);
  }
  obs::Tracer second{obs::Tracer::Clock::kDeterministic};
  {
    obs::TracerScope scope{&second};
    deterministic_workload(g);
  }
  EXPECT_EQ(first.events(), second.events());
  EXPECT_EQ(Profile::from_tracer(first), Profile::from_tracer(second));
  EXPECT_EQ(Profile::from_tracer(first).to_json(), Profile::from_tracer(second).to_json());
}

TEST(Profile, AttributedOpTotalsAreThreadCountInvariant) {
  const auto& g = tiny_group();
  Xoshiro256 rng{123};
  const ibc::Sio sio{g, rng};
  const ibc::IdentityKey user = sio.extract("user@profile-lanes");
  const ibc::IdentityKey server = sio.extract("cs@profile-lanes");
  const ibc::IdentityKey da = sio.extract("da@profile-lanes");
  const core::UserClient client{g, sio.params(), user, server.q_id, da.q_id};
  std::vector<core::DataBlock> raw;
  for (std::uint64_t i = 0; i < 12; ++i) raw.push_back(core::DataBlock::from_value(i, i + 1));
  std::vector<core::SignedBlock> blocks = client.sign_blocks(raw, rng);
  blocks[7].block.payload[0] ^= 0x11;  // one bad block: reject, then isolate
  const ibc::DesignatedVerifier da_verifier{g, da};

  std::vector<OpCounters> totals;
  core::StorageAuditReport expected;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    obs::Tracer tracer{obs::Tracer::Clock::kDeterministic};
    const pairing::ParallelPairingEngine engine{g, threads};
    core::StorageAuditReport report;
    {
      obs::TracerScope scope{&tracer};
      report = core::verify_storage_audit(engine, user.q_id, blocks, da_verifier,
                                          core::VerifierRole::kDesignatedAgency,
                                          core::SignatureCheckMode::kBatch);
    }
    if (totals.empty()) {
      expected = report;
      EXPECT_EQ(expected.invalid_signature_entries, std::vector<std::size_t>{7});
    } else {
      EXPECT_EQ(report.accepted, expected.accepted) << threads << " threads";
      EXPECT_EQ(report.invalid_signature_entries, expected.invalid_signature_entries)
          << threads << " threads";
      EXPECT_EQ(report.bisection, expected.bisection) << threads << " threads";
      EXPECT_EQ(report.ops, expected.ops) << threads << " threads";
    }
    totals.push_back(Profile::from_tracer(tracer).total_ops());
  }
  // Every op lands in exactly one span regardless of how the work is split
  // across workers: the per-thread mirror makes attribution additive.
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[1], totals[0]) << "2 threads vs serial";
  EXPECT_EQ(totals[2], totals[0]) << "4 threads vs serial";
  EXPECT_EQ(totals[0], expected.ops) << "every audit op is attributed";
  EXPECT_GT(totals[0].miller_loops, 0u);
}

}  // namespace
}  // namespace seccloud
