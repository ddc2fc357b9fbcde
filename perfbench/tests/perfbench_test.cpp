#include <gtest/gtest.h>

#include <set>
#include <string>

#include "perfbench.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Stats, NearestRankPercentiles) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(percentile(ten, 50.0), 5.0);
  EXPECT_EQ(percentile(ten, 90.0), 9.0);
  EXPECT_EQ(percentile(ten, 91.0), 10.0);
  EXPECT_EQ(percentile(ten, 100.0), 10.0);
  EXPECT_EQ(percentile(ten, 0.0), 1.0);
  EXPECT_EQ(percentile({4.0}, 90.0), 4.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  // Nearest rank picks an observed sample, never an interpolation.
  EXPECT_EQ(percentile({1.0, 2.0}, 50.0), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_EQ(min_samples_for(90.0), 100u);
  EXPECT_EQ(min_samples_for(50.0), 20u);
  EXPECT_EQ(min_samples_for(99.0), 1000u);
  EXPECT_FALSE(percentile_supported(0, 50.0));
}

TEST(Stats, ErrorPctDividesByAttempted) {
  EXPECT_DOUBLE_EQ(error_pct(1, 4), 25.0);  // not 1/3: failures stay in the base
  EXPECT_DOUBLE_EQ(error_pct(0, 137), 0.0);
  EXPECT_DOUBLE_EQ(error_pct(137, 137), 100.0);
  EXPECT_DOUBLE_EQ(error_pct(0, 0), 100.0);  // nothing attempted is no success
}

const std::set<std::string> kEndToEnd = {"setup_s", "audits_per_s", "audit_p50_ms",
                                         "audit_p90_ms", "peak_rss_mib"};

Options smoke(Workload w, std::uint64_t seed, bool trace) {
  Options o;
  o.workload = w;
  o.seed = seed;
  o.seconds = 0.2;
  o.trace = trace;
  o.smoke = true;
  return o;
}

class WorkloadSmoke : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadSmoke, EndToEndRunIsCorrectAndComplete) {
  const Result r = run_workload(smoke(GetParam(), 7, false));
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  std::set<std::string> names;
  for (const Metric& m : r.metrics) {
    names.insert(m.name);
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  EXPECT_EQ(names, kEndToEnd);
  const std::string json = result_json(r);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": ", 0), 0u) << json;
}

TEST_P(WorkloadSmoke, TracedRunReportsEveryLayer) {
  const Result r = run_workload(smoke(GetParam(), 7, true));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.metrics.size(), 35u);
  for (const char* name : {"service.run_epoch_ms", "ibc.cross_user_verify_ms",
                           "ibc.cross_user_reject_ms", "ibc.batch_isolate_ms",
                           "ec.mul_us", "pairing.pair_us", "field.mul_ns", "merkle.build_ms",
                           "core.audit_ms", "util.pool_busy_pct"}) {
    const Metric* m = r.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->value, 0.0) << name;
  }
  ASSERT_NE(r.find("service.unexplained_pct"), nullptr);
  ASSERT_NE(r.find("trace.overhead_pct"), nullptr);
  const double pairings = r.find("service.pairings_per_batch")->value;
  const double oracle = r.find("service.oracle_calls_per_epoch")->value;
  if (GetParam() == Workload::kFleetAdversarial) {
    EXPECT_GT(oracle, 0.0);
    EXPECT_GT(r.find("service.filtered_per_epoch")->value, 0.0);
  } else {
    EXPECT_EQ(pairings, 2.0);
    EXPECT_EQ(oracle, 0.0);
  }
}

TEST_P(WorkloadSmoke, InputDigestFollowsTheSeed) {
  const Result a = run_workload(smoke(GetParam(), 11, false));
  const Result b = run_workload(smoke(GetParam(), 11, false));
  const Result c = run_workload(smoke(GetParam(), 12, false));
  EXPECT_EQ(a.input_digest.size(), 64u);
  EXPECT_EQ(a.input_digest, b.input_digest);
  EXPECT_NE(a.input_digest, c.input_digest);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::Values(Workload::kFleetHonest,
                                           Workload::kFleetAdversarial,
                                           Workload::kIngestAudit),
                         [](const auto& info) { return std::string{to_string(info.param)}; });

}  // namespace
}  // namespace perfbench
