// Work-stealing thread pool tests: sizing, completeness of parallel_for,
// task-group waiting, and the serial degenerate case that underpins the
// engine's "threads == 1 means no workers" guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace seccloud::util {
namespace {

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;  // 0 => hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitSizeHonored) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  ThreadPool pool{4};
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsNoOp) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsOnCaller) {
  // size 1 => no worker threads; the body must execute inline on the
  // calling thread (this is what makes threads=1 exactly the serial path).
  ThreadPool pool{1};
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 8u);
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, SubmitAndWaitRunsAllTasks) {
  ThreadPool pool{4};
  ThreadPool::TaskGroup group;
  std::atomic<std::uint64_t> sum{0};
  constexpr std::uint64_t kTasks = 500;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit(group, [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait(group);
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool{2};
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      count.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, BoundMetricsCountEveryTask) {
  obs::MetricsRegistry registry;
  ThreadPool pool{2};
  pool.bind_metrics(registry, "pool");

  constexpr std::uint64_t kTasks = 200;
  ThreadPool::TaskGroup group;
  std::atomic<std::uint64_t> ran{0};
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit(group, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait(group);
  ASSERT_EQ(ran.load(), kTasks);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("pool.tasks"), kTasks);
  // Every submitted task was drained, so the queue-depth gauge is back to
  // zero; the high-water mark shows at least one task was ever queued.
  EXPECT_EQ(snap.gauges.at("pool.queue_depth").value, 0);
  EXPECT_GE(snap.gauges.at("pool.queue_depth").max, 1);
  // Each task's latency was observed exactly once.
  EXPECT_EQ(snap.histograms.at("pool.task_ms").count, kTasks);
  // Steals are scheduling-dependent but bounded by the task count.
  EXPECT_LE(snap.counters.at("pool.steals"), kTasks);
}

TEST(ThreadPool, UnboundPoolReportsNoMetrics) {
  obs::MetricsRegistry registry;
  ThreadPool pool{2};  // never bound
  ThreadPool::TaskGroup group;
  pool.submit(group, [] {});
  pool.wait(group);
  EXPECT_TRUE(registry.snapshot().counters.empty());
}

TEST(ThreadPool, ChunkSumMatchesSerial) {
  // A floating-point-free reduction: partial sums folded after the barrier
  // equal the serial total regardless of scheduling.
  constexpr std::size_t kN = 4096;
  ThreadPool pool{4};
  std::vector<std::uint64_t> values(kN);
  for (std::size_t i = 0; i < kN; ++i) values[i] = i * i + 1;

  std::uint64_t serial = 0;
  for (const auto v : values) serial += v;

  std::atomic<std::uint64_t> parallel{0};
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
    std::uint64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) local += values[i];
    parallel.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(parallel.load(), serial);
}

TEST(ThreadPool, ShutdownWakesWorkersAboutToSleep) {
  // Regression: the destructor used to publish stop_ without holding the
  // workers' sleep mutex, so a worker between its wait-predicate check and
  // blocking missed the wake-up and join() never returned. Destroying pools
  // right after their workers went idle (or before they ever ran) hit that
  // window within a few hundred cycles; the ctest TIMEOUT turns the hang into
  // a failure.
  for (int cycle = 0; cycle < 2000; ++cycle) {
    ThreadPool pool{4};
    if (cycle % 2 == 0) continue;
    std::atomic<int> count{0};
    pool.parallel_for(16, [&](std::size_t begin, std::size_t end) {
      count.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 16);
  }
}

}  // namespace
}  // namespace seccloud::util
