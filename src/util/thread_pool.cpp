#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace seccloud::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  lanes_ = threads;
  queues_.reserve(lanes_);
  for (std::size_t i = 0; i < lanes_; ++i) {
    queues_.push_back(std::make_unique<Lane>());
  }
  workers_.reserve(lanes_ - 1);
  for (std::size_t i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Stored under sleep_m_: a worker that has evaluated its wait predicate
    // but not yet blocked still holds the mutex, so it either sees stop_ or
    // is already waiting when the notification arrives.
    std::lock_guard<std::mutex> lock(sleep_m_);
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(TaskGroup& group, Task task) {
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  // Wrap so completion is tracked no matter which lane runs it.
  Task wrapped = [this, &group, task = std::move(task)] {
    task();
    if (group.pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_m_);
      done_cv_.notify_all();
    }
  };
  const std::size_t lane =
      next_lane_.fetch_add(1, std::memory_order_relaxed) % lanes_;
  {
    std::lock_guard<std::mutex> lock(queues_[lane]->m);
    queues_[lane]->tasks.push_back(std::move(wrapped));
  }
  queued_.fetch_add(1, std::memory_order_release);
  if (obs::Counter* tasks = m_tasks_.load(std::memory_order_acquire)) tasks->inc();
  if (obs::Gauge* depth = m_depth_.load(std::memory_order_acquire)) depth->add(1);
  sleep_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  Task task;
  bool stolen = false;
  // Own lane first (back = most recently pushed), then steal round-robin
  // from the front of the other lanes.
  for (std::size_t attempt = 0; attempt < lanes_; ++attempt) {
    const std::size_t lane = (self + attempt) % lanes_;
    Lane& victim = *queues_[lane];
    std::lock_guard<std::mutex> lock(victim.m);
    if (victim.tasks.empty()) continue;
    if (lane == self) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
    } else {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      stolen = true;
    }
    break;
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  if (obs::Gauge* depth = m_depth_.load(std::memory_order_acquire)) depth->add(-1);
  if (stolen) {
    if (obs::Counter* steals = m_steals_.load(std::memory_order_acquire)) steals->inc();
  }
  if (obs::Histogram* task_ms = m_task_ms_.load(std::memory_order_acquire)) {
    const auto begin = std::chrono::steady_clock::now();
    task();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - begin;
    task_ms->observe(elapsed.count());
  } else {
    task();
  }
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  while (true) {
    if (try_run_one(index)) continue;
    std::unique_lock<std::mutex> lock(sleep_m_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::wait(TaskGroup& group) {
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    if (try_run_one(0)) continue;
    // Nothing runnable here but the group is still in flight on a worker;
    // sleep briefly (re-checked on every task completion).
    std::unique_lock<std::mutex> lock(done_m_);
    done_cv_.wait_for(lock, std::chrono::milliseconds(1), [&group] {
      return group.pending_.load(std::memory_order_acquire) == 0;
    });
  }
}

void ThreadPool::bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix) {
  const std::string p{prefix};
  // Late binding can race in-flight tasks on worker threads: the handles are
  // published with release stores (and read with acquire loads above) so a
  // worker that observes a handle also observes the fully constructed metric.
  m_tasks_.store(&registry.counter(p + ".tasks"), std::memory_order_release);
  m_steals_.store(&registry.counter(p + ".steals"), std::memory_order_release);
  m_depth_.store(&registry.gauge(p + ".queue_depth"), std::memory_order_release);
  m_task_ms_.store(&registry.histogram(p + ".task_ms"), std::memory_order_release);
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (lanes_ == 1 || n == 1) {
    body(0, n);
    return;
  }
  const std::size_t chunks = std::min(n, lanes_ * 4);
  TaskGroup group;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    submit(group, [&body, begin, end] { body(begin, end); });
  }
  wait(group);
}

}  // namespace seccloud::util
