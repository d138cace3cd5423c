#pragma once
// Work-stealing thread pool shared by the flow executor. Each worker owns a
// deque: it pushes and pops work at the back (LIFO, cache-warm), thieves
// take from the front (FIFO, oldest first). External submissions are dealt
// round-robin across the worker deques. Any thread — including a caller
// blocked on a join — can drain queued work through tryRunOne(), which is
// what makes nested fan-out (a pooled task spawning subtasks and waiting
// for them) deadlock-free: the waiter helps instead of sleeping.
//
// Tasks must not throw (wrap and capture; the flow executor does). The
// pool is deliberately mutex-per-deque rather than lock-free: flow tasks
// are coarse (whole synthesis passes, cosim shards), so queue contention
// is noise, and the simple locking is ThreadSanitizer-clean by
// construction.
//
// Each worker keeps relaxed-atomic run/steal/idle counters (surfaced
// through workerStats() and the bench "metrics.pool" section); the deques
// track a queue-depth high-water mark under their own mutex.
//
// Worker threads outlive the pools they serve. A pool adopts threads
// parked by earlier pools from a process-wide WorkerLot and spawns only
// the shortfall; its destructor parks its workers again instead of
// joining them. Starting a pool right after another one finished then
// costs a handful of wakeups instead of thread creation (an Executor is
// built per flow run). The lot joins every parked thread at process exit.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace lis::support {

/// Process-wide home of idle pool worker threads (see the header comment).
class WorkerLot {
public:
  /// One pool's use of a thread: `run` is the worker loop; `parked` runs
  /// once the thread is back in the lot, so a pool that waits for it
  /// never returns while its thread is still on the way out.
  struct Job {
    std::function<void()> run;
    std::function<void()> parked;
  };

  static WorkerLot& instance() {
    static WorkerLot lot;
    return lot;
  }

  WorkerLot(const WorkerLot&) = delete;
  WorkerLot& operator=(const WorkerLot&) = delete;

  /// Run `job` on the most recently parked thread, or on a new thread
  /// when none is parked.
  void dispatch(Job job) {
    std::lock_guard<std::mutex> lock(mutex_);
    Seat* seat = nullptr;
    if (!parked_.empty()) {
      seat = parked_.back();
      parked_.pop_back();
    } else {
      seats_.push_back(std::make_unique<Seat>());
      seat = seats_.back().get();
      seat->thread = std::thread([this, seat] { threadMain(*seat); });
    }
    {
      std::lock_guard<std::mutex> seatLock(seat->mutex);
      seat->job = std::move(job);
      seat->hasJob = true;
    }
    seat->wake.notify_one();
  }

  /// Threads parked right now (for tests and diagnostics).
  std::size_t parkedCount() {
    std::lock_guard<std::mutex> lock(mutex_);
    return parked_.size();
  }

  /// Joins every thread. Runs at process exit, when every pool has been
  /// destroyed and so every thread is parked, or about to wait in its
  /// seat after parking.
  ~WorkerLot() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& seat : seats_) {
      {
        std::lock_guard<std::mutex> seatLock(seat->mutex);
        seat->quit = true;
      }
      seat->wake.notify_one();
      seat->thread.join();
    }
  }

private:
  struct Seat {
    std::mutex mutex; // guards job, hasJob, quit
    std::condition_variable wake;
    Job job;
    bool hasJob = false;
    bool quit = false;
    std::thread thread;
  };

  WorkerLot() = default;

  void threadMain(Seat& seat) {
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(seat.mutex);
        seat.wake.wait(lock, [&seat] { return seat.hasJob || seat.quit; });
        if (!seat.hasJob) return;
        job = std::move(seat.job);
        seat.hasJob = false;
      }
      job.run();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        parked_.push_back(&seat);
      }
      job.parked();
    }
  }

  std::mutex mutex_; // guards seats_ and parked_
  std::vector<std::unique_ptr<Seat>> seats_; // every thread ever started
  std::vector<Seat*> parked_;
};

class ThreadPool {
public:
  /// Per-worker counters, sampled with relaxed loads (totals are exact once
  /// the pool has quiesced, e.g. after a join).
  struct WorkerStats {
    std::uint64_t runs = 0;   // tasks executed by this worker
    std::uint64_t steals = 0; // of those, taken from another worker's deque
    double idleSeconds = 0.0; // time spent asleep on the wake CV
  };

  /// Runs `workers` threads (at least one), adopted from the WorkerLot.
  explicit ThreadPool(unsigned workers) {
    queues_.resize(workers == 0 ? 1 : workers);
    for (auto& q : queues_) q = std::make_unique<Queue>();
    serving_ = queues_.size();
    for (std::size_t w = 0; w < queues_.size(); ++w) {
      WorkerLot::instance().dispatch(
          {[this, w] { workerLoop(w); }, [this] { retire(); }});
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops the workers and waits until each is parked in the lot again.
  ~ThreadPool() {
    std::unique_lock<std::mutex> lock(sleepMutex_);
    stop_ = true;
    wake_.notify_all();
    retired_.wait(lock, [this] { return serving_ == 0; });
  }

  unsigned workers() const { return static_cast<unsigned>(queues_.size()); }
  unsigned workerCount() const { return workers(); }

  WorkerStats workerStats(std::size_t worker) const {
    const Queue& q = *queues_[worker];
    WorkerStats stats;
    stats.runs = q.runs.load(std::memory_order_relaxed);
    stats.steals = q.steals.load(std::memory_order_relaxed);
    stats.idleSeconds =
        static_cast<double>(q.idleNs.load(std::memory_order_relaxed)) * 1e-9;
    return stats;
  }

  /// Tasks drained by non-worker threads helping through tryRunOne().
  std::uint64_t externalRuns() const {
    return externalRuns_.load(std::memory_order_relaxed);
  }

  /// Deepest any single deque has been since construction.
  std::size_t queueHighWater() const {
    std::size_t high = 0;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q->mutex);
      if (q->highWater > high) high = q->highWater;
    }
    return high;
  }

  /// Enqueue a task. Called from any thread; a worker submitting from
  /// inside a task pushes onto its own deque (depth-first, keeps nested
  /// fan-outs from flooding the queues), other threads deal round-robin.
  void submit(std::function<void()> task) {
    const std::size_t self = currentWorker();
    const std::size_t target =
        self != kNotAWorker
            ? self
            : nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    {
      std::lock_guard<std::mutex> lock(queues_[target]->mutex);
      auto& deque = queues_[target]->tasks;
      deque.push_back(std::move(task));
      if (deque.size() > queues_[target]->highWater) {
        queues_[target]->highWater = deque.size();
      }
    }
    // Pair the notify with the sleepers' re-check: taking (and dropping)
    // the sleep lock here means a worker between its empty re-scan and
    // its wait cannot miss this task — we block until it is waiting.
    { std::lock_guard<std::mutex> lock(sleepMutex_); }
    wake_.notify_one();
  }

  /// Run one queued task on the calling thread, if any is pending. Returns
  /// false when every deque was empty at the time of the scan — all
  /// submitted work is then either finished or running on other threads.
  bool tryRunOne() {
    const std::size_t self = currentWorker();
    const std::size_t home = self != kNotAWorker ? self : 0;
    for (std::size_t k = 0; k < queues_.size(); ++k) {
      const std::size_t q = (home + k) % queues_.size();
      std::function<void()> task;
      {
        std::lock_guard<std::mutex> lock(queues_[q]->mutex);
        auto& deque = queues_[q]->tasks;
        if (deque.empty()) continue;
        if (q == self) { // owner takes newest
          task = std::move(deque.back());
          deque.pop_back();
        } else { // thief (or external caller) takes oldest
          task = std::move(deque.front());
          deque.pop_front();
        }
      }
      if (self != kNotAWorker) {
        queues_[self]->runs.fetch_add(1, std::memory_order_relaxed);
        if (q != self) {
          queues_[self]->steals.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        externalRuns_.fetch_add(1, std::memory_order_relaxed);
      }
      task();
      return true;
    }
    return false;
  }

private:
  struct Queue {
    mutable std::mutex mutex;
    std::deque<std::function<void()>> tasks;
    std::size_t highWater = 0; // guarded by mutex
    // Counters for the worker with this queue's index (not the queue the
    // task came from). Written by the owning worker, read by anyone.
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> idleNs{0};
  };

  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  // Idle backoff: a few yield-scans after the queues drain, then CV waits
  // whose timeout doubles while no work shows up. The submit/sleepMutex
  // pairing guarantees wakeups, so the timeout is purely a backstop — the
  // growth just stops idle workers re-scanning every queue 100x a second.
  static constexpr unsigned kIdleSpinScans = 4;
  static constexpr std::chrono::microseconds kIdlePauseMin{500};
  static constexpr std::chrono::microseconds kIdlePauseMax{50000};

  // Worker identity via thread-locals: a thread serves one pool after
  // another, and starts serving (and calls currentWorker) while the
  // constructor is still dispatching the rest.
  inline static thread_local const ThreadPool* tlsPool_ = nullptr;
  inline static thread_local std::size_t tlsWorker_ = 0;

  /// Index of the pool worker running the calling thread, or kNotAWorker.
  std::size_t currentWorker() const {
    return tlsPool_ == this ? tlsWorker_ : kNotAWorker;
  }

  /// Any deque non-empty? (Scans under the queue locks; called with
  /// sleepMutex_ held — submit only takes sleepMutex_ after releasing the
  /// queue lock, so the order sleep → queue never deadlocks.)
  bool anyQueued() {
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q->mutex);
      if (!q->tasks.empty()) return true;
    }
    return false;
  }

  /// A worker of this pool is parked again; the last one frees the
  /// destructor.
  void retire() {
    std::lock_guard<std::mutex> lock(sleepMutex_);
    if (--serving_ == 0) retired_.notify_all();
  }

  void workerLoop(std::size_t worker) {
    tlsPool_ = this;
    tlsWorker_ = worker;
    obs::setThreadName("pool-" + std::to_string(worker));
    std::chrono::microseconds pause = kIdlePauseMin;
    unsigned idleScans = 0;
    while (true) {
      if (tryRunOne()) {
        pause = kIdlePauseMin;
        idleScans = 0;
        continue;
      }
      if (++idleScans <= kIdleSpinScans) {
        std::this_thread::yield();
        continue;
      }
      const auto idleStart = std::chrono::steady_clock::now();
      {
        std::unique_lock<std::mutex> lock(sleepMutex_);
        if (stop_) return;
        // Re-check for work under the sleep lock: a submit between our
        // empty scan and this point either pushed before the re-check (we
        // see it) or is now blocked on sleepMutex_ and will notify once we
        // wait. The timeout is only a belt-and-braces backstop, so it can
        // back off exponentially while the pool stays idle.
        if (!anyQueued()) {
          wake_.wait_for(lock, pause);
          pause = std::min(pause * 2, kIdlePauseMax);
        }
        if (stop_) return;
      }
      queues_[worker]->idleNs.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - idleStart)
                  .count()),
          std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;
  std::atomic<std::size_t> nextQueue_{0};
  std::atomic<std::uint64_t> externalRuns_{0};
  std::mutex sleepMutex_;
  std::condition_variable wake_;
  std::condition_variable retired_;
  bool stop_ = false;
  std::size_t serving_ = 0; // workers not yet parked again; sleepMutex_
};

} // namespace lis::support
