//===- driver/ThreadPool.h - Work-stealing thread pool ----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the batch-analysis driver, the
/// fuzz oracle and the daemon.  Each worker owns a deque; submissions are
/// distributed round-robin, and workers run their own queue FIFO and steal
/// FIFO from the others when it runs dry.  FIFO keeps a daemon's queued
/// requests in arrival order, so the oldest is never the one left to miss
/// its deadline.  The per-worker deques stay because one shared queue
/// measured slower on batch throughput (ROADMAP item 7).  Tasks are
/// independent function/loop-nest analyses, so there is no dependency
/// tracking -- submit() then wait().
///
/// Exceptions thrown by tasks are captured; the first one is rethrown from
/// wait(), after all tasks have drained (a failed unit never aborts its
/// siblings).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DRIVER_THREADPOOL_H
#define BEYONDIV_DRIVER_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace biv {
namespace driver {

class ThreadPool {
public:
  /// Spawns \p Threads workers; 0 picks defaultThreadCount().
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains outstanding tasks, then joins the workers.  Pending exceptions
  /// that were never collected by wait() are dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task.  Safe from any thread, including pool workers.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any of them raised (if any).  The pool stays usable
  /// afterwards.
  void wait();

  unsigned threadCount() const { return unsigned(Workers.size()); }

  /// Hardware concurrency, at least 1.
  static unsigned defaultThreadCount();

private:
  struct WorkerQueue {
    std::mutex M;
    std::deque<std::function<void()>> Q;
  };

  bool popTask(unsigned Self, std::function<void()> &Task);
  void workerLoop(unsigned Self);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex WaitM;
  std::condition_variable WorkCV; ///< workers sleep here
  std::condition_variable IdleCV; ///< wait() sleeps here

  std::atomic<size_t> Queued{0};   ///< tasks sitting in some queue
  std::atomic<size_t> InFlight{0}; ///< queued + currently running
  std::atomic<unsigned> NextQueue{0};
  std::atomic<bool> Stop{false};

  std::mutex ErrM;
  std::exception_ptr FirstError;
};

} // namespace driver
} // namespace biv

#endif // BEYONDIV_DRIVER_THREADPOOL_H
