//===- driver/ThreadPool.cpp - Work-stealing thread pool -----------------------===//

#include "driver/ThreadPool.h"
#include <algorithm>

using namespace biv;
using namespace biv::driver;

unsigned ThreadPool::defaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = defaultThreadCount();
  Queues.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  Stop.store(true);
  {
    // Empty critical section: a worker between its predicate check and its
    // wait() now either sees Stop or receives the notify below.
    std::lock_guard<std::mutex> L(WaitM);
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  unsigned Qi = NextQueue.fetch_add(1, std::memory_order_relaxed) %
                unsigned(Queues.size());
  // Count the task in-flight *before* it becomes visible in a queue: a
  // worker that is already awake scans the queues directly and may pop and
  // finish the task immediately, and its decrement must never observe the
  // counters at zero (the underflow would wedge wait() forever and skip the
  // idle notification).
  InFlight.fetch_add(1, std::memory_order_relaxed);
  Queued.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> L(Queues[Qi]->M);
    Queues[Qi]->Q.push_back(std::move(Task));
  }
  {
    std::lock_guard<std::mutex> L(WaitM);
  }
  WorkCV.notify_one();
}

bool ThreadPool::popTask(unsigned Self, std::function<void()> &Task) {
  // Own queue first, then steal from the others, always the oldest task:
  // each queue runs in submission order (a daemon answers queued requests
  // in arrival order), and a steal takes the largest remaining chunk of
  // work.
  for (unsigned Off = 0; Off < Queues.size(); ++Off) {
    WorkerQueue &Q = *Queues[(Self + Off) % Queues.size()];
    std::lock_guard<std::mutex> L(Q.M);
    if (!Q.Q.empty()) {
      Task = std::move(Q.Q.front());
      Q.Q.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Self) {
  for (;;) {
    std::function<void()> Task;
    if (!popTask(Self, Task)) {
      std::unique_lock<std::mutex> L(WaitM);
      WorkCV.wait(L, [this] {
        return Stop.load() || Queued.load(std::memory_order_acquire) > 0;
      });
      if (Stop.load() && Queued.load() == 0)
        return;
      continue;
    }
    Queued.fetch_sub(1, std::memory_order_relaxed);
    try {
      Task();
    } catch (...) {
      std::lock_guard<std::mutex> L(ErrM);
      if (!FirstError)
        FirstError = std::current_exception();
    }
    if (InFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> L(WaitM);
      IdleCV.notify_all();
    }
  }
}

void ThreadPool::wait() {
  {
    std::unique_lock<std::mutex> L(WaitM);
    IdleCV.wait(L, [this] { return InFlight.load() == 0; });
  }
  std::exception_ptr E;
  {
    std::lock_guard<std::mutex> L(ErrM);
    std::swap(E, FirstError);
  }
  if (E)
    std::rethrow_exception(E);
}
