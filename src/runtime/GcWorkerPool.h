//===--- GcWorkerPool.h - Persistent GC worker threads ---------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent pool of collector worker threads. The paper's collector
/// (§4.3.2) runs its tracing phase on several parallel threads; spawning and
/// joining those threads on every cycle costs far more than the wake/notify
/// of parked workers once cycles are frequent (profiled runs force a
/// statistics-sampling cycle every few hundred KiB of allocation). The pool
/// is owned by `GcHeap`, created lazily on the first cycle that runs on it
/// (one with `GcThreads > 1` and registered mutator threads), and keeps its
/// workers parked on a condition variable between dispatches.
///
/// `run(Task)` executes `Task(WorkerIndex)` on every worker and returns when
/// all of them have finished, a barrier the mark and sweep phases rely on.
/// The pool mutex is acquired/released around each dispatch, which provides the
/// happens-before edges between the calling thread's phase setup and the
/// workers (and back again for the workers' buffered results).
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_RUNTIME_GCWORKERPOOL_H
#define CHAMELEON_RUNTIME_GCWORKERPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chameleon {

/// A fixed-size pool of parked worker threads dedicated to GC phases.
class GcWorkerPool {
public:
  /// Starts \p Workers threads; they park immediately.
  explicit GcWorkerPool(unsigned Workers);

  /// Wakes any parked workers and joins them.
  ~GcWorkerPool();

  GcWorkerPool(const GcWorkerPool &) = delete;
  GcWorkerPool &operator=(const GcWorkerPool &) = delete;

  unsigned workerCount() const { return Workers; }

  /// Runs `Task(I)` for every worker index I in [0, workerCount()) on the
  /// pool threads and blocks until all of them return. Not reentrant; only
  /// the thread driving the collection may call it.
  void run(const std::function<void(unsigned)> &Task);

private:
  void workerMain(unsigned Index);

  unsigned Workers;
  std::vector<std::thread> Threads;

  std::mutex Mu;
  /// Workers park on this until a new generation or shutdown.
  std::condition_variable WakeCv;
  /// The dispatching thread parks on this until Remaining drops to zero.
  std::condition_variable DoneCv;
  const std::function<void(unsigned)> *Task = nullptr;
  uint64_t Generation = 0;
  unsigned Remaining = 0;
  bool ShuttingDown = false;
};

} // namespace chameleon

#endif // CHAMELEON_RUNTIME_GCWORKERPOOL_H
