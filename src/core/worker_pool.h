#ifndef INCOGNITO_CORE_WORKER_POOL_H_
#define INCOGNITO_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace incognito {

namespace obs {
class TaskTimeline;
}  // namespace obs

/// A small fixed-size worker pool for level-synchronous lattice search and
/// intra-node parallelism (docs/PARALLELISM.md). `num_threads` is the total
/// evaluator count: the pool spawns num_threads - 1 persistent threads and
/// the calling thread runs worker 0's chunk inside Run(), so a 1-thread
/// pool spawns nothing and degenerates to a plain loop.
///
/// Besides chunked iteration, Run(size(), fn) hands every worker exactly
/// its own index (worker w gets [w, w+1)), which turns the pool into a
/// thread-group launcher for workers that claim their own work, such as
/// ZeroGenCube::Build's tiers.
class WorkerPool {
 public:
  explicit WorkerPool(int num_threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total evaluators (spawned threads + the caller).
  int size() const { return size_; }

  /// Statically partitions [0, n) into size() contiguous chunks and runs
  /// fn(worker, begin, end) on each — worker w gets [n*w/W, n*(w+1)/W).
  /// Blocks until every chunk finishes (a full barrier), which is what
  /// makes the level-synchronous merge race-free: callers may freely read
  /// state the workers wrote once Run returns.
  void Run(size_t n, const std::function<void(int, size_t, size_t)>& fn);

  /// Attaches a scheduler timeline: every subsequent Run records one
  /// TaskEvent per worker chunk (batch = the Run's generation, so barrier
  /// phases stay distinguishable), labeled `task_name` (must outlive the
  /// pool, typically a string literal). nullptr detaches. Call only while
  /// the pool is quiescent — the same discipline as Run itself. A detached
  /// pool (the default) records nothing and pays one branch per Run.
  void set_timeline(obs::TaskTimeline* timeline,
                    const char* task_name = "chunk");
  obs::TaskTimeline* timeline() const { return timeline_; }

 private:
  void WorkerLoop(int worker);

  int size_ = 1;  // fixed before any thread spawns; safe to read unlocked
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int active_ = 0;
  bool stop_ = false;
  size_t n_ = 0;
  const std::function<void(int, size_t, size_t)>* fn_ = nullptr;
  // Timeline recording; timeline_/task_name_ are set while quiescent and
  // read by workers under mu_ (enqueue_ns_ is per-Run, written under mu_).
  obs::TaskTimeline* timeline_ = nullptr;
  const char* task_name_ = "chunk";
  uint64_t enqueue_ns_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_CORE_WORKER_POOL_H_
