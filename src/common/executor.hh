/**
 * @file
 * The process-wide deterministic thread executor.
 *
 * run(count, workers, task) calls task(i) for every i in [0, count)
 * and returns once all calls have finished. The assignment is fixed:
 * with T = min(workers, count) participants, task i runs on worker
 * i mod T, and each worker runs its tasks in ascending order. Worker
 * threads start on first need and then park between calls for the
 * rest of the process, so a sequence of calls replays the same tasks
 * on the same threads -- and on the malloc arenas those threads have
 * already grown -- instead of spawning fresh threads per call. A call
 * wakes only its T workers; the others stay parked.
 *
 * Tasks write their results to caller-owned slots indexed by i; the
 * executor orders nothing but the assignment. A run() issued from
 * inside one of the executor's own tasks runs its tasks inline on the
 * calling worker, in index order, rather than waiting on workers that
 * may be busy with its caller. Calls from outside threads are
 * serialised: one call's tasks run at a time, so a task must not wait
 * on some other thread that itself calls run().
 */

#ifndef ICEB_COMMON_EXECUTOR_HH
#define ICEB_COMMON_EXECUTOR_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iceb
{

/** Fixed-assignment persistent thread executor (see file comment). */
class TaskExecutor
{
  public:
    /**
     * The executor every caller shares. Never destroyed: its workers
     * park until the process exits, so a task that ends the process
     * (fatal() calls exit()) never waits to join its own thread.
     */
    static TaskExecutor &shared();

    TaskExecutor(const TaskExecutor &) = delete;
    TaskExecutor &operator=(const TaskExecutor &) = delete;

    /**
     * Run @p task(i) for i in [0, count) on min(workers, count)
     * workers and wait for all of them. One participant, or a call
     * from one of the executor's own tasks, runs inline. A task that
     * throws ends its worker's share of the call; once every worker
     * is done, the first exception caught is rethrown here.
     */
    void run(std::size_t count, std::size_t workers,
             const std::function<void(std::size_t)> &task);

  private:
    TaskExecutor() = default;

    void workerLoop(std::size_t index, std::uint64_t seen);

    std::mutex submit_; //!< held for a whole outside call
    std::mutex mutex_;  //!< guards everything below
    /** One per worker, so a call wakes only its participants. */
    std::deque<std::condition_variable> wake_;
    std::condition_variable done_;
    std::vector<std::thread> threads_;

    // The call in progress.
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t count_ = 0;
    std::size_t width_ = 0;   //!< participating workers
    std::size_t pending_ = 0; //!< participants still running
    std::uint64_t generation_ = 0;
    std::exception_ptr error_; //!< first exception a task threw
};

} // namespace iceb

#endif // ICEB_COMMON_EXECUTOR_HH
