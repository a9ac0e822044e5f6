/**
 * @file
 * The process-wide deterministic thread executor.
 *
 * run(count, workers, task) calls task(i) for every i in [0, count)
 * and returns once all calls have finished. The assignment is fixed:
 * with T = min(workers, count) participants, participant p runs tasks
 * p, p + T, p + 2T, ... in ascending order on one thread. For a call
 * from an outside thread, participant p is worker p. Worker threads
 * start on first need and then park between calls for the rest of
 * the process, so a sequence of calls replays the same tasks on the
 * same threads -- and on the malloc arenas those threads have already
 * grown -- instead of spawning fresh threads per call. A call wakes
 * only its T workers; the others stay parked.
 *
 * A run() issued from inside one of the executor's own tasks (a
 * nested call) shares its work with parked workers instead: the
 * calling worker publishes the call and runs participant 0, parked
 * workers claim whole participants, and the caller then runs every
 * participant nobody claimed before waiting for the claimed ones.
 * So a fig6 grid's IceBreaker run forecasts on the workers the other
 * schemes' runs left idle, while a nested call on a fully busy pool
 * runs on its caller alone, in index order; no thread ever waits on
 * a share that has not started.
 *
 * Tasks write their results to caller-owned slots indexed by i; the
 * executor orders nothing but the assignment, so state indexed by the
 * participant (i mod T) is private to one thread. Calls from outside
 * threads are serialised: one call's tasks run at a time, so a task
 * must not wait on some other thread that itself calls run().
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
     * Run @p task(i) for i in [0, count) as min(workers, count)
     * participants and wait for all of them. One participant runs
     * inline; a call from one of the executor's own tasks shares its
     * participants with parked workers. A task that throws ends its
     * participant's share of the call; once every participant is
     * done, the first exception caught is rethrown here.
     */
    void run(std::size_t count, std::size_t workers,
             const std::function<void(std::size_t)> &task);

  private:
    /** A nested call, published for parked workers to claim from. */
    struct NestedCall
    {
        const std::function<void(std::size_t)> *task = nullptr;
        std::size_t count = 0;
        std::size_t width = 0;
        std::size_t next = 1;    //!< next unclaimed participant
        std::size_t helping = 0; //!< shares workers claimed and run
        std::exception_ptr error;
        std::condition_variable done;
        NestedCall *older = nullptr; //!< next open call
    };

    TaskExecutor() = default;

    void runNested(std::size_t count, std::size_t width,
                   const std::function<void(std::size_t)> &task);
    void wakeOne(std::unique_lock<std::mutex> &lock);
    std::size_t claim(NestedCall &call);
    void workerLoop(std::size_t index, std::uint64_t seen);

    std::mutex submit_; //!< held for a whole outside call
    std::mutex mutex_;  //!< guards everything below
    /** One per worker, so a call wakes only its participants. */
    std::deque<std::condition_variable> wake_;
    std::condition_variable done_;
    std::vector<std::thread> threads_;
    std::vector<char> parked_; //!< per worker: waiting for work

    // The outside call in progress.
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t count_ = 0;
    std::size_t width_ = 0;   //!< participating workers
    std::size_t pending_ = 0; //!< participants still running
    std::uint64_t generation_ = 0;
    std::exception_ptr error_; //!< first exception a task threw

    /** Nested calls with unclaimed participants, newest first. */
    NestedCall *open_ = nullptr;
};

} // namespace iceb

#endif // ICEB_COMMON_EXECUTOR_HH
