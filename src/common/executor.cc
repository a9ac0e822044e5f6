#include "common/executor.hh"

#include <algorithm>
#include <utility>

namespace iceb
{

namespace
{

/** True on the executor's worker threads (their calls are nested). */
thread_local bool t_on_worker = false;

/**
 * Run participant @p p's tasks in ascending order; returns the
 * exception that ended the share, if any.
 */
std::exception_ptr
runShare(const std::function<void(std::size_t)> &task, std::size_t p,
         std::size_t count, std::size_t width) noexcept
{
    try {
        for (std::size_t i = p; i < count; i += width)
            task(i);
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

} // namespace

TaskExecutor &
TaskExecutor::shared()
{
    static TaskExecutor *const executor = new TaskExecutor();
    return *executor;
}

void
TaskExecutor::run(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)> &task)
{
    const std::size_t width = std::min(workers, count);
    if (width <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }
    if (t_on_worker) {
        runNested(count, width, task);
        return;
    }

    const std::lock_guard<std::mutex> submit(submit_);
    std::unique_lock<std::mutex> lock(mutex_);
    while (threads_.size() < width) {
        wake_.emplace_back();
        parked_.push_back(0);
        threads_.emplace_back(&TaskExecutor::workerLoop, this,
                              threads_.size(), generation_);
    }
    task_ = &task;
    count_ = count;
    width_ = width;
    pending_ = width;
    ++generation_;
    for (std::size_t i = 0; i < width; ++i)
        wake_[i].notify_one();
    done_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
    if (error_ != nullptr)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
TaskExecutor::runNested(std::size_t count, std::size_t width,
                        const std::function<void(std::size_t)> &task)
{
    NestedCall call;
    call.task = &task;
    call.count = count;
    call.width = width;

    std::unique_lock<std::mutex> lock(mutex_);
    call.older = open_;
    open_ = &call;
    wakeOne(lock);

    std::exception_ptr error = runShare(task, 0, count, width);
    lock.lock();
    while (true) {
        if (error != nullptr && call.error == nullptr)
            call.error = error;
        if (call.next == width)
            break;
        const std::size_t p = claim(call);
        lock.unlock();
        error = runShare(task, p, count, width);
        lock.lock();
    }
    call.done.wait(lock, [&call] { return call.helping == 0; });
    lock.unlock();
    if (call.error != nullptr)
        std::rethrow_exception(call.error);
}

void
TaskExecutor::wakeOne(std::unique_lock<std::mutex> &lock)
{
    // One wake per claim: the woken worker wakes the next one if
    // participants are still unclaimed, so the futex calls run off
    // the caller's path. Notified after unlocking, so the woken worker
    // does not block on the mutex this thread still holds; a worker
    // marked unparked here is already waiting on its own variable.
    std::size_t w = 0;
    while (w < parked_.size() && parked_[w] == 0)
        ++w;
    const bool found = w < parked_.size();
    if (found)
        parked_[w] = 0;
    lock.unlock();
    if (found)
        wake_[w].notify_one();
}

std::size_t
TaskExecutor::claim(NestedCall &call)
{
    const std::size_t p = call.next++;
    if (call.next == call.width) {
        // Fully claimed: unlink it so no worker looks at it again.
        NestedCall **link = &open_;
        while (*link != &call)
            link = &(*link)->older;
        *link = call.older;
    }
    return p;
}

void
TaskExecutor::workerLoop(std::size_t index, std::uint64_t seen)
{
    t_on_worker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    std::condition_variable &wake = wake_[index];
    while (true) {
        // Workers a narrower outside call leaves out sleep through it:
        // waking them would only add mutex traffic to the call's
        // critical path (serve-azure's 2-worker forecasts on a
        // 4-worker pool). They still claim nested shares.
        if (generation_ != seen && index < width_) {
            seen = generation_;
            const std::function<void(std::size_t)> &task = *task_;
            const std::size_t count = count_;
            const std::size_t width = width_;
            lock.unlock();
            const std::exception_ptr error =
                runShare(task, index, count, width);
            lock.lock();
            if (error != nullptr && error_ == nullptr)
                error_ = error;
            if (--pending_ == 0)
                done_.notify_one();
        } else if (open_ != nullptr) {
            NestedCall &call = *open_;
            const std::size_t p = claim(call);
            ++call.helping;
            if (open_ != nullptr)
                wakeOne(lock);
            else
                lock.unlock();
            const std::exception_ptr error =
                runShare(*call.task, p, call.count, call.width);
            lock.lock();
            if (error != nullptr && call.error == nullptr)
                call.error = error;
            // Notified under the lock: the caller cannot return (and
            // destroy the call) before this thread lets go of it.
            if (--call.helping == 0)
                call.done.notify_one();
        } else {
            // Re-marked before every wait: wakeOne() clears the mark
            // when it picks this worker, and the share it was woken
            // for may already be claimed by the time it runs.
            parked_[index] = 1;
            wake.wait(lock);
            parked_[index] = 0;
        }
    }
}

} // namespace iceb
