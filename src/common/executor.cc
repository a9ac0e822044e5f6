#include "common/executor.hh"

#include <algorithm>
#include <utility>

namespace iceb
{

namespace
{

/** True on the executor's worker threads (nested calls run inline). */
thread_local bool t_on_worker = false;

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
    if (width <= 1 || t_on_worker) {
        for (std::size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    const std::lock_guard<std::mutex> submit(submit_);
    std::unique_lock<std::mutex> lock(mutex_);
    while (threads_.size() < width) {
        wake_.emplace_back();
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
TaskExecutor::workerLoop(std::size_t index, std::uint64_t seen)
{
    t_on_worker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    std::condition_variable &wake = wake_[index];
    while (true) {
        // Workers a narrower call leaves out sleep through it: waking
        // them would only add mutex traffic to the call's critical
        // path (serve-azure's 2-worker forecasts on a 4-worker pool).
        wake.wait(lock,
                  [&] { return generation_ != seen && index < width_; });
        seen = generation_;
        const std::function<void(std::size_t)> &task = *task_;
        const std::size_t count = count_;
        const std::size_t width = width_;
        lock.unlock();
        std::exception_ptr error;
        try {
            for (std::size_t i = index; i < count; i += width)
                task(i);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error != nullptr && error_ == nullptr)
            error_ = error;
        if (--pending_ == 0)
            done_.notify_one();
    }
}

} // namespace iceb
