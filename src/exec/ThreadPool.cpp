#include "exec/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

namespace bzk::exec {

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push(std::move(job));
        queued_.fetch_add(1, std::memory_order_relaxed);
        ++in_flight_;
    }
    cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t, size_t)> &body)
{
    if (n == 0)
        return;
    size_t chunk = (n + workers_.size() * 4 - 1) / (workers_.size() * 4);
    size_t chunks = (n + chunk - 1) / chunk;

    // Chunks are claimed from a shared counter by the caller and by up
    // to size() helper jobs, so the caller starts at once and a
    // helper that wakes late finds less (or no) work instead of
    // delaying the return. The state is shared because a helper may
    // still be queued when the caller returns; it then claims nothing
    // and never touches @p body.
    struct State
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex error_mutex;
        std::exception_ptr first_error;
    };
    auto state = std::make_shared<State>();
    auto drain = [state, fn = &body, n, chunk, chunks] {
        for (;;) {
            size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            // An exception escaping workerLoop() would std::terminate
            // the process, so every chunk is fenced and the first
            // failure is rethrown on the caller once all chunks ran.
            try {
                (*fn)(c * chunk, std::min(n, (c + 1) * chunk));
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->error_mutex);
                if (!state->first_error)
                    state->first_error = std::current_exception();
            }
            if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                chunks)
                state->done.notify_all();
        }
    };
    size_t helpers = std::min(workers_.size(), chunks - 1);
    for (size_t i = 0; i < helpers; ++i)
        submit(drain);
    drain();
    for (size_t d = state->done.load(std::memory_order_acquire);
         d != chunks; d = state->done.load(std::memory_order_acquire))
        state->done.wait(d, std::memory_order_acquire);
    if (state->first_error)
        std::rethrow_exception(state->first_error);
}

void
ThreadPool::spinForWork() const
{
    auto deadline = std::chrono::steady_clock::now() + kSpin;
    while (queued_.load(std::memory_order_relaxed) == 0) {
        for (int i = 0; i < 64; ++i) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#elif defined(__aarch64__)
            asm volatile("yield");
#endif
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return;
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        spinForWork();
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            job = std::move(jobs_.front());
            jobs_.pop();
            queued_.fetch_sub(1, std::memory_order_relaxed);
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--in_flight_ == 0)
                idle_cv_.notify_all();
        }
    }
}

} // namespace bzk::exec
