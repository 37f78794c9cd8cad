#ifndef BZK_EXEC_THREADPOOL_H_
#define BZK_EXEC_THREADPOOL_H_

/**
 * @file
 * A small work-stealing-free thread pool: the workers behind
 * ExecContext, which every host-parallel module goes through. Private
 * to src/exec; nothing else constructs one.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bzk::exec {

/** Fixed-size pool of worker threads executing queued jobs. */
class ThreadPool
{
  public:
    /**
     * Start @p num_threads workers; 0 means hardware concurrency.
     */
    explicit ThreadPool(size_t num_threads = 0);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job for asynchronous execution. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has completed. */
    void wait();

    /**
     * Split [0, n) into contiguous chunks and run @p body(begin, end) on
     * the calling thread plus up to size() workers, blocking until
     * all chunks finish. Chunks are claimed dynamically, so the caller
     * never waits for a worker to wake before work starts. If any
     * chunk throws, the first exception (in completion order) is
     * rethrown on the calling thread after every chunk has finished;
     * the pool stays usable.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t, size_t)> &body);

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

  private:
    /**
     * How long an idle worker spins before it blocks. Callers issue
     * parallelFor back to back (one per encoder stage or Merkle
     * layer); a worker still spinning picks the next job up without a
     * futex wake, and submit() then finds no sleeper to signal.
     */
    static constexpr std::chrono::microseconds kSpin{200};

    /** Spin until a job is queued or kSpin has passed. */
    void spinForWork() const;
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idle_cv_;
    std::atomic<size_t> queued_{0};
    size_t in_flight_ = 0;
    bool stopping_ = false;
};

} // namespace bzk::exec

#endif // BZK_EXEC_THREADPOOL_H_
