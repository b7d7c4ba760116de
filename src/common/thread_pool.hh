/**
 * @file
 * Thread-parallel primitives. parallelFor/parallelShards cover the
 * fork-join pattern used by dataset generation, feature precompute,
 * training, and the Shapley engine; ThreadPool is the persistent
 * executor behind the serve layer (futures, exception propagation,
 * drain-then-join shutdown).
 */

#ifndef CONCORDE_COMMON_THREAD_POOL_HH
#define CONCORDE_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace concorde
{

/** Number of worker threads to use by default (hardware concurrency). */
size_t defaultThreads();

/**
 * Run fn(i) for i in [0, n) across up to num_threads threads.
 * Items are handed out one at a time from a shared atomic counter, so
 * uneven item costs balance; fn must be thread-safe across distinct i.
 * Runs inline when n == 1 or num_threads <= 1.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                 size_t num_threads = 0);

/**
 * Run fn(t, begin, end) for each of num_threads contiguous shards of [0, n);
 * useful when per-thread state (accumulators, RNGs) is needed.
 */
void parallelShards(size_t n,
                    const std::function<void(size_t, size_t, size_t)> &fn,
                    size_t num_threads = 0);

/**
 * A fixed-size pool of persistent worker threads with a FIFO task queue.
 *
 * Tasks are submitted as callables and return std::futures; a task that
 * throws stores the exception in its future (workers never die from task
 * exceptions). Shutdown ordering: the destructor (or an explicit
 * shutdown()) first closes the queue to new submissions, then lets the
 * workers drain every already-queued task, and only then joins them --
 * so every future obtained from a successful submit() eventually becomes
 * ready.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker count (0 = hardware concurrency). */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t numThreads() const { return workers.size(); }

    /**
     * Enqueue a callable; returns a future for its result (or stored
     * exception). Throws std::runtime_error if the pool has been shut
     * down.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Stop accepting tasks, drain the queue, and join the workers.
     * Idempotent; called by the destructor.
     */
    void shutdown();

    /** True once shutdown has begun (submissions will be rejected). */
    bool stopped() const;

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    std::vector<std::thread> workers;
    bool stopping = false;
};

} // namespace concorde

#endif // CONCORDE_COMMON_THREAD_POOL_HH
