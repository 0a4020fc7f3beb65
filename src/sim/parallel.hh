/**
 * @file
 * Deterministic fan-out of independent work units across threads.
 *
 * The simulator's parallelism model is coarse: whole pipelines (one
 * video x scheme unit) or whole session rehearsals run concurrently,
 * each on a fully private substrate (MemorySystem, RNG streams),
 * and the results are merged in canonical input order.
 * Nothing inside a unit ever observes which thread ran it or in what
 * order its siblings finished, so output is byte-identical to a
 * serial run at any --jobs value - the determinism contract
 * docs/PERFORMANCE.md spells out and tests/test_parallel.cc pins.
 *
 * parallelFor() is the only primitive: indices are claimed from a
 * shared atomic counter and handed to the callable.  Determinism is
 * the caller's side of the contract: fn(i) must write only to its
 * own output slot and share no mutable state with its siblings.
 *
 * Workers are *persistent*: the first threaded parallelFor spawns
 * them and every later call reuses them (ThreadPool), so fine-
 * grained fan-out - rehearsal waves, per-video units inside one
 * scheme - stops paying a spawn+join per call.  Steady-state serving
 * spawns zero threads after warmup; ThreadPool::threadsSpawned()
 * exposes the monotonic spawn count the tests assert on.
 */

#ifndef VSTREAM_SIM_PARALLEL_HH
#define VSTREAM_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vstream
{

/**
 * The process-wide persistent worker pool behind parallelFor.
 *
 * Workers park on a condition variable between jobs and are lazily
 * grown to the largest helper count any call has asked for; they are
 * joined when the process exits.  The calling thread always
 * participates as a worker, so `jobs` threads of compute need only
 * `jobs - 1` pool workers.  A parallelFor issued from inside a pool
 * worker (nested fan-out) runs inline and serially on that worker -
 * the pool never deadlocks on itself.
 */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first threaded call). */
    static ThreadPool &instance();

    /**
     * Run fn(0) .. fn(n-1) with @p workers threads of compute (the
     * caller plus workers-1 pool workers).  Blocks until every index
     * is done; rethrows the first exception any unit threw.
     */
    void run(unsigned workers, std::size_t n,
             const std::function<void(std::size_t)> &fn);

    /** Threads ever spawned (monotonic; steady state adds zero). */
    std::uint64_t threadsSpawned() const
    {
        return spawned_.load(std::memory_order_relaxed);
    }

    /** Pool workers currently alive (excludes callers). */
    std::size_t workersAlive() const
    {
        return alive_.load(std::memory_order_relaxed);
    }

    /** True on a pool worker thread (nested calls run inline). */
    static bool onWorkerThread();

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

  private:
    ThreadPool() = default;

    void workerLoop();

    /** Claim-and-run loop shared by the caller and every worker. */
    void drain(const std::function<void(std::size_t)> &fn,
               std::size_t n);

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> spawned_{0};
    std::atomic<std::size_t> alive_{0};

    // Current-job state, published under mu_.
    std::uint64_t generation_ = 0;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t n_ = 0;
    std::atomic<std::size_t> next_{0};
    std::size_t running_helpers_ = 0;
    std::exception_ptr first_error_;
    bool stop_ = false;
};

/** Worker count actually used: @p requested clamped to [1, n]. */
unsigned effectiveJobs(unsigned requested, std::size_t n);

/** Parse a --jobs value; 0 or garbage falls back to 1 (serial). */
unsigned parseJobs(const char *value);

/** The VSTREAM_JOBS environment default; 1 (serial) when unset. */
unsigned defaultJobs();

/**
 * Run fn(0) .. fn(n-1) across up to @p jobs threads.
 *
 * jobs <= 1 (or n <= 1) runs inline on the calling thread - no
 * threads are created, so the serial path is bit-identical to a
 * plain loop.  The first exception thrown by any unit is rethrown
 * on the caller after every worker has joined.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/**
 * Deterministic parallel map: returns {fn(0), ..., fn(n-1)} in
 * canonical index order regardless of thread count or scheduling.
 * R must be default-constructible and movable.
 */
template <typename Fn>
auto
parallelMap(unsigned jobs, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> out(n);
    parallelFor(jobs, n,
                [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace vstream

#endif // VSTREAM_SIM_PARALLEL_HH
