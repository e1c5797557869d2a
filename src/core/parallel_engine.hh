/**
 * @file
 * Parallel multi-DPU execution engine. Bank-level DPUs share no state,
 * so a launch of N DPUs is embarrassingly parallel across host threads.
 *
 * The engine owns a *persistent* pool of std::thread workers: threads
 * are spawned lazily on the first parallel forEach() and then parked on
 * a condition variable between calls, so per-launch dispatch is a
 * notify + wait instead of thread creation/join. The destructor stops
 * and joins every worker — no detached threads survive the engine
 * (sanitizer-clean shutdown). Each worker writes results only into
 * index-addressed slots, and reductions happen as a sequential left
 * fold over the slots after the call returns.
 *
 * Determinism guarantee: because every reduction input lands in its own
 * slot and the fold always walks slots in index order, the result is
 * bit-identical regardless of how many worker threads ran — including
 * the floating-point sums, whose association matches a plain serial
 * loop, not thread scheduling.
 *
 * Work distribution has two modes:
 *
 *  - Dynamic (default): workers grab contiguous chunks from a shared
 *    atomic cursor, so expensive indices spread across the pool.
 *
 *  - Pinned (PIM_SIM_AFFINITY=1): each worker is pinned to one host CPU
 *    and owns a fixed contiguous slice of the index space, the same
 *    slice on every call with the same n. Index -> worker -> CPU is
 *    then stable, which is what makes first-touch / NUMA binding of
 *    per-DPU memory to the owning worker's node effective (see
 *    util/host_placement.hh; simulation results are identical either
 *    way, only locality differs).
 *
 * Thread-count resolution: an explicit request wins; otherwise the
 * PIM_SIM_THREADS environment variable; otherwise the hardware
 * concurrency of the host.
 */

#ifndef PIM_CORE_PARALLEL_ENGINE_HH
#define PIM_CORE_PARALLEL_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pim::core {

/**
 * Resolve the worker-thread count for DPU simulation.
 * @param requested explicit count; 0 defers to the environment.
 * @return requested if > 0; else PIM_SIM_THREADS if set to a positive
 *         integer; else std::thread::hardware_concurrency(); at least 1.
 */
unsigned resolveSimThreads(unsigned requested = 0);

/** Persistent host thread pool that shards independent DPU launches. */
class ParallelDpuEngine
{
  public:
    /** Upper bound on indices grabbed per dynamic scheduling step; the
     *  actual grab size adapts down so few-index workloads still spread
     *  across all workers. Scheduling granularity only — determinism
     *  never depends on it. */
    static constexpr size_t kMaxGrabChunk = 16;

    /** @param num_threads 0 = resolveSimThreads() default. */
    explicit ParallelDpuEngine(unsigned num_threads = 0);

    /** Stops and joins all pool workers. */
    ~ParallelDpuEngine();

    ParallelDpuEngine(const ParallelDpuEngine &) = delete;
    ParallelDpuEngine &operator=(const ParallelDpuEngine &) = delete;

    /** Width of the worker pool (resolved thread count). */
    unsigned threadCount() const { return threads_; }

    /** Pool workers currently alive (0 until the first parallel call,
     *  then grows lazily up to threadCount()). */
    unsigned liveWorkers() const;

    /** True when PIM_SIM_AFFINITY pinned-worker placement is active. */
    bool affinityEnabled() const { return affinity_; }

    /**
     * Parse a PIM_SIM_AFFINITY value: unset / "" / "0" -> off,
     * "1" -> on; anything else is a fatal config error.
     */
    static bool affinityFromEnv(const char *value);

    /**
     * The worker that owns index @p i of an @p n-index launch under
     * pinned placement (stable across calls with the same n). Only
     * meaningful when affinityEnabled().
     */
    unsigned ownerOfIndex(size_t i, size_t n) const;

    /**
     * Run @p fn(i) for every i in [0, n), sharded across the pool in
     * contiguous index ranges. Exceptions thrown by @p fn are captured
     * and the first one rethrown on the calling thread after the pool
     * drains. @p fn must only touch state disjoint per index (or
     * index-addressed slots of a shared container). Calls from inside a
     * worker (nested forEach) run inline on that worker. Blocks until
     * every index has run.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

  private:
    /** One dispatched forEach call, shared with the workers. */
    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t n = 0;
        size_t chunk = 1;
        size_t numChunks = 0;
        /** Workers taking part (ids < participants). */
        size_t participants = 0;
        std::atomic<size_t> nextChunk{0};
        size_t workersDone = 0;
        std::exception_ptr firstError;
        bool staticSlices = false;
    };

    void workerMain(unsigned worker_idx) const;
    void runSlice(unsigned worker_idx) const;
    /** Spawn pool workers up to @p count (caller holds no lock). */
    void ensureWorkers(size_t count) const;

    unsigned threads_;
    bool affinity_;

    /** Pool state below is mutable: forEach() is logically const (it
     *  only runs the caller's fn), but dispatching it mutates the
     *  job slot and may grow the pool. */
    mutable std::mutex poolMutex_;
    mutable std::condition_variable wakeCv_;
    mutable std::condition_variable doneCv_;
    mutable std::vector<std::thread> workers_;
    mutable Job job_;
    /** Bumped per dispatched job; workers wait for it to move. */
    mutable uint64_t generation_ = 0;
    mutable bool stopping_ = false;
    /** Serializes concurrent top-level forEach() callers. */
    mutable std::mutex callMutex_;
};

} // namespace pim::core

#endif // PIM_CORE_PARALLEL_ENGINE_HH
