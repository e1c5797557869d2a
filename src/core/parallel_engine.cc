#include "core/parallel_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/host_placement.hh"
#include "util/logging.hh"

namespace pim::core {

namespace {

/** Set while the current thread is a pool worker running a job; nested
 *  forEach() calls from workload code then run inline instead of
 *  re-entering the dispatcher (which would deadlock on callMutex_). */
thread_local bool tl_in_pool_worker = false;

} // namespace

unsigned
resolveSimThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PIM_SIM_THREADS")) {
        // An empty value counts as unset; anything else must be a
        // positive integer — a typo silently falling back to the
        // hardware thread count would quietly change every experiment.
        if (*env != '\0') {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end == env || *end != '\0' || v <= 0)
                PIM_FATAL("PIM_SIM_THREADS must be a positive integer, "
                          "got '", env, "'");
            return static_cast<unsigned>(v);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
ParallelDpuEngine::affinityFromEnv(const char *value)
{
    if (value == nullptr || *value == '\0'
        || std::strcmp(value, "0") == 0)
        return false;
    if (std::strcmp(value, "1") == 0)
        return true;
    PIM_FATAL("PIM_SIM_AFFINITY must be \"0\" or \"1\", got '", value,
              "'");
}

ParallelDpuEngine::ParallelDpuEngine(unsigned num_threads)
    : threads_(resolveSimThreads(num_threads)),
      affinity_(affinityFromEnv(std::getenv("PIM_SIM_AFFINITY")))
{
}

ParallelDpuEngine::~ParallelDpuEngine()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        stopping_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

unsigned
ParallelDpuEngine::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    return static_cast<unsigned>(workers_.size());
}

unsigned
ParallelDpuEngine::ownerOfIndex(size_t i, size_t n) const
{
    // Inverse of the static slicing in runSlice(): worker w owns
    // [w*n/W, (w+1)*n/W).
    const size_t workers = std::min<size_t>(threads_, n);
    if (workers <= 1 || n == 0)
        return 0;
    const size_t w = (i * workers) / n;
    // Integer rounding can land one off; correct against the exact
    // slice bounds.
    for (size_t c = w > 0 ? w - 1 : 0; c < workers; ++c) {
        if (i >= (c * n) / workers && i < ((c + 1) * n) / workers)
            return static_cast<unsigned>(c);
    }
    return static_cast<unsigned>(workers - 1);
}

void
ParallelDpuEngine::ensureWorkers(size_t count) const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    while (workers_.size() < count) {
        const unsigned idx = static_cast<unsigned>(workers_.size());
        workers_.emplace_back([this, idx]() { workerMain(idx); });
    }
}

void
ParallelDpuEngine::runSlice(unsigned worker_idx) const
{
    const std::function<void(size_t)> &fn = *job_.fn;
    if (job_.staticSlices) {
        // Pinned placement: fixed contiguous slice per worker so the
        // index -> CPU mapping is stable across calls (NUMA locality).
        const size_t begin = (worker_idx * job_.n) / job_.participants;
        const size_t end =
            ((worker_idx + 1) * job_.n) / job_.participants;
        try {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(poolMutex_);
            if (!job_.firstError)
                job_.firstError = std::current_exception();
        }
        return;
    }
    for (;;) {
        const size_t c =
            job_.nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= job_.numChunks)
            return;
        const size_t begin = c * job_.chunk;
        const size_t end = std::min(begin + job_.chunk, job_.n);
        try {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(poolMutex_);
            if (!job_.firstError)
                job_.firstError = std::current_exception();
            // Drain remaining chunks without running them so the other
            // workers finish the job promptly.
            job_.nextChunk.store(job_.numChunks,
                                 std::memory_order_relaxed);
            return;
        }
    }
}

void
ParallelDpuEngine::workerMain(unsigned worker_idx) const
{
    tl_in_pool_worker = true;
    if (affinity_)
        (void)util::pinCurrentThreadToCpu(worker_idx);

    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(poolMutex_);
    for (;;) {
        wakeCv_.wait(lock, [&]() {
            return stopping_ || generation_ != seen;
        });
        if (stopping_)
            return;
        seen = generation_;
        if (worker_idx >= job_.participants)
            continue;
        lock.unlock();
        runSlice(worker_idx);
        lock.lock();
        if (++job_.workersDone == job_.participants)
            doneCv_.notify_all();
    }
}

void
ParallelDpuEngine::forEach(size_t n,
                           const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    if (tl_in_pool_worker || threads_ <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One dispatched job at a time; concurrent top-level callers queue
    // here (workload code never calls this concurrently, but tests do).
    std::lock_guard<std::mutex> call(callMutex_);

    // Grab granularity: coarse enough to amortize the atomic fetch when
    // indices are cheap (thousands of small DPU launches), fine enough
    // that a handful of expensive indices (heavy workload shards) still
    // spread across all workers.
    const size_t chunk = std::clamp<size_t>(
        n / (static_cast<size_t>(threads_) * 8), 1, kMaxGrabChunk);
    const size_t num_chunks = (n + chunk - 1) / chunk;
    const size_t participants =
        std::min<size_t>(threads_, affinity_ ? n : num_chunks);

    ensureWorkers(participants);
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        job_.fn = &fn;
        job_.n = n;
        job_.chunk = chunk;
        job_.numChunks = num_chunks;
        job_.participants = participants;
        job_.nextChunk.store(0, std::memory_order_relaxed);
        job_.workersDone = 0;
        job_.firstError = nullptr;
        job_.staticSlices = affinity_;
        ++generation_;
    }
    wakeCv_.notify_all();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(poolMutex_);
        doneCv_.wait(lock, [&]() {
            return job_.workersDone == job_.participants;
        });
        error = job_.firstError;
        job_.fn = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace pim::core
