/**
 * @file
 * Tests for the parallel multi-DPU execution engine: thread-count
 * invariance of a whole-system program launch reduced in slot order
 * (the deterministic-reduction guarantee), correct merge of per-worker
 * partials against a sequential reference, PIM_SIM_THREADS resolution,
 * and forEach coverage/exception semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/command_queue.hh"
#include "core/parallel_engine.hh"
#include "core/pim_system.hh"
#include "sim/mutex.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::core;

namespace {

/** Small-MRAM DPU so tests don't pay 64 MB of backing store per DPU. */
sim::DpuConfig
smallDpuCfg()
{
    sim::DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    return cfg;
}

/** A contention-free per-DPU program with index-dependent compute,
 *  DMA traffic, and idle time, so every Reduction field is exercised
 *  (incl. the floating-point reductions). */
void
referenceProgram(sim::Dpu &dpu, unsigned idx)
{
    dpu.run(4, [idx](sim::Tasklet &t) {
        t.execute(50 + 13 * (idx % 7) + t.id());
        t.dmaRead(0, 64 + 8 * (idx % 5));
        t.dmaWrite(4096, 32 + 8 * (t.id() % 3));
        t.stall(5 + idx % 3, sim::CycleKind::BusyWait);
    });
}

/** Slot-order reduction of one whole-system launch. */
struct Reduction
{
    unsigned simulatedDpus = 0;
    uint64_t maxCycles = 0;
    double maxSeconds = 0.0;
    double meanSeconds = 0.0;
    sim::CycleBreakdown breakdown{};
    sim::TrafficStats traffic{};
};

/**
 * Run @p program once on every materialized DPU of a @p num_dpus system
 * through PimSystem + CommandQueue, then fold the sampled slots in slot
 * order: max makespan, mean seconds, summed breakdown and traffic.
 */
Reduction
launchProgram(unsigned num_dpus,
              void (*program)(sim::Dpu &, unsigned), unsigned sample,
              unsigned threads)
{
    PimSystemConfig scfg;
    scfg.numDpus = num_dpus;
    scfg.sampleDpus = sample;
    scfg.dpuCfg = smallDpuCfg();
    scfg.simThreads = threads;
    PimSystem sys(scfg);
    CommandQueue queue(sys);
    queue.launchProgram(sys.all(), program);
    queue.sync();

    Reduction out;
    out.simulatedDpus = sys.sampleCount();
    double sum_seconds = 0.0;
    for (unsigned slot = 0; slot < sys.sampleCount(); ++slot) {
        const sim::Dpu &dpu = sys.dpu(slot);
        out.maxCycles = std::max(out.maxCycles, dpu.lastElapsedCycles());
        sum_seconds += dpu.lastElapsedSeconds();
        out.breakdown.merge(dpu.lastBreakdown());
        out.traffic.merge(dpu.traffic());
    }
    out.maxSeconds = scfg.dpuCfg.cyclesToSeconds(out.maxCycles);
    out.meanSeconds =
        sum_seconds / static_cast<double>(out.simulatedDpus);
    return out;
}

Reduction
runWithThreads(unsigned num_dpus, unsigned threads, unsigned sample = 0)
{
    return launchProgram(num_dpus, referenceProgram, sample, threads);
}

void
expectIdentical(const Reduction &a, const Reduction &b)
{
    EXPECT_EQ(a.simulatedDpus, b.simulatedDpus);
    EXPECT_EQ(a.maxCycles, b.maxCycles);
    // Bit-identical doubles, not just approximately equal: the chunked
    // reduction fixes the floating-point association.
    EXPECT_EQ(a.maxSeconds, b.maxSeconds);
    EXPECT_EQ(a.meanSeconds, b.meanSeconds);
    for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
        EXPECT_EQ(a.breakdown.cycles[k], b.breakdown.cycles[k]);
    EXPECT_EQ(a.traffic.dataReadBytes, b.traffic.dataReadBytes);
    EXPECT_EQ(a.traffic.dataWriteBytes, b.traffic.dataWriteBytes);
    EXPECT_EQ(a.traffic.metadataReadBytes, b.traffic.metadataReadBytes);
    EXPECT_EQ(a.traffic.metadataWriteBytes, b.traffic.metadataWriteBytes);
    EXPECT_EQ(a.traffic.dmaTransfers, b.traffic.dmaTransfers);
}

} // namespace

TEST(ParallelEngine, ThreadCountInvariance)
{
    // 130 DPUs: a non-multiple of the chunk size, so the last chunk is
    // ragged — the hardest case for the deterministic reduction.
    const auto r1 = runWithThreads(130, 1);
    const auto r2 = runWithThreads(130, 2);
    const auto r8 = runWithThreads(130, 8);
    expectIdentical(r1, r2);
    expectIdentical(r1, r8);
    EXPECT_GT(r1.maxCycles, 0u);
    EXPECT_GT(r1.traffic.totalBytes(), 0u);
}

TEST(ParallelEngine, ThreadCountInvarianceUnderSampling)
{
    const auto r1 = runWithThreads(512, 1, 48);
    const auto r8 = runWithThreads(512, 8, 48);
    expectIdentical(r1, r8);
    EXPECT_EQ(r1.simulatedDpus, 48u);
}

TEST(ParallelEngine, MergesPartialsLikeSequentialReference)
{
    const unsigned n = 40;
    // Hand-rolled sequential reduction over the same programs.
    uint64_t ref_max = 0;
    sim::CycleBreakdown ref_breakdown{};
    sim::TrafficStats ref_traffic{};
    for (unsigned i = 0; i < n; ++i) {
        sim::Dpu dpu{smallDpuCfg()};
        referenceProgram(dpu, i);
        ref_max = std::max(ref_max, dpu.lastElapsedCycles());
        ref_breakdown.merge(dpu.lastBreakdown());
        ref_traffic.merge(dpu.traffic());
    }

    const auto r = runWithThreads(n, 4);
    EXPECT_EQ(r.maxCycles, ref_max);
    for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
        EXPECT_EQ(r.breakdown.cycles[k], ref_breakdown.cycles[k]);
    EXPECT_EQ(r.traffic.dataReadBytes, ref_traffic.dataReadBytes);
    EXPECT_EQ(r.traffic.dataWriteBytes, ref_traffic.dataWriteBytes);
    EXPECT_EQ(r.traffic.dmaTransfers, ref_traffic.dmaTransfers);
}

TEST(ParallelEngine, ResolveThreadsPrecedence)
{
    // Explicit request wins over everything.
    EXPECT_EQ(resolveSimThreads(5), 5u);

    // PIM_SIM_THREADS is honored when no explicit request is made.
    ::setenv("PIM_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveSimThreads(0), 3u);
    EXPECT_EQ(resolveSimThreads(7), 7u);
    EXPECT_EQ(ParallelDpuEngine(0).threadCount(), 3u);

    // An empty value counts as unset.
    ::setenv("PIM_SIM_THREADS", "", 1);
    EXPECT_GE(resolveSimThreads(0), 1u);

    // An explicit request never consults the environment, so even a
    // bogus value is ignored when a positive count is passed.
    ::setenv("PIM_SIM_THREADS", "zero", 1);
    EXPECT_EQ(resolveSimThreads(7), 7u);

    ::unsetenv("PIM_SIM_THREADS");
    EXPECT_GE(resolveSimThreads(0), 1u);
}

TEST(ParallelEngineDeath, InvalidEnvThreadCountIsFatal)
{
    // Garbage, zero, negative, and trailing-junk values must fail
    // loudly instead of silently selecting the hardware thread count.
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "zero", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "0", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "-2", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "4cores", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    ::unsetenv("PIM_SIM_THREADS");
}

TEST(ParallelEngine, ForEachCoversEveryIndexExactlyOnce)
{
    const size_t n = 1000; // spans many chunks
    std::vector<std::atomic<unsigned>> hits(n);
    ParallelDpuEngine engine(8);
    engine.forEach(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelEngine, ForEachHandlesEmptyAndTiny)
{
    ParallelDpuEngine engine(8);
    engine.forEach(0, [](size_t) { FAIL() << "must not be called"; });

    std::atomic<unsigned> calls{0};
    engine.forEach(1, [&](size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 1u);
}

TEST(ParallelEngine, ForEachPropagatesExceptions)
{
    ParallelDpuEngine engine(4);
    EXPECT_THROW(engine.forEach(256,
                                [](size_t i) {
                                    if (i == 200)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(ParallelEngine, QueueLaunchIsThreadCountInvariant)
{
    auto launch = [](unsigned threads) {
        PimSystemConfig cfg;
        cfg.numDpus = 64;
        cfg.sampleDpus = 32;
        cfg.dpuCfg = smallDpuCfg();
        cfg.simThreads = threads;
        PimSystem sys(cfg);
        CommandQueue queue(sys);
        queue.launch(sys.all(), 8, [](sim::Tasklet &t, unsigned idx) {
            t.execute(100 + idx + t.id());
            t.dmaRead(0, 64);
        });
        return queue.sync();
    };
    const double s1 = launch(1);
    const double s8 = launch(8);
    EXPECT_EQ(s1, s8); // bit-identical timeline
    EXPECT_GT(s1, 0.0);

    PimSystemConfig cfg;
    cfg.sampleDpus = 4;
    cfg.dpuCfg = smallDpuCfg();
    cfg.simThreads = 6;
    EXPECT_EQ(PimSystem(cfg).engine().threadCount(), 6u);
}

TEST(ParallelEngine, GraphUpdateDriverIsThreadCountInvariant)
{
    auto run = [](unsigned threads) {
        workloads::graph::GraphUpdateConfig cfg;
        cfg.numDpus = 32;
        cfg.sampleDpus = 8;
        cfg.tasklets = 4;
        cfg.gen.numNodes = 512;
        cfg.gen.numEdges = 2048;
        cfg.simThreads = threads;
        return workloads::graph::runGraphUpdate(cfg);
    };
    const auto a = run(1);
    const auto b = run(8);
    EXPECT_EQ(a.updateSeconds, b.updateSeconds);
    EXPECT_EQ(a.updateEdgesTotal, b.updateEdgesTotal);
    EXPECT_EQ(a.allocStats.mallocCalls, b.allocStats.mallocCalls);
    EXPECT_EQ(a.allocStats.freeCalls, b.allocStats.freeCalls);
    EXPECT_EQ(a.fragmentation, b.fragmentation);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
    for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
        EXPECT_EQ(a.breakdown.cycles[k], b.breakdown.cycles[k]);
    EXPECT_GT(a.allocStats.mallocCalls, 0u);
}

namespace {

/** RAII override of the process-wide SimMutex default mode. */
struct ScopedMutexMode
{
    sim::SimMutex::Mode prev;

    explicit ScopedMutexMode(sim::SimMutex::Mode m)
        : prev(sim::SimMutex::defaultMode())
    {
        sim::SimMutex::setDefaultMode(m);
    }

    ~ScopedMutexMode() { sim::SimMutex::setDefaultMode(prev); }
};

/** Per-DPU program with real intra-DPU lock contention, so the mutex
 *  execution mode matters to the simulated timeline. */
void
contendedProgram(sim::Dpu &dpu, unsigned idx)
{
    sim::SimMutex mutex; // default mode: the latched process-wide one
    dpu.run(8, [&mutex, idx](sim::Tasklet &t) {
        for (unsigned i = 0; i < 6; ++i) {
            mutex.lock(t);
            t.execute(40 + idx % 5 + t.id());
            mutex.unlock(t);
            t.execute(10 + 3 * t.id());
            t.dmaRead(0, 64);
        }
    });
}

} // namespace

TEST(ParallelEngine, PersistentPoolReusesThreadsAcrossCalls)
{
    ParallelDpuEngine engine(4);
    EXPECT_EQ(engine.liveWorkers(), 0u); // lazily spawned

    auto collectIds = [&]() {
        std::mutex m;
        std::set<std::thread::id> ids;
        engine.forEach(256, [&](size_t) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
        return ids;
    };
    auto all_ids = collectIds();
    EXPECT_GT(engine.liveWorkers(), 0u);
    EXPECT_LE(engine.liveWorkers(), 4u);
    const unsigned live_after_first = engine.liveWorkers();

    // Later calls are served by the same parked workers: the pool does
    // not grow, and the union of executing threads across many calls
    // never exceeds it (per-call spawning would mint fresh ids every
    // round).
    for (int round = 0; round < 3; ++round) {
        const auto again = collectIds();
        all_ids.insert(again.begin(), again.end());
    }
    EXPECT_EQ(engine.liveWorkers(), live_after_first);
    EXPECT_LE(all_ids.size(), live_after_first);

    // The caller never executes indices itself (workers own the job).
    EXPECT_FALSE(all_ids.count(std::this_thread::get_id()));
}

TEST(ParallelEngine, NestedForEachRunsInline)
{
    ParallelDpuEngine engine(4);
    std::vector<std::atomic<unsigned>> hits(32);
    engine.forEach(4, [&](size_t outer) {
        // A nested call on the same engine must not dead-lock on the
        // dispatcher; it runs inline on the worker.
        engine.forEach(8, [&](size_t inner) {
            hits[outer * 8 + inner].fetch_add(
                1, std::memory_order_relaxed);
        });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelEngine, AffinityFromEnvParsing)
{
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv(nullptr));
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv(""));
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv("0"));
    EXPECT_TRUE(ParallelDpuEngine::affinityFromEnv("1"));
}

TEST(ParallelEngineDeath, InvalidAffinityEnvValueIsFatal)
{
    EXPECT_DEATH({
        ::setenv("PIM_SIM_AFFINITY", "yes", 1);
        ParallelDpuEngine engine(2);
    }, "PIM_SIM_AFFINITY");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_AFFINITY", "2", 1);
        ParallelDpuEngine engine(2);
    }, "PIM_SIM_AFFINITY");
    ::unsetenv("PIM_SIM_AFFINITY");
}

TEST(ParallelEngine, PinnedPlacementIsDeterministicAndCovers)
{
    // Pinned mode switches to static contiguous slices; coverage and
    // determinism must be unaffected.
    ::setenv("PIM_SIM_AFFINITY", "1", 1);
    {
        ParallelDpuEngine engine(4);
        EXPECT_TRUE(engine.affinityEnabled());
        std::vector<std::atomic<unsigned>> hits(130);
        engine.forEach(130, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;

        // Slice ownership is a total, stable partition of the indices.
        unsigned prev = 0;
        for (size_t i = 0; i < 130; ++i) {
            const unsigned owner = engine.ownerOfIndex(i, 130);
            EXPECT_LT(owner, 4u);
            EXPECT_GE(owner, prev) << "owners must be non-decreasing";
            prev = owner;
        }

        const auto r = runWithThreads(64, 4);
        ::unsetenv("PIM_SIM_AFFINITY");
        const auto ref = runWithThreads(64, 4);
        expectIdentical(r, ref);
    }
    ::unsetenv("PIM_SIM_AFFINITY");
}

TEST(ParallelEngine, QueueMutexThreadCountInvariance)
{
    // PIM_SIM_MUTEX=queue must preserve the engine's bit-identity
    // guarantee across PIM_SIM_THREADS settings...
    ScopedMutexMode queue(sim::SimMutex::Mode::Queue);
    const auto r1 =
        launchProgram(130, contendedProgram, 0, 1);
    const auto r4 =
        launchProgram(130, contendedProgram, 0, 4);
    const auto r7 =
        launchProgram(130, contendedProgram, 0, 7);
    expectIdentical(r1, r4);
    expectIdentical(r1, r7);
    EXPECT_GT(r1.breakdown.of(sim::CycleKind::BusyWait), 0u);

    // ...and the queue-mode simulation reduces identically to the spin
    // reference (the cross-mode fidelity contract, at system scale).
    ScopedMutexMode spin(sim::SimMutex::Mode::Spin);
    const auto s4 =
        launchProgram(130, contendedProgram, 0, 4);
    expectIdentical(r1, s4);
}
