/**
 * @file
 * alloc_mix: the paper-style allocator microbenchmark on one DPU with
 * 16 tasklets, run for straw-man, PIM-malloc-SW and PIM-malloc-HW/SW,
 * each on a fresh DPU. Every tasklet replays a seeded request trace:
 * one fill launch that keeps its blocks live, then churn launches that
 * free a seeded pick of live blocks and allocate anew. Request sizes
 * cover all three service levels (thread-cache hits, buddy refills and
 * >2 KB bypass requests). Launches call Dpu::run directly; there is no
 * command queue.
 */

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/pim_malloc.hh"
#include "alloc/straw_man.hh"
#include "core/allocator_factory.hh"
#include "core/pim_system.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using pim::core::AllocatorKind;

constexpr unsigned kTasklets = 16;

/** One design point and the size of its trace. */
struct Leg
{
    AllocatorKind kind;
    const char *key;
    /** Blocks each tasklet allocates and keeps in the fill launch. */
    unsigned fill;
    /** Churn launches after the fill. */
    unsigned churnLaunches;
    /** Free+malloc pairs per tasklet per churn launch. */
    unsigned churnPairs;
};

/**
 * Trace sizes. The straw-man leg serializes every request on one
 * MRAM-resident buddy tree, so it costs ~8x more host time per request
 * than the PIM-malloc legs; it gets a shorter trace so that no design
 * point takes most of the run.
 */
std::vector<Leg>
legs(bool smoke)
{
    if (smoke) {
        return {{AllocatorKind::StrawMan, "strawman", 16, 2, 8},
                {AllocatorKind::PimMallocSw, "sw", 32, 2, 16},
                {AllocatorKind::PimMallocHwSw, "hwsw", 32, 2, 16}};
    }
    return {{AllocatorKind::StrawMan, "strawman", 64, 8, 32},
            {AllocatorKind::PimMallocSw, "sw", 256, 24, 128},
            {AllocatorKind::PimMallocHwSw, "hwsw", 256, 24, 128}};
}

/** One request: size > 0 allocates, size == 0 frees live block
 *  number (pick % live count). */
struct Op
{
    uint32_t size;
    uint32_t pick;
};

/** ops[launch][tasklet]: the request stream of one leg. */
using Trace = std::vector<std::vector<std::vector<Op>>>;

/**
 * @p n request sizes, stratified so that every trace has the same mix:
 * 60 % 8-256 B, 30 % 257 B-2 KB (thread-cache size classes) and 10 %
 * 2-8 KB (bypasses the thread cache), in seeded order with seeded
 * sizes inside each band. Only the order and the exact sizes vary with
 * the seed, which keeps the work of a run nearly seed-independent.
 */
std::vector<uint32_t>
requestSizes(pim::util::Rng &rng, unsigned n)
{
    std::vector<uint32_t> sizes;
    sizes.reserve(n);
    const unsigned large = n / 10;
    const unsigned medium = n * 3 / 10;
    for (unsigned i = 0; i < n; ++i) {
        if (i < large)
            sizes.push_back(static_cast<uint32_t>(rng.uniformRange(2049, 8192)));
        else if (i < large + medium)
            sizes.push_back(static_cast<uint32_t>(rng.uniformRange(257, 2048)));
        else
            sizes.push_back(static_cast<uint32_t>(rng.uniformRange(8, 256)));
    }
    rng.shuffle(sizes);
    return sizes;
}

Trace
makeTrace(uint64_t seed, const Leg &leg)
{
    Trace tr(1 + leg.churnLaunches,
             std::vector<std::vector<Op>>(kTasklets));
    for (unsigned t = 0; t < kTasklets; ++t) {
        pim::util::Rng rng(deriveSeed(
            seed, std::string("alloc_mix/") + leg.key + "/t"
                + std::to_string(t)));
        for (const uint32_t size : requestSizes(rng, leg.fill))
            tr[0][t].push_back({size, 0});
        for (unsigned c = 1; c <= leg.churnLaunches; ++c) {
            for (const uint32_t size : requestSizes(rng, leg.churnPairs)) {
                tr[c][t].push_back(
                    {0, static_cast<uint32_t>(rng.next())});
                tr[c][t].push_back({size, 0});
            }
        }
    }
    return tr;
}

uint64_t
hashTrace(const Trace &tr, uint64_t h)
{
    for (const auto &launch : tr)
        for (const auto &ops : launch)
            h = fnv1a(ops.data(), ops.size() * sizeof(Op), h);
    return h;
}

/** One allocator call as it happened, in host execution order. */
struct LogEntry
{
    uint64_t addr;
    uint32_t size;
    uint16_t tasklet;
    bool isFree;
};

/** Heap [base, base + bytes) of @p a. */
std::pair<uint64_t, uint64_t>
heapBounds(pim::alloc::Allocator &a)
{
    if (auto *pm = dynamic_cast<pim::alloc::PimMallocAllocator *>(&a))
        return {pm->backend().heapBase(), pm->backend().heapBytes()};
    auto &sm = dynamic_cast<pim::alloc::StrawManAllocator &>(a);
    return {sm.tree().heapBase(), sm.tree().heapBytes()};
}

/**
 * Replay the call log: every returned block lies inside the heap and
 * overlaps no block live at that point. One DPU's tasklets run as
 * fibers on one host thread, so the log's order is the order in which
 * the allocator's state changed (a free is logged before the call that
 * releases the block, a malloc after the call that returns it).
 */
void
checkLog(const std::vector<LogEntry> &log, uint64_t base, uint64_t bytes,
         const char *key, std::vector<std::string> &errors)
{
    std::map<uint64_t, uint64_t> live; // start -> end
    auto fail = [&](const std::string &what, const LogEntry &e) {
        errors.push_back(std::string("alloc_mix/") + key + ": " + what
                         + " (tasklet " + std::to_string(e.tasklet)
                         + ", addr " + std::to_string(e.addr) + ", size "
                         + std::to_string(e.size) + ")");
    };
    for (const LogEntry &e : log) {
        if (errors.size() > 8)
            return;
        if (e.isFree) {
            if (live.erase(e.addr) != 1)
                fail("free of a block that is not live", e);
            continue;
        }
        if (e.addr == pim::sim::kNullAddr)
            continue; // counted as a failure, not a corruption
        const uint64_t end = e.addr + e.size;
        if (e.addr < base || end > base + bytes) {
            fail("block outside the heap", e);
            continue;
        }
        auto next = live.lower_bound(e.addr);
        if (next != live.end() && next->first < end) {
            fail("block overlaps a live block", e);
            continue;
        }
        if (next != live.begin() && std::prev(next)->second > e.addr) {
            fail("block overlaps a live block", e);
            continue;
        }
        live.emplace(e.addr, end);
    }
}

} // namespace

uint64_t
allocMixInputHash(uint64_t seed, bool smoke)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const Leg &leg : legs(smoke))
        h = hashTrace(makeTrace(seed, leg), h);
    return h;
}

Iteration
runAllocMix(const Params &p, SpanLog *log)
{
    Iteration it;
    const std::vector<Leg> all_legs = legs(p.smoke);

    struct LegState
    {
        Trace trace;
        std::unique_ptr<pim::core::PimSystem> sys;
        std::unique_ptr<pim::alloc::Allocator> alloc;
    };
    std::vector<LegState> st(all_legs.size());
    pim::trace::Recorder rec;

    const auto setup_start = Clock::now();
    {
        Scope s(log, "setup");
        {
            Scope g(log, "workloads.alloc.trace_gen");
            for (size_t i = 0; i < all_legs.size(); ++i)
                st[i].trace = makeTrace(p.seed, all_legs[i]);
        }
        for (size_t i = 0; i < all_legs.size(); ++i) {
            {
                Scope b(log, "core.pim_system.build");
                st[i].sys = std::make_unique<pim::core::PimSystem>(
                    pim::core::singleDpuConfig());
            }
            it.layers["core.pim_system.builds"] += 1;
            it.layers["core.pim_system.dpus"] += 1;
            pim::sim::Dpu &dpu = st[i].sys->dpu(0);
            pim::core::AllocatorOverrides ov;
            ov.numTasklets = kTasklets;
            st[i].alloc = pim::core::makeAllocator(dpu, all_legs[i].kind, ov);
            // initAllocator() is one single-tasklet launch; the measured
            // launches start from an initialized allocator with cold
            // caches and zeroed counters.
            dpu.run(1, [&](pim::sim::Tasklet &t) { st[i].alloc->init(t); });
            dpu.resetStats();
            st[i].alloc->stats().resetCounters();
#ifdef PIM_TRACE_SIM
            if (p.traced)
                dpu.attachTraceRecorder(&rec, static_cast<unsigned>(i));
#endif
        }
    }
    it.setupSec = secondsSince(setup_start);

    // Calls in host order per leg, checked after the timed phase.
    std::vector<std::vector<LogEntry>> logs(all_legs.size());
    std::vector<double> leg_wall(all_legs.size(), 0.0);
    std::vector<uint64_t> null_mallocs(all_legs.size(), 0);
    std::vector<uint64_t> bad_frees(all_legs.size(), 0);
    uint64_t runs = 0, events = 0, cycles = 0;
    double run_sec = 0.0;

    const auto measure_start = Clock::now();
    {
        Scope s(log, "measure");
        for (size_t i = 0; i < all_legs.size(); ++i) {
            pim::sim::Dpu &dpu = st[i].sys->dpu(0);
            pim::alloc::Allocator &alloc = *st[i].alloc;
            std::vector<LogEntry> &calls = logs[i];
            uint64_t &nulls = null_mallocs[i];
            uint64_t &rejected = bad_frees[i];
            std::vector<std::vector<std::pair<uint64_t, uint32_t>>> live(
                kTasklets);
            for (const auto &launch : st[i].trace) {
                auto body = [&](pim::sim::Tasklet &t) {
                    const unsigned id = t.id();
                    auto &mine = live[id];
                    for (const Op &op : launch[id]) {
                        if (op.size > 0) {
                            const uint64_t a = alloc.malloc(t, op.size);
                            calls.push_back({a, op.size,
                                             static_cast<uint16_t>(id),
                                             false});
                            if (a == pim::sim::kNullAddr)
                                ++nulls;
                            else
                                mine.emplace_back(a, op.size);
                            continue;
                        }
                        if (mine.empty())
                            continue;
                        const size_t k = op.pick % mine.size();
                        const auto blk = mine[k];
                        mine[k] = mine.back();
                        mine.pop_back();
                        calls.push_back({blk.first, blk.second,
                                         static_cast<uint16_t>(id), true});
                        if (!alloc.free(t, blk.first))
                            ++rejected;
                    }
                };
                const auto t0 = Clock::now();
                {
                    Scope r(log, "sim.dpu.run");
                    dpu.run(kTasklets, body);
                }
                const double dt = secondsSince(t0);
                run_sec += dt;
                leg_wall[i] += dt;
                ++runs;
                events += dpu.lastSimEvents();
                cycles += dpu.lastElapsedCycles();
            }
        }
    }
    it.wallSec = secondsSince(measure_start);

    // Results, counters and correctness (outside the timed phase).
    pim::sim::SimMutexStats mutex{};
    pim::sim::TrafficStats traffic{};
    pim::sim::BuddyCacheStats cache{};
    uint64_t mallocs = 0, frees = 0, alloc_failures = 0, serviced[3] = {};
    uint64_t metadata = 0;
    double peak_frag = 0.0;
    for (size_t i = 0; i < all_legs.size(); ++i) {
        const Leg &leg = all_legs[i];
        pim::sim::Dpu &dpu = st[i].sys->dpu(0);
        const pim::alloc::AllocStats &as = st[i].alloc->stats();
        const std::string k = leg.key;
        uint64_t h = fnv1a(nullptr, 0);
        for (const LogEntry &e : logs[i]) {
            h = hashValue(e.addr, h);
            h = hashValue(e.size, h);
            h = hashValue(e.tasklet, h);
            h = hashValue(e.isFree, h);
        }

        it.sim["sim_malloc_mean_cycles." + k] = as.latency.mean();
        it.sim["alloc." + k + ".malloc_calls"] =
            static_cast<double>(as.mallocCalls);
        it.sim["alloc." + k + ".free_calls"] =
            static_cast<double>(as.freeCalls);
        it.sim["alloc." + k + ".frontend"] = static_cast<double>(as.serviced[0]);
        it.sim["alloc." + k + ".backend"] = static_cast<double>(as.serviced[1]);
        it.sim["alloc." + k + ".bypass"] = static_cast<double>(as.serviced[2]);
        it.sim["alloc." + k + ".peak_fragmentation"] = as.peakFragmentation;
        it.sim["alloc." + k + ".call_log_hash"] = hashToDouble(h);
        it.sim["sim.traffic." + k + ".metadata_bytes"] =
            static_cast<double>(dpu.traffic().metadataBytes());
        it.sim["sim.traffic." + k + ".data_bytes"] = static_cast<double>(
            dpu.traffic().dataReadBytes + dpu.traffic().dataWriteBytes);
        it.sim["sim.buddy_cache." + k + ".hits"] =
            static_cast<double>(dpu.buddyCache().stats().hits);

        const auto [base, bytes] = heapBounds(*st[i].alloc);
        checkLog(logs[i], base, bytes, leg.key, it.errors);

        const uint64_t leg_ops = logs[i].size();
        it.attempted += leg_ops;
        // The allocator counts its own failed mallocs; a rejected free
        // is only seen by the caller.
        it.failed += bad_frees[i] + std::max(null_mallocs[i], as.failures);
        it.layers["alloc.launch_s." + k] = leg_wall[i];
        it.layers["alloc.ops." + k] = static_cast<double>(leg_ops);

        if (const pim::sim::SimMutex *m = st[i].alloc->contentionMutex())
            mutex.merge(m->statsSnapshot());
        traffic.merge(dpu.traffic());
        cache.lookups += dpu.buddyCache().stats().lookups;
        cache.hits += dpu.buddyCache().stats().hits;
        mallocs += as.mallocCalls;
        frees += as.freeCalls;
        alloc_failures += as.failures;
        for (int l = 0; l < 3; ++l)
            serviced[l] += as.serviced[l];
        metadata += st[i].alloc->metadataBytes();
        peak_frag = std::max(peak_frag, as.peakFragmentation);
    }
    it.sim["sim_s"] = st[0].sys->dpu(0).config().cyclesToSeconds(cycles);
    it.sim["sim.dpu.cycles"] = static_cast<double>(cycles);
    it.sim["sim.dpu.events"] = static_cast<double>(events);

    if (p.traced) {
        auto &L = it.layers;
        L["sim.dpu.runs"] = static_cast<double>(runs);
        L["sim.dpu.run_s"] = run_sec;
        L["sim.dpu.events"] = static_cast<double>(events);
        L["sim.dpu.cycles"] = static_cast<double>(cycles);
        L["sim.mutex.acquisitions"] = static_cast<double>(mutex.acquisitions);
        L["sim.mutex.contended"] = static_cast<double>(mutex.contended);
        L["sim.mutex.elided_spin_events"] =
            static_cast<double>(mutex.elidedSpinEvents);
        L["alloc.malloc_calls"] = static_cast<double>(mallocs);
        L["alloc.free_calls"] = static_cast<double>(frees);
        L["alloc.failures"] = static_cast<double>(alloc_failures);
        L["alloc.serviced.frontend"] = static_cast<double>(serviced[0]);
        L["alloc.serviced.backend"] = static_cast<double>(serviced[1]);
        L["alloc.serviced.bypass"] = static_cast<double>(serviced[2]);
        L["alloc.metadata_bytes"] = static_cast<double>(metadata);
        L["alloc.peak_fragmentation"] = peak_frag;
        L["sim.buddy_cache.lookups"] = static_cast<double>(cache.lookups);
        L["sim.buddy_cache.hits"] = static_cast<double>(cache.hits);
        L["sim.traffic.metadata_bytes"] =
            static_cast<double>(traffic.metadataBytes());
        L["sim.traffic.data_bytes"] = static_cast<double>(
            traffic.dataReadBytes + traffic.dataWriteBytes);
        addExportLayers(it, &rec, nullptr);
    }
    return it;
}

} // namespace perfbench
