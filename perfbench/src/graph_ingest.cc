/**
 * @file
 * graph_ingest: the Fig 17 dynamic-graph update study as a design-space
 * sweep. {LinkedList, VarArray} x {PIM-malloc-SW, PIM-malloc-HW/SW},
 * each on a fresh system, all on the same loc-gowalla-scale dataset
 * (1/3 of the edges form the update stream, shipped in 8 rounds). The
 * benchmark drives GraphUpdateTask (construct, then step() until
 * done()) so that dataset synthesis and system build are timed apart
 * from ingest.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "telemetry/registry.hh"
#include "trace/trace.hh"
#include "workloads.hh"
#include "workloads/graph/graph_gen.hh"
#include "workloads/graph/update_driver.hh"

namespace perfbench {

namespace {

namespace graph = pim::workloads::graph;
using pim::core::AllocatorKind;

struct Design
{
    graph::StructureKind structure;
    AllocatorKind allocator;
    const char *key;
    const char *allocKey;
};

constexpr Design kDesigns[] = {
    {graph::StructureKind::LinkedList, AllocatorKind::PimMallocSw,
     "linked_list.sw", "sw"},
    {graph::StructureKind::LinkedList, AllocatorKind::PimMallocHwSw,
     "linked_list.hwsw", "hwsw"},
    {graph::StructureKind::VarArray, AllocatorKind::PimMallocSw,
     "var_array.sw", "sw"},
    {graph::StructureKind::VarArray, AllocatorKind::PimMallocHwSw,
     "var_array.hwsw", "hwsw"},
};

graph::GraphUpdateConfig
makeConfig(const Params &p, const Design &d)
{
    graph::GraphUpdateConfig cfg;
    cfg.structure = d.structure;
    cfg.allocator = d.allocator;
    cfg.tasklets = 16;
    cfg.updateRounds = 8;
    cfg.shipUpdates = true;
    cfg.simThreads = p.threads;
    // The graph stands in for one fixed real dataset (the generator's
    // default seed); the workload seed picks which edges arrive as the
    // update stream.
    cfg.seed = deriveSeed(p.seed, "graph/split");
    if (p.smoke) {
        cfg.numDpus = 64;
        cfg.sampleDpus = 2;
        cfg.gen.numNodes = 4000;
        cfg.gen.numEdges = 20000;
        cfg.updateRounds = 2;
    } else {
        // loc-gowalla scale, one materialized DPU per 4.
        cfg.numDpus = 512;
        cfg.sampleDpus = 128;
        cfg.gen.numNodes = 196591;
        cfg.gen.numEdges = 950327;
    }
    return cfg;
}

/** The simulated outcome of one design point; everything here comes
 *  from GraphUpdateResult so the stepper and runGraphUpdate compare. */
void
addResult(Iteration &it, const std::string &k,
          const graph::GraphUpdateResult &r)
{
    auto &S = it.sim;
    S["sim_update_medges_per_s." + k] = r.millionEdgesPerSec;
    S["graph." + k + ".update_s"] = r.updateSeconds;
    S["graph." + k + ".wall_s"] = r.wallSeconds;
    S["graph." + k + ".update_edges"] =
        static_cast<double>(r.updateEdgesTotal);
    S["graph." + k + ".malloc_calls"] =
        static_cast<double>(r.allocStats.mallocCalls);
    S["graph." + k + ".free_calls"] =
        static_cast<double>(r.allocStats.freeCalls);
    S["graph." + k + ".alloc_failures"] =
        static_cast<double>(r.allocStats.failures);
    S["graph." + k + ".alloc_latency_us"] = r.avgAllocLatencyUs;
    S["graph." + k + ".fragmentation"] = r.fragmentation;
    S["graph." + k + ".metadata_bytes"] =
        static_cast<double>(r.metadataBytes);
    S["graph." + k + ".traffic_bytes"] =
        static_cast<double>(r.traffic.totalBytes());
    S["graph." + k + ".cycles"] = static_cast<double>(r.breakdown.total());
    S["graph." + k + ".lost_edges"] = static_cast<double>(r.lostEdges);
    S["sim_s"] += r.wallSeconds;
    it.attempted += r.updateEdgesTotal;
    it.failed += r.lostEdges + r.allocStats.failures;
}

/** Per-layer values of one finished design point. */
void
addLayers(Iteration &it, const Design &d, const graph::GraphUpdateResult &r,
          pim::core::PimSystem &sys)
{
    auto &L = it.layers;
    const pim::alloc::AllocStats &as = r.allocStats;
    L["alloc.malloc_calls"] += static_cast<double>(as.mallocCalls);
    L["alloc.free_calls"] += static_cast<double>(as.freeCalls);
    L["alloc.failures"] += static_cast<double>(as.failures);
    L["alloc.serviced.frontend"] += static_cast<double>(as.serviced[0]);
    L["alloc.serviced.backend"] += static_cast<double>(as.serviced[1]);
    L["alloc.serviced.bypass"] += static_cast<double>(as.serviced[2]);
    L["alloc.metadata_bytes"] += static_cast<double>(r.metadataBytes);
    L["alloc.peak_fragmentation"] =
        std::max(L["alloc.peak_fragmentation"], r.fragmentation);
    L[std::string("alloc.ops.") + d.allocKey] +=
        static_cast<double>(as.mallocCalls + as.freeCalls);
    L["sim.traffic.metadata_bytes"] +=
        static_cast<double>(r.traffic.metadataBytes());
    L["sim.traffic.data_bytes"] += static_cast<double>(
        r.traffic.dataReadBytes + r.traffic.dataWriteBytes);
    addBuddyCacheLayers(it, sys);
}

} // namespace

uint64_t
graphIngestInputHash(uint64_t seed, bool smoke)
{
    Params p;
    p.seed = seed;
    p.smoke = smoke;
    const graph::GraphUpdateConfig cfg = makeConfig(p, kDesigns[0]);
    const graph::UpdateWorkload w = graph::splitForUpdate(
        graph::generateGraph(cfg.gen), cfg.newFraction, cfg.seed);
    uint64_t h = fnv1a(w.baseEdges.data(),
                       w.baseEdges.size() * sizeof(graph::Edge));
    return fnv1a(w.updateEdges.data(),
                 w.updateEdges.size() * sizeof(graph::Edge), h);
}

Iteration
runGraphIngest(const Params &p, SpanLog *log)
{
    Iteration it;
    if (p.reference) {
        for (const Design &d : kDesigns)
            addResult(it, d.key, graph::runGraphUpdate(makeConfig(p, d)));
        return it;
    }

    bool probed = false;
    for (const Design &d : kDesigns) {
        graph::GraphUpdateConfig cfg = makeConfig(p, d);
        pim::trace::Recorder rec;
        pim::telemetry::Registry reg;
        if (p.traced) {
            cfg.recorder = &rec;
            cfg.metrics = &reg;
        }
        if (p.traced && !probed) {
            // GraphUpdateTask synthesizes its dataset inside its
            // constructor; time the same two public calls on their own
            // so the constructor's share can be named.
            probed = true;
            const auto t0 = Clock::now();
            const graph::GraphDataset g = graph::generateGraph(cfg.gen);
            it.layers["workloads.graph.generate_s"] = secondsSince(t0);
            const auto t1 = Clock::now();
            const graph::UpdateWorkload w =
                graph::splitForUpdate(g, cfg.newFraction, cfg.seed);
            it.layers["workloads.graph.split_s"] = secondsSince(t1);
            static_cast<void>(w);
        }

        pim::core::PimSystemConfig scfg;
        scfg.numDpus = cfg.numDpus;
        scfg.sampleDpus = cfg.sampleDpus;
        scfg.dpuCfg = cfg.dpuCfg;
        scfg.simThreads = cfg.simThreads;

        const auto setup_start = Clock::now();
        std::unique_ptr<pim::core::PimSystem> sys;
        std::unique_ptr<pim::core::CommandQueue> queue;
        std::unique_ptr<graph::GraphUpdateTask> task;
        {
            Scope s(log, "setup");
            {
                Scope b(log, "core.pim_system.build");
                sys = std::make_unique<pim::core::PimSystem>(scfg);
            }
            queue = std::make_unique<pim::core::CommandQueue>(*sys);
            if (p.traced) {
                queue->attachRecorder(&rec);
                queue->attachMetrics(&reg);
                traceDpus(*sys, rec);
            }
            Scope c(log, "workloads.graph.task_ctor");
            task = std::make_unique<graph::GraphUpdateTask>(cfg, *queue,
                                                            sys->all());
        }
        it.setupSec += secondsSince(setup_start);

        const auto measure_start = Clock::now();
        graph::GraphUpdateResult r;
        {
            Scope s(log, "measure");
            while (!task->done()) {
                Scope st(log, "workloads.graph.step");
                task->step();
            }
            r = task->result();
            Scope y(log, "core.command_queue.sync");
            queue->sync();
        }
        it.wallSec += secondsSince(measure_start);

        addResult(it, d.key, r);
        if (p.traced) {
            addLayers(it, d, r, *sys);
            const double phase1_before =
                it.layers["core.command_queue.drain.phase1_s"];
            addQueueLayers(it, *queue, reg);
            it.layers[std::string("alloc.launch_s.") + d.allocKey] +=
                it.layers["core.command_queue.drain.phase1_s"]
                - phase1_before;
            it.layers["core.pim_system.builds"] += 1;
            it.layers["core.pim_system.dpus"] += sys->sampleCount();
            addDpuTraceLayers(it, rec);
            addExportLayers(it, &rec, &reg);
        }
    }
    return it;
}

} // namespace perfbench
