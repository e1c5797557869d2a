/**
 * @file
 * serving_disagg: the Fig 18 disaggregated prefill/decode pipeline with
 * PIM-malloc-HW/SW managing the KV cache. 1000 requests arrive open
 * loop (Poisson, 50 req/s in simulated time) at a 2048-DPU system (32
 * ranks, one materialized DPU per rank); prefill runs the real KV
 * allocator on the simulated DPUs. The benchmark drives
 * DisaggServingTask (construct, then step() until done()).
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "telemetry/registry.hh"
#include "trace/trace.hh"
#include "workloads.hh"
#include "workloads/llm/serving_engine.hh"

namespace perfbench {

namespace {

namespace llm = pim::workloads::llm;

const llm::ServingScheme kScheme{pim::core::AllocatorKind::PimMallocHwSw};

llm::ServingEngineConfig
makeConfig(const Params &p)
{
    llm::ServingEngineConfig cfg;
    cfg.mode = llm::ServingMode::Disaggregated;
    cfg.simThreads = p.threads;
    cfg.base.seed = deriveSeed(p.seed, "serving/arrivals");
    cfg.base.arrivalRatePerSec = 50.0;
    if (p.smoke) {
        cfg.base.numRequests = 40;
        cfg.base.numDpus = 256;
    } else {
        cfg.base.numRequests = 1000;
        cfg.base.numDpus = 2048;
    }
    return cfg;
}

void
addResult(Iteration &it, const llm::ServingResult &r, unsigned requests)
{
    auto &S = it.sim;
    S["sim_tpot_p99_ms"] = r.tpotP99Ms;
    S["sim_ttft_p99_ms"] = r.ttftP99Ms;
    S["sim_tokens_per_s"] = r.throughputTokensPerSec;
    S["serving.tpot_p50_ms"] = r.tpotP50Ms;
    S["serving.ttft_p50_ms"] = r.ttftP50Ms;
    S["serving.makespan_s"] = r.makespanSec;
    S["serving.completed_requests"] = r.completedRequests;
    S["serving.lost_requests"] = r.lostRequests;
    S["serving.prefill_waves"] = r.prefillWaves;
    S["serving.peak_batch"] = r.peakBatchObserved;
    S["serving.max_batch"] = r.maxBatchLimit;
    S["serving.kv_shipped_bytes"] = static_cast<double>(r.kvShippedBytes);
    S["serving.overlap_s"] = r.overlapSeconds;
    S["serving.alloc_s_per_block"] = r.allocSecPerBlock;
    S["serving.tokens"] = std::round(r.throughputTokensPerSec * r.makespanSec);
    S["sim_s"] = r.makespanSec;
    it.attempted += requests;
    it.failed += requests - std::min(requests, r.completedRequests);
}

} // namespace

uint64_t
servingDisaggInputHash(uint64_t seed, bool smoke)
{
    Params p;
    p.seed = seed;
    p.smoke = smoke;
    // The engine draws the arrival trace from this seed; the other
    // trace parameters are fixed.
    const llm::ServingEngineConfig cfg = makeConfig(p);
    uint64_t h = hashValue(cfg.base.seed, fnv1a(nullptr, 0));
    h = hashValue(cfg.base.numRequests, h);
    return hashValue(cfg.base.arrivalRatePerSec, h);
}

Iteration
runServingDisagg(const Params &p, SpanLog *log)
{
    Iteration it;
    llm::ServingEngineConfig cfg = makeConfig(p);
    if (p.reference) {
        addResult(it, llm::ServingEngine(kScheme, cfg).run(),
                  cfg.base.numRequests);
        return it;
    }

    pim::trace::Recorder rec;
    pim::telemetry::Registry reg;
    if (p.traced)
        cfg.base.metrics = &reg;

    // The same system ServingEngine builds for a standalone run.
    pim::core::PimSystemConfig scfg;
    scfg.numDpus = cfg.base.numDpus;
    scfg.samplePerRank = true;
    scfg.simThreads = cfg.simThreads;

    const auto setup_start = Clock::now();
    std::unique_ptr<pim::core::PimSystem> sys;
    std::unique_ptr<pim::core::CommandQueue> queue;
    std::unique_ptr<llm::DisaggServingTask> task;
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
        Scope c(log, "workloads.llm.task_ctor");
        task = std::make_unique<llm::DisaggServingTask>(kScheme, cfg, *queue,
                                                        sys->all());
    }
    it.setupSec = secondsSince(setup_start);

    const auto measure_start = Clock::now();
    llm::ServingResult r;
    {
        Scope s(log, "measure");
        while (!task->done()) {
            Scope st(log, "workloads.llm.step");
            task->step();
        }
        r = task->result();
        Scope y(log, "core.command_queue.sync");
        // ServingEngine's standalone accounting: the joined queue's
        // makespan, the queue's transfer counter and hidden-work sum.
        const double tokens =
            std::round(r.throughputTokensPerSec * r.makespanSec);
        r.makespanSec = queue->sync();
        r.throughputTokensPerSec = tokens / std::max(r.makespanSec, 1e-9);
        r.kvShippedBytes = queue->transferredBytes();
        r.overlapSeconds = std::max(
            0.0, queue->launchWorkSeconds() + queue->copyWorkSeconds()
                     + queue->hostWorkSeconds() - r.makespanSec);
    }
    it.wallSec = secondsSince(measure_start);

    addResult(it, r, cfg.base.numRequests);
    if (p.traced) {
        auto &L = it.layers;
        addQueueLayers(it, *queue, reg);
        L["core.pim_system.builds"] += 1;
        L["core.pim_system.dpus"] += sys->sampleCount();
        addBuddyCacheLayers(it, *sys);
        pim::sim::TrafficStats traffic{};
        for (unsigned slot = 0; slot < sys->sampleCount(); ++slot)
            traffic.merge(sys->dpu(slot).traffic());
        L["sim.traffic.metadata_bytes"] =
            static_cast<double>(traffic.metadataBytes());
        L["sim.traffic.data_bytes"] = static_cast<double>(
            traffic.dataReadBytes + traffic.dataWriteBytes);
        addDpuTraceLayers(it, rec);
        addExportLayers(it, &rec, &reg);
    }
    return it;
}

} // namespace perfbench
