/**
 * @file
 * queue_storm: the queue-pressure command script on systems of several
 * shapes, each a fresh PimSystem with one materialized DPU per rank and
 * 1 MiB of MRAM per DPU. Every wave enqueues 32 full-system one-tasklet
 * launches, then one command per rank alternating between a one-tasklet
 * launch and a 64-byte async copy, and syncs. Nearly all host time is
 * the fixed cost of each Dpu::run, the drain, and the system builds.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "telemetry/registry.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct Shape
{
    unsigned ranks;
    unsigned waves;
};

std::vector<Shape>
shapes(bool smoke)
{
    if (smoke)
        return {{8, 2}, {16, 2}};
    return {{128, 32}, {512, 16}};
}

/** The seeded parts of the script: instruction counts of every
 *  full-system launch, and per wave which half of the ranks copies. */
struct Script
{
    /** fullInstrs[wave * 32 + i]: the i-th full-system launch. */
    std::vector<unsigned> fullInstrs;
    /** Ranks r with (r + parity[wave]) even launch; the others copy. */
    std::vector<unsigned> parity;
    /** Instructions of a per-rank launch. */
    unsigned rankInstrs;
};

Script
makeScript(uint64_t seed, unsigned waves)
{
    pim::util::Rng rng(deriveSeed(seed, "queue_storm/script"));
    Script s;
    for (unsigned i = 0; i < waves * 32; ++i)
        s.fullInstrs.push_back(16 + static_cast<unsigned>(rng.uniformInt(16)));
    for (unsigned w = 0; w < waves; ++w)
        s.parity.push_back(static_cast<unsigned>(rng.uniformInt(2)));
    s.rankInstrs = 16 + static_cast<unsigned>(rng.uniformInt(16));
    return s;
}

/** Per-slot launch counters; each slot's launch chain runs on one
 *  worker at a time, so a slot's counters are never shared. */
struct alignas(64) SlotCounters
{
    uint64_t runs = 0;
    uint64_t cycles = 0;
    uint64_t events = 0;
};

} // namespace

uint64_t
queueStormInputHash(uint64_t seed, bool smoke)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const Shape &sh : shapes(smoke)) {
        const Script s = makeScript(seed, sh.waves);
        h = fnv1a(s.fullInstrs.data(), s.fullInstrs.size() * sizeof(unsigned),
                  h);
        h = fnv1a(s.parity.data(), s.parity.size() * sizeof(unsigned), h);
        h = hashValue(s.rankInstrs, hashValue(sh, h));
    }
    return h;
}

Iteration
runQueueStorm(const Params &p, SpanLog *log)
{
    Iteration it;
    for (const Shape &shape : shapes(p.smoke)) {
        const Script script = makeScript(p.seed, shape.waves);
        const std::string k = std::to_string(shape.ranks) + "_ranks";
        pim::core::PimSystemConfig cfg;
        cfg.numDpus = shape.ranks * 64;
        cfg.dpusPerRank = 64;
        cfg.samplePerRank = true;
        // The launch bodies never touch DPU memory; small backing
        // stores keep thousands of materialized DPUs cheap.
        cfg.dpuCfg.mramBytes = 1u << 20;
        cfg.dpuCfg.wramBytes = 4u << 10;
        cfg.simThreads = p.threads;

        pim::telemetry::Registry reg;
        const auto setup_start = Clock::now();
        std::unique_ptr<pim::core::PimSystem> sys;
        std::unique_ptr<pim::core::CommandQueue> queue;
        std::vector<pim::core::DpuSet> rank_sets;
        {
            Scope s(log, "setup");
            {
                Scope b(log, "core.pim_system.build");
                sys = std::make_unique<pim::core::PimSystem>(cfg);
            }
            queue = std::make_unique<pim::core::CommandQueue>(*sys);
            if (p.traced)
                queue->attachMetrics(&reg);
            rank_sets.reserve(shape.ranks);
            for (unsigned r = 0; r < shape.ranks; ++r)
                rank_sets.push_back(sys->rank(r));
        }
        it.setupSec += secondsSince(setup_start);

        // With one materialized DPU per rank, rank r's DPU is global
        // index r * 64 in sample slot r.
        std::vector<SlotCounters> slots(sys->sampleCount());
        auto program = [&slots](unsigned instrs) {
            return [&slots, instrs](pim::sim::Dpu &dpu, unsigned global) {
                dpu.run(1, [instrs](pim::sim::Tasklet &t) {
                    t.execute(instrs);
                });
                SlotCounters &c = slots[global / 64];
                ++c.runs;
                c.cycles += dpu.lastElapsedCycles();
                c.events += dpu.lastSimEvents();
            };
        };

        const pim::core::DpuSet all = sys->all();
        uint64_t enqueued = 0;
        double makespan = 0.0;
        const auto measure_start = Clock::now();
        {
            Scope s(log, "measure");
            for (unsigned w = 0; w < shape.waves; ++w) {
                {
                    Scope e(log, "core.command_queue.enqueue");
                    for (unsigned i = 0; i < 32; ++i) {
                        queue->launchProgram(
                            all, program(script.fullInstrs[w * 32 + i]));
                    }
                    for (unsigned r = 0; r < shape.ranks; ++r) {
                        if ((r + script.parity[w]) % 2 == 0) {
                            queue->launchProgram(
                                rank_sets[r], program(script.rankInstrs));
                        } else {
                            queue->memcpyAsync(
                                rank_sets[r], 64,
                                pim::core::CopyDirection::HostToPim);
                        }
                    }
                    enqueued += 32 + shape.ranks;
                }
                Scope y(log, "core.command_queue.sync");
                makespan = queue->sync();
            }
        }
        it.wallSec += secondsSince(measure_start);

        SlotCounters total;
        for (const SlotCounters &c : slots) {
            total.runs += c.runs;
            total.cycles += c.cycles;
            total.events += c.events;
        }
        const uint64_t resolved = queue->drainStats().commands;
        if (resolved != enqueued) {
            it.errors.push_back("queue_storm/" + k + ": "
                                + std::to_string(enqueued)
                                + " commands enqueued but "
                                + std::to_string(resolved) + " resolved");
        }
        it.attempted += enqueued;
        it.failed += enqueued > resolved ? enqueued - resolved : 0;
        it.sim["queue_storm." + k + ".makespan_s"] = makespan;
        it.sim["queue_storm." + k + ".commands"] = static_cast<double>(enqueued);
        it.sim["queue_storm." + k + ".runs"] = static_cast<double>(total.runs);
        it.sim["queue_storm." + k + ".cycles"] =
            static_cast<double>(total.cycles);
        it.sim["queue_storm." + k + ".events"] =
            static_cast<double>(total.events);
        it.sim["sim_s"] += makespan;

        if (p.traced) {
            auto &L = it.layers;
            addQueueLayers(it, *queue, reg);
            L["core.pim_system.builds"] += 1;
            L["core.pim_system.dpus"] += sys->sampleCount();
            L["sim.dpu.runs"] += static_cast<double>(total.runs);
            L["sim.dpu.cycles"] += static_cast<double>(total.cycles);
            L["sim.dpu.events"] += static_cast<double>(total.events);
            addExportLayers(it, nullptr, &reg);
        }
    }
    return it;
}

} // namespace perfbench
