/**
 * @file
 * Simulator-throughput benchmark: how many simulation events (cycle
 * charges) per second of host wall time the per-DPU engine sustains.
 * This is the metric the horizon scheduler + fiber rework optimizes, and
 * it feeds the repo's perf trajectory (BENCH_*.json) via --json.
 *
 * Cases: 1-tasklet (uncontended) and 16-tasklet (mutex-contended)
 * alloc/free loops on PIM-malloc-SW, the paper's default design point,
 * plus a 16-tasklet pure lock/unlock pounding loop that isolates mutex
 * contention (the case PIM_SIM_MUTEX=queue accelerates).
 *
 * Throughput is reported in *model* events: real cycle charges plus the
 * spin re-checks the queue mutex mode elides analytically. Both mutex
 * modes simulate the identical event stream (same clocks, same
 * breakdowns), so model events/s is the honest cross-mode metric —
 * queue mode does the same simulation work per wall second, just
 * without materializing the spin charges.
 *
 * --trace/--occupancy replay each case once, untimed, with the
 * per-tasklet trace hook attached (PIM_TRACE_SIM builds), so the
 * measured loops stay undisturbed while the capture still shows how
 * the tasklets interleave.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/parallel_engine.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "sim/fiber.hh"
#include "sim/mutex.hh"
#include "sim/scheduler.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pim;

namespace {

struct CaseResult
{
    std::string name;
    unsigned tasklets = 0;
    uint64_t simEvents = 0;
    /** Spin re-checks elided by the queue mutex mode (0 under spin). */
    uint64_t elidedEvents = 0;
    /** simEvents + elidedEvents == the spin model's event count. */
    uint64_t modelEvents = 0;
    uint64_t simCycles = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
};

void
finishCase(CaseResult &res, double best)
{
    res.modelEvents = res.simEvents + res.elidedEvents;
    res.wallSeconds = best;
    res.eventsPerSec =
        best > 0.0 ? static_cast<double>(res.modelEvents) / best : 0.0;
}

CaseResult
runCase(unsigned tasklets, unsigned allocs, unsigned reps)
{
    CaseResult res;
    res.name = std::to_string(tasklets) + "-tasklet alloc/free";
    res.tasklets = tasklets;

    // Best-of-N wall time so a noisy host doesn't hide a regression.
    double best = -1.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // Fresh one-DPU system per rep (clean heap); timing wraps only
        // the per-DPU event loop, so the bench still measures the
        // scheduler, not the runtime plumbing.
        core::PimSystem sys(core::singleDpuConfig());
        sim::Dpu &dpu = sys.dpu(0);
        core::AllocatorOverrides ov;
        ov.numTasklets = tasklets;
        auto allocator =
            core::makeAllocator(dpu, core::AllocatorKind::PimMallocSw, ov);
        dpu.run(1, [&](sim::Tasklet &t) { allocator->init(t); });

        const auto start = std::chrono::steady_clock::now();
        dpu.run(tasklets, [&](sim::Tasklet &t) {
            for (unsigned i = 0; i < allocs; ++i) {
                const sim::MramAddr addr = allocator->malloc(t, 32);
                PIM_ASSERT(addr != sim::kNullAddr, "heap exhausted");
                const bool ok = allocator->free(t, addr);
                PIM_ASSERT(ok, "double free");
            }
        });
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        if (best < 0.0 || wall.count() < best) {
            best = wall.count();
            res.simEvents = dpu.lastSimEvents();
            res.simCycles = dpu.lastElapsedCycles();
            const sim::SimMutex *m = allocator->contentionMutex();
            res.elidedEvents = m != nullptr ? m->elidedSpinEvents() : 0;
        }
    }
    finishCase(res, best);
    return res;
}

/**
 * Mutex-pounding loop: 16 tasklets fighting over one lock with a
 * critical section long enough that every blocked tasklet re-checks
 * many times per hold (the backoff batch caps at 256 instructions), the
 * pathological case for the spin model — nearly all charges are
 * busy-wait re-checks. This is the scenario the parked-waiter queue
 * mode targets: it elides those charges while reproducing their timing
 * analytically, so the identical simulation costs a fraction of the
 * host work.
 */
CaseResult
runMutexCase(unsigned tasklets, unsigned iters, unsigned reps)
{
    CaseResult res;
    res.name = std::to_string(tasklets) + "-tasklet contended mutex";
    res.tasklets = tasklets;

    double best = -1.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        sim::Dpu dpu;
        sim::SimMutex mutex; // default mode: PIM_SIM_MUTEX

        const auto start = std::chrono::steady_clock::now();
        dpu.run(tasklets, [&](sim::Tasklet &t) {
            for (unsigned i = 0; i < iters; ++i) {
                mutex.lock(t);
                t.execute(3000 + 100 * (t.id() % 4));
                mutex.unlock(t);
                t.execute(60);
            }
        });
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        if (best < 0.0 || wall.count() < best) {
            best = wall.count();
            res.simEvents = dpu.lastSimEvents();
            res.simCycles = dpu.lastElapsedCycles();
            res.elidedEvents = mutex.elidedSpinEvents();
        }
    }
    finishCase(res, best);
    return res;
}

/**
 * Queue-pressure result: how fast the command-queue *runtime* drains a
 * storm of tiny commands on a multi-thousand-rank system, where the
 * per-command orchestration (chain build, slot→rank folding, arenas)
 * dominates and the simulated DPU work is negligible. This is the case
 * the O(slots) partition fold accelerates.
 */
struct QueuePressureResult
{
    unsigned ranks = 0;
    unsigned waves = 0;
    uint64_t commands = 0;
    /** End-to-end wall of the command script (enqueue + drains). */
    double wallSeconds = 0.0;
    /** Cumulative drain phase walls (CommandQueue::drainStats): launch
     *  bodies, then the sequential fold. */
    double phase1Sec = 0.0;
    double phase2Sec = 0.0;
    double commandsPerSec = 0.0;
    /** Simulated makespan — deterministic, identical across thread
     *  counts (the fidelity cross-check). */
    double simSeconds = 0.0;
};

QueuePressureResult
runQueuePressure(unsigned ranks, unsigned waves, unsigned reps)
{
    QueuePressureResult res;
    res.ranks = ranks;
    res.waves = waves;

    double best = -1.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        core::PimSystemConfig cfg;
        cfg.numDpus = ranks * 64;
        cfg.dpusPerRank = 64;
        cfg.samplePerRank = true; // one materialized DPU per rank
        // The launch bodies never touch DPU memory; small backing
        // stores keep thousands of materialized DPUs cheap.
        cfg.dpuCfg.mramBytes = 1u << 20;
        cfg.dpuCfg.wramBytes = 4u << 10;
        core::PimSystem sys(cfg);
        core::CommandQueue queue(sys);
        const core::DpuSet all = sys.all();
        std::vector<core::DpuSet> rank_sets;
        rank_sets.reserve(ranks);
        for (unsigned r = 0; r < ranks; ++r)
            rank_sets.push_back(sys.rank(r));

        const auto start = std::chrono::steady_clock::now();
        double makespan = 0.0;
        for (unsigned w = 0; w < waves; ++w) {
            // A few full-system launches (the worst case for the old
            // O(ranks x slots) fold) ...
            for (unsigned i = 0; i < 32; ++i) {
                queue.launch(all, 1,
                             [i](sim::Tasklet &t, unsigned global) {
                                 t.execute(16 + (global + i) % 7);
                             });
            }
            // ... and a storm of single-rank tiny launches and async
            // copies, alternating, like a sharded serving step.
            for (unsigned r = 0; r < ranks; ++r) {
                if (r % 2 == 0) {
                    queue.launch(rank_sets[r], 1,
                                 [](sim::Tasklet &t, unsigned) {
                                     t.execute(24);
                                 });
                } else {
                    queue.memcpyAsync(rank_sets[r], 64,
                                      core::CopyDirection::HostToPim);
                }
            }
            makespan = queue.sync();
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        if (best < 0.0 || wall.count() < best) {
            best = wall.count();
            const core::CommandQueue::DrainStats &st =
                queue.drainStats();
            res.commands = st.commands;
            res.phase1Sec = st.phase1Sec;
            res.phase2Sec = st.phase2Sec;
            res.simSeconds = makespan;
        }
    }
    res.wallSeconds = best;
    res.commandsPerSec = best > 0.0
        ? static_cast<double>(res.commands) / best : 0.0;
    return res;
}

#ifdef PIM_TRACE_SIM
/** Replay one case, untimed, recording per-tasklet spans into @p rec. */
void
tracedCase(unsigned tasklets, unsigned allocs, trace::Recorder &rec)
{
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    core::AllocatorOverrides ov;
    ov.numTasklets = tasklets;
    auto allocator =
        core::makeAllocator(dpu, core::AllocatorKind::PimMallocSw, ov);
    dpu.run(1, [&](sim::Tasklet &t) { allocator->init(t); });
    dpu.attachTraceRecorder(&rec);
    dpu.setTraceOrigin(0.0);
    dpu.run(tasklets, [&](sim::Tasklet &t) {
        for (unsigned i = 0; i < allocs; ++i) {
            const sim::MramAddr addr = allocator->malloc(t, 32);
            PIM_ASSERT(addr != sim::kNullAddr, "heap exhausted");
            const bool ok = allocator->free(t, addr);
            PIM_ASSERT(ok, "double free");
        }
    });
}
#endif

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "allocs,reps,qp-ranks,qp-waves,json,trace,occupancy,"
                  "metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);
    const unsigned allocs =
        static_cast<unsigned>(cli.getInt("allocs", 2048));
    const unsigned reps = static_cast<unsigned>(cli.getInt("reps", 3));
    const unsigned qp_ranks =
        static_cast<unsigned>(cli.getInt("qp-ranks", 2048));
    const unsigned qp_waves =
        static_cast<unsigned>(cli.getInt("qp-waves", 4));
    const std::string &json_path = knobs.jsonPath;

    // Run configuration, recorded alongside every result so BENCH_*
    // trajectories from different knob settings are distinguishable.
    const char *sched_name =
        sim::TaskletScheduler::policyFromEnv(std::getenv("PIM_SIM_SCHED"))
                == sim::TaskletScheduler::Policy::Horizon
            ? "horizon" : "naive";
    const char *mutex_mode =
        sim::SimMutex::modeName(sim::SimMutex::defaultMode());
    const unsigned threads = core::resolveSimThreads(knobs.threads);
    const bool affinity = core::ParallelDpuEngine::affinityFromEnv(
        std::getenv("PIM_SIM_AFFINITY"));

    std::vector<CaseResult> results;
    for (unsigned tasklets : {1u, 16u})
        results.push_back(runCase(tasklets, allocs, reps));
    results.push_back(runMutexCase(16, allocs / 4, reps));

    util::Table table(std::string("Simulator throughput (fiber backend: ")
                      + sim::Fiber::backendName() + ", sched: "
                      + sched_name + ", mutex: " + mutex_mode
                      + ", best of " + std::to_string(reps) + ")");
    table.setHeader({"Case", "Charged", "Elided", "Model events",
                     "Sim cycles", "Wall (ms)", "Events/sec"});
    for (const auto &r : results) {
        table.addRow({r.name, std::to_string(r.simEvents),
                      std::to_string(r.elidedEvents),
                      std::to_string(r.modelEvents),
                      std::to_string(r.simCycles),
                      util::Table::num(r.wallSeconds * 1e3, 2),
                      util::Table::num(r.eventsPerSec / 1e6, 2) + "M"});
    }
    table.print(std::cout);

    // Queue pressure: the command-queue runtime itself under a storm of
    // tiny commands (drain scaling, not DPU simulation).
    const QueuePressureResult qp =
        runQueuePressure(qp_ranks, qp_waves, reps);
    util::Table qp_table(
        std::string("Queue pressure (") + std::to_string(qp.ranks)
        + " ranks, "
        + std::to_string(qp.waves) + " waves, best of "
        + std::to_string(reps) + ")");
    qp_table.setHeader({"Commands", "Wall (ms)", "Phase1 (ms)",
                        "Phase2 (ms)", "Commands/sec", "Sim (s)"});
    qp_table.addRow({std::to_string(qp.commands),
                     util::Table::num(qp.wallSeconds * 1e3, 2),
                     util::Table::num(qp.phase1Sec * 1e3, 2),
                     util::Table::num(qp.phase2Sec * 1e3, 2),
                     util::Table::num(qp.commandsPerSec / 1e3, 1) + "K",
                     util::Table::num(qp.simSeconds, 6)});
    qp_table.print(std::cout);

    // The measured loops run on bare DPUs (no CommandQueue), so the
    // registries are filled from the best-rep results afterwards: the
    // timed region stays untouched whether metrics are on or off.
    telemetry::MetricSet metrics(knobs.metrics);
    for (const auto &r : results) {
        telemetry::Registry *met = metrics.add(r.name);
        if (met == nullptr)
            continue;
        met->counter("sim.events").add(r.simEvents);
        met->counter("sim.elided_spin_events").add(r.elidedEvents);
        met->counter("sim.model_events").add(r.modelEvents);
        met->counter("sim.cycles").add(r.simCycles);
    }
    telemetry::printMetrics(std::cout, metrics, knobs.metrics);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot open " << json_path << "\n";
            return 1;
        }
        util::JsonWriter j(out);
        j.beginObject();
        j.key("bench").value("sim_throughput");
        j.key("fiber_backend").value(sim::Fiber::backendName());
        j.key("sched").value(sched_name);
        j.key("mutex_mode").value(mutex_mode);
        j.key("threads").value(threads);
        j.key("affinity").value(affinity);
        j.key("allocs_per_tasklet").value(allocs);
        j.key("reps").value(reps);
        j.key("cases").beginArray();
        for (const auto &r : results) {
            j.beginObject();
            j.key("name").value(r.name);
            j.key("tasklets").value(r.tasklets);
            j.key("sim_events").value(r.simEvents);
            j.key("elided_spin_events").value(r.elidedEvents);
            j.key("model_events").value(r.modelEvents);
            j.key("sim_cycles").value(r.simCycles);
            j.key("wall_seconds").value(r.wallSeconds);
            j.key("events_per_sec").value(r.eventsPerSec);
            j.endObject();
        }
        j.endArray();
        j.key("queue_pressure").beginObject();
        j.key("ranks").value(qp.ranks);
        j.key("waves").value(qp.waves);
        j.key("commands").value(qp.commands);
        j.key("wall_seconds").value(qp.wallSeconds);
        j.key("phase1_sec").value(qp.phase1Sec);
        j.key("phase2_sec").value(qp.phase2Sec);
        j.key("commands_per_sec").value(qp.commandsPerSec);
        j.key("sim_seconds").value(qp.simSeconds);
        j.endObject();
        telemetry::writeMetricsJson(j, metrics);
        j.endObject();
        std::cout << "\nJSON written to " << json_path << "\n";
    }

    if (knobs.wantsTrace()) {
#ifdef PIM_TRACE_SIM
        trace::RecorderSet recorders(true);
        for (const auto &r : results)
            tracedCase(r.tasklets, allocs, *recorders.add(r.name));
        if (!trace::emitReports(std::cout, recorders, knobs.occupancy,
                                knobs.tracePath, "Tasklet occupancy: "))
            return 1;
#else
        std::cerr << "tasklet tracing was compiled out "
                     "(rebuild with -DPIM_TRACE_SIM=ON)\n";
        return 1;
#endif
    }
    return 0;
}
