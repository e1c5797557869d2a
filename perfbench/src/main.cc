/**
 * @file
 * perfbench: runs one workload in this process for a fixed host-time
 * budget and prints one JSON object (the last line of stdout) with the
 * run configuration, per-iteration host times, the simulated results,
 * per-layer values (traced runs) and every correctness failure found.
 * perfbench/run.py builds this program, runs it and reports.
 *
 *   perfbench --workload alloc_mix --seed 1 --seconds 10 --trace 0 \
 *             --threads 4 [--smoke] [--input-hash] [--spans-out FILE]
 */

#include <cstdlib>
#include <cstring>
#include <limits>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/parallel_engine.hh"
#include "sim/dpu.hh"
#include "sim/mutex.hh"
#include "sim/scheduler.hh"
#include "util/json.hh"
#include "workloads.hh"

extern char **environ;

namespace {

using namespace perfbench;

struct WorkloadDef
{
    const char *name;
    Iteration (*run)(const Params &, SpanLog *);
    uint64_t (*inputHash)(uint64_t, bool);
    /** False when the workload has no thread or reference dimension
     *  (alloc_mix simulates one DPU on the calling thread). */
    bool hasReference;
};

const WorkloadDef kWorkloads[] = {
    {"alloc_mix", runAllocMix, allocMixInputHash, false},
    {"graph_ingest", runGraphIngest, graphIngestInputHash, true},
    {"serving_disagg", runServingDisagg, servingDisaggInputHash, true},
    {"queue_storm", runQueueStorm, queueStormInputHash, true},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 0;
    bool smoke = false;
    bool inputHash = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads N] [--smoke] "
                 "[--input-hash] [--spans-out FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = val();
            else if (k == "--seed")
                a.seed = std::stoull(val());
            else if (k == "--seconds")
                a.seconds = std::stod(val());
            else if (k == "--trace")
                a.trace = std::stoi(val()) != 0;
            else if (k == "--threads")
                a.threads = static_cast<unsigned>(std::stoul(val()));
            else if (k == "--smoke")
                a.smoke = true;
            else if (k == "--input-hash")
                a.inputHash = true;
            else if (k == "--spans-out")
                a.spansOut = val();
            else
                usage("unknown argument " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.threads == 0)
        a.threads = pim::core::resolveSimThreads(0);
    return a;
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Effective value of every PIM_SIM_* knob and build property; warns
 *  on stderr for each PIM_SIM_* variable set in the environment. */
std::vector<std::pair<std::string, std::string>>
runConfig(const Args &a)
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "PIM_SIM_", 8) == 0) {
            std::cerr << "perfbench: warning: " << *e
                      << " is set; results are not comparable with "
                         "default-knob runs\n";
        }
    }
    using pim::sim::TaskletScheduler;
    const bool naive =
        TaskletScheduler::policyFromEnv(std::getenv("PIM_SIM_SCHED"))
        == TaskletScheduler::Policy::NaiveReference;
    const bool affinity = pim::core::ParallelDpuEngine::affinityFromEnv(
        std::getenv("PIM_SIM_AFFINITY"));
    return {
        {"PIM_SIM_THREADS", std::to_string(a.threads)},
        {"PIM_SIM_SCHED", naive ? "naive" : "horizon"},
        {"PIM_SIM_MUTEX", pim::sim::SimMutex::modeName(
                              pim::sim::SimMutex::defaultMode())},
        {"PIM_SIM_DRAIN",
         pim::core::CommandQueue::drainModeName(
             pim::core::CommandQueue::defaultDrainMode())},
        {"PIM_SIM_AFFINITY", affinity ? "1" : "0"},
#ifdef PIM_SIM_FIBER_UCONTEXT
        {"fiber_backend", "ucontext"},
#else
        {"fiber_backend", "asm"},
#endif
#ifdef PIM_TRACE_SIM
        {"PIM_TRACE_SIM", "ON"},
#else
        {"PIM_TRACE_SIM", "OFF"},
#endif
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", compilerName()},
    };
}

/** Keys whose values differ between two sim maps (at most 5). */
std::vector<std::string>
simDiff(const std::map<std::string, double> &a,
        const std::map<std::string, double> &b)
{
    const double missing = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::string> out;
    auto note = [&](const std::string &k, double x, double y) {
        if (out.size() < 5) {
            std::ostringstream s;
            s.precision(17);
            s << k << ": " << x << " vs " << y;
            out.push_back(s.str());
        }
    };
    for (const auto &[k, v] : a) {
        const auto it = b.find(k);
        if (it == b.end())
            note(k, v, missing);
        else if (!(it->second == v))
            note(k, v, it->second);
    }
    for (const auto &[k, v] : b) {
        if (a.find(k) == a.end())
            note(k, missing, v);
    }
    return out;
}

/**
 * Host cost of one empty one-tasklet Dpu::run on a fresh DPU: the
 * fixed price every launch pays (fiber and scheduler set-up). Median
 * over batches, in microseconds.
 */
double
probeRunFixedUs(bool smoke)
{
    pim::sim::DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    cfg.wramBytes = 4u << 10;
    pim::sim::Dpu dpu(cfg);
    const unsigned batch = smoke ? 50 : 1000;
    std::vector<double> per_run;
    for (int b = 0; b < 7; ++b) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < batch; ++i)
            dpu.run(1, [](pim::sim::Tasklet &) {});
        per_run.push_back(secondsSince(t0) / batch * 1e6);
    }
    return median(per_run);
}

/** Ratios and rates derived from a traced iteration's raw sums. */
void
deriveLayers(std::map<std::string, double> &L)
{
    auto get = [&](const std::string &k) {
        const auto it = L.find(k);
        return it == L.end() ? 0.0 : it->second;
    };
    auto ratio = [&](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    // Queue-driven workloads simulate DPUs inside drain phase 1.
    if (L.find("sim.dpu.run_s") == L.end())
        L["sim.dpu.run_s"] = get("core.command_queue.drain.phase1_s");
    if (L.find("sim.dpu.events") == L.end())
        L["sim.dpu.events"] = get("core.command_queue.sim_events");
    L["core.command_queue.commands_per_s"] =
        ratio(get("core.command_queue.commands"),
              get("core.command_queue.drain.wall_s"));
    L["sim.dpu.model_events_per_s"] =
        ratio(get("sim.dpu.events"), get("sim.dpu.run_s"));
    L["sim.dpu.host_ns_per_event"] =
        ratio(get("sim.dpu.run_s") * 1e9, get("sim.dpu.events"));
    const double mallocs = get("alloc.malloc_calls");
    L["alloc.frontend_ratio"] = ratio(get("alloc.serviced.frontend"), mallocs);
    L["alloc.backend_ratio"] = ratio(get("alloc.serviced.backend"), mallocs);
    L["alloc.bypass_ratio"] = ratio(get("alloc.serviced.bypass"), mallocs);
    for (const char *d : {"strawman", "sw", "hwsw"}) {
        const std::string k = d;
        L["alloc.host_ns_per_op." + k] =
            ratio(get("alloc.launch_s." + k) * 1e9, get("alloc.ops." + k));
    }
    L["sim.buddy_cache.hit_ratio"] =
        ratio(get("sim.buddy_cache.hits"), get("sim.buddy_cache.lookups"));
}

/** Every span of @p log: name, start, end (seconds from the log's
 *  origin) and the index of its parent (-1 for a root). */
bool
writeSpans(const std::string &path, const SpanLog &log)
{
    std::ofstream f(path);
    if (!f)
        return false;
    pim::util::JsonWriter j(f);
    j.beginObject();
    j.key("spans").beginArray();
    for (const SpanLog::Span &s : log.spans()) {
        j.beginObject();
        j.key("name").value(s.name);
        j.key("t0").value(s.t0);
        j.key("t1").value(s.t1);
        j.key("parent").value(s.parent);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    f << "\n";
    return static_cast<bool>(f);
}

/** Per span name: count, total and self seconds. */
void
writeSpanSummary(pim::util::JsonWriter &j, const SpanLog &log)
{
    struct Sum
    {
        uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Sum> sums;
    for (size_t i = 0; i < log.spans().size(); ++i) {
        const SpanLog::Span &s = log.spans()[i];
        Sum &sum = sums[s.name];
        ++sum.count;
        sum.total += s.t1 - s.t0;
        sum.self += log.selfSeconds(i);
    }
    j.beginObject();
    for (const auto &[name, sum] : sums) {
        j.key(name).beginObject();
        j.key("count").value(sum.count);
        j.key("total_s").value(sum.total);
        j.key("self_s").value(sum.self);
        j.endObject();
    }
    j.endObject();
}

void
writeMap(pim::util::JsonWriter &j, const std::map<std::string, double> &m)
{
    j.beginObject();
    for (const auto &[k, v] : m)
        j.key(k).value(v);
    j.endObject();
}

void
writeList(pim::util::JsonWriter &j, const std::vector<double> &v)
{
    j.beginArray();
    for (const double x : v)
        j.value(x);
    j.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef *wl = nullptr;
    for (const WorkloadDef &w : kWorkloads) {
        if (args.workload == w.name)
            wl = &w;
    }
    if (wl == nullptr)
        usage("unknown workload " + args.workload);

    if (args.inputHash) {
        std::cout << wl->inputHash(args.seed, args.smoke) << "\n";
        return 0;
    }

    const auto config = runConfig(args);
    Params p;
    p.seed = args.seed;
    p.threads = args.threads;
    p.smoke = args.smoke;

    // Traced runs alternate untraced and traced iterations: the
    // untraced ones (all but the first, which warms process-wide memos
    // such as the serving engine's allocator calibration) are the base
    // of trace.overhead_frac, and every one is compared with the traced
    // results.
    const unsigned min_iters = args.smoke ? 1 : (args.trace ? 2 : 3);
    std::vector<Iteration> iters;
    std::vector<Iteration> untraced;
    std::vector<SpanLog> logs;
    const auto start = Clock::now();
    while (iters.size() < min_iters || secondsSince(start) < args.seconds) {
        if (args.trace) {
            untraced.push_back(wl->run(p, nullptr));
            Params tp = p;
            tp.traced = true;
            logs.emplace_back();
            iters.push_back(wl->run(tp, &logs.back()));
        } else {
            iters.push_back(wl->run(p, nullptr));
        }
    }
    const double peak_rss = peakRssMiB();

    std::vector<std::string> errors;
    for (const auto *group : {&iters, &untraced}) {
        for (const Iteration &it : *group)
            errors.insert(errors.end(), it.errors.begin(), it.errors.end());
    }
    for (size_t i = 1; i < iters.size(); ++i) {
        for (const std::string &d : simDiff(iters[0].sim, iters[i].sim))
            errors.push_back("iteration " + std::to_string(i)
                             + " differs from iteration 0: " + d);
    }
    for (const Iteration &u : untraced) {
        for (const std::string &d : simDiff(u.sim, iters[0].sim))
            errors.push_back("traced run differs from untraced run: " + d);
    }
    if (wl->hasReference) {
        // The reference path (runGraphUpdate / ServingEngine::run /
        // the same script) at one thread must reproduce the measured
        // stepper run at the requested thread count exactly.
        Params ref = p;
        ref.threads = 1;
        ref.traced = false;
        ref.reference = true;
        const Iteration r = wl->run(ref, nullptr);
        for (const std::string &d : simDiff(r.sim, iters[0].sim))
            errors.push_back("1-thread reference differs from "
                             + std::to_string(args.threads)
                             + "-thread run: " + d);
    }

    std::map<std::string, double> layers;
    if (args.trace) {
        std::map<std::string, std::vector<double>> samples;
        for (size_t i = 0; i < iters.size(); ++i) {
            std::map<std::string, double> L = iters[i].layers;
            const SpanLog &log = logs[i];
            // Layer calls are the direct children of "measure".
            L["unattributed_s"] = log.selfSecondsOf("measure");
            for (const char *name :
                 {"core.pim_system.build", "workloads.graph.task_ctor",
                  "workloads.llm.task_ctor", "core.command_queue.enqueue",
                  "core.command_queue.sync", "workloads.graph.step",
                  "workloads.llm.step"})
                L[std::string(name) + "_s"] = log.totalSeconds(name);
            deriveLayers(L);
            for (const auto &[k, v] : L)
                samples[k].push_back(v);
        }
        for (auto &[k, v] : samples)
            layers[k] = median(v);
        std::vector<double> traced_wall, untraced_wall;
        for (size_t i = 0; i < iters.size(); ++i) {
            traced_wall.push_back(iters[i].wallSec);
            if (i > 0 || untraced.size() == 1)
                untraced_wall.push_back(untraced[i].wallSec);
        }
        layers["trace.overhead_frac"] =
            median(traced_wall) / median(untraced_wall) - 1.0;
        layers["sim.dpu.run_fixed_us"] = probeRunFixedUs(args.smoke);
    }

    uint64_t attempted = 0, failed = 0;
    std::vector<double> setup_s, wall_s;
    for (const Iteration &it : iters) {
        attempted += it.attempted;
        failed += it.failed;
        setup_s.push_back(it.setupSec);
        wall_s.push_back(it.wallSec);
    }

    std::ostringstream out;
    pim::util::JsonWriter j(out);
    j.beginObject();
    j.key("workload").value(wl->name);
    j.key("seed").value(args.seed);
    j.key("threads").value(args.threads);
    j.key("trace").value(args.trace);
    j.key("smoke").value(args.smoke);
    j.key("config").beginObject();
    for (const auto &[k, v] : config)
        j.key(k).value(v);
    j.endObject();
    j.key("iterations").value(static_cast<uint64_t>(iters.size()));
    j.key("setup_s");
    writeList(j, setup_s);
    j.key("wall_s");
    writeList(j, wall_s);
    if (args.trace) {
        std::vector<double> u;
        for (const Iteration &it : untraced)
            u.push_back(it.wallSec);
        j.key("untraced_wall_s");
        writeList(j, u);
    }
    j.key("peak_rss_mb").value(peak_rss);
    j.key("attempted").value(attempted);
    j.key("failed").value(failed);
    j.key("sim");
    writeMap(j, iters[0].sim);
    j.key("layers");
    writeMap(j, layers);
    if (!logs.empty()) {
        j.key("spans");
        writeSpanSummary(j, logs.back());
        if (!args.spansOut.empty() && !writeSpans(args.spansOut, logs.back()))
            errors.push_back("cannot write " + args.spansOut);
    }
    j.key("errors").beginArray();
    for (const std::string &e : errors)
        j.value(e);
    j.endArray();
    j.endObject();
    // One line: the reader takes the last line of stdout.
    std::string doc = out.str();
    for (char &c : doc) {
        if (c == '\n')
            c = ' ';
    }
    std::cout << doc << "\n";
    return errors.empty() ? 0 : 1;
}
