#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "telemetry/registry.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

double
counterValue(const pim::telemetry::Registry &reg, const char *name)
{
    const auto &cs = reg.counters();
    const auto it = cs.find(name);
    return it == cs.end() ? 0.0 : static_cast<double>(it->second.value());
}

} // namespace

void
addQueueLayers(Iteration &it, const pim::core::CommandQueue &queue,
               const pim::telemetry::Registry &reg)
{
    const pim::core::CommandQueue::DrainStats &st = queue.drainStats();
    auto &L = it.layers;
    L["core.command_queue.commands"] += static_cast<double>(st.commands);
    L["core.command_queue.drains"] += static_cast<double>(st.drains);
    L["core.command_queue.drain.phase1_s"] += st.phase1Sec;
    L["core.command_queue.drain.phase2_s"] += st.phase2Sec;
    L["core.command_queue.drain.wall_s"] += st.wallSec;
    L["core.command_queue.failed"] +=
        counterValue(reg, "queue.commands_failed");
    L["core.command_queue.transfer_retries"] +=
        counterValue(reg, "queue.transfer_retries");
    L["core.command_queue.sim_events"] +=
        counterValue(reg, "queue.sim_events");
}

void
traceDpus(pim::core::PimSystem &sys, pim::trace::Recorder &rec)
{
#ifdef PIM_TRACE_SIM
    for (unsigned slot = 0; slot < sys.sampleCount(); ++slot)
        sys.dpu(slot).attachTraceRecorder(&rec, sys.globalIndex(slot));
#else
    static_cast<void>(sys);
    static_cast<void>(rec);
#endif
}

void
addBuddyCacheLayers(Iteration &it, pim::core::PimSystem &sys)
{
    for (unsigned slot = 0; slot < sys.sampleCount(); ++slot) {
        const auto &cs = sys.dpu(slot).buddyCache().stats();
        it.layers["sim.buddy_cache.lookups"] += static_cast<double>(cs.lookups);
        it.layers["sim.buddy_cache.hits"] += static_cast<double>(cs.hits);
    }
}

void
addDpuTraceLayers(Iteration &it, const pim::trace::Recorder &rec)
{
    // Lane "dpu<g>/t<k>" -> "dpu<g>"; a run's tasklet spans share t0.
    std::map<int, std::string> dpu_of_lane;
    std::map<std::pair<std::string, double>, uint64_t> run_cycles;
    for (const pim::trace::Span &s : rec.spans()) {
        if (!pim::trace::isCustomLane(s.lane))
            continue;
        auto lane = dpu_of_lane.find(s.lane);
        if (lane == dpu_of_lane.end()) {
            const std::string name = rec.laneName(s.lane);
            lane = dpu_of_lane
                       .emplace(s.lane, name.substr(0, name.find('/')))
                       .first;
        }
        uint64_t &c = run_cycles[{lane->second, s.t0}];
        c = std::max(c, s.cycles);
    }
    uint64_t cycles = 0;
    for (const auto &[key, c] : run_cycles)
        cycles += c;
    it.layers["sim.dpu.runs"] += static_cast<double>(run_cycles.size());
    it.layers["sim.dpu.cycles"] += static_cast<double>(cycles);
}

void
addExportLayers(Iteration &it, const pim::trace::Recorder *rec,
                const pim::telemetry::Registry *reg)
{
    if (rec != nullptr) {
        const auto t0 = Clock::now();
        std::ostringstream out;
        pim::trace::writeChromeTrace(out, *rec);
        it.layers["trace.export_s"] += secondsSince(t0);
    }
    if (reg != nullptr) {
        const auto t0 = Clock::now();
        std::ostringstream out;
        pim::util::JsonWriter j(out);
        reg->writeJson(j);
        it.layers["telemetry.export_s"] += secondsSince(t0);
    }
}

} // namespace perfbench
