/**
 * @file
 * The four perfbench workloads. Each call runs one iteration — set-up,
 * then the measured phase — on fresh simulator objects, and returns its
 * host times, simulated results and (when traced) per-layer values.
 * The README in this directory says why each workload is there.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "harness.hh"

namespace pim::core {
class CommandQueue;
class PimSystem;
}

namespace pim::telemetry {
class Registry;
}

namespace pim::trace {
class Recorder;
}

namespace perfbench {

Iteration runAllocMix(const Params &p, SpanLog *log);
Iteration runGraphIngest(const Params &p, SpanLog *log);
Iteration runServingDisagg(const Params &p, SpanLog *log);
Iteration runQueueStorm(const Params &p, SpanLog *log);

/** Hash of the inputs a workload generates from @p seed. */
uint64_t allocMixInputHash(uint64_t seed, bool smoke);
uint64_t graphIngestInputHash(uint64_t seed, bool smoke);
uint64_t servingDisaggInputHash(uint64_t seed, bool smoke);
uint64_t queueStormInputHash(uint64_t seed, bool smoke);

/**
 * Add one queue's drain statistics and its attached registry's queue.*
 * counters to the command-queue layer values of @p it.
 */
void addQueueLayers(Iteration &it, const pim::core::CommandQueue &queue,
                    const pim::telemetry::Registry &reg);

/** Attach @p rec to every materialized DPU of @p sys (per-tasklet
 *  spans of every run; a no-op when PIM_TRACE_SIM is compiled out). */
void traceDpus(pim::core::PimSystem &sys, pim::trace::Recorder &rec);

/** Add the buddy-cache lookups and hits of every materialized DPU of
 *  @p sys to the sim.buddy_cache layer values of @p it. */
void addBuddyCacheLayers(Iteration &it, pim::core::PimSystem &sys);

/**
 * Add the Dpu::run count and summed makespan cycles found in @p rec's
 * per-tasklet spans (one span per tasklet per run, all tasklets of a
 * run sharing a start time) to the sim.dpu layer values of @p it.
 */
void addDpuTraceLayers(Iteration &it, const pim::trace::Recorder &rec);

/** Time writing @p rec / @p reg out (trace.export_s,
 *  telemetry.export_s). Either may be null. */
void addExportLayers(Iteration &it, const pim::trace::Recorder *rec,
                     const pim::telemetry::Registry *reg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
