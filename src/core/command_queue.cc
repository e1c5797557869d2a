#include "core/command_queue.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/injector.hh"
#include "telemetry/registry.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace pim::core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

CommandQueue::CommandQueue(PimSystem &sys)
    : sys_(sys), rankT_(sys.numRanks(), 0.0)
{
}

TenantId
CommandQueue::addTenant(const std::string &name)
{
    PIM_ASSERT(!name.empty(), "tenant needs a display name");
    const TenantId id = static_cast<TenantId>(hostT_.size());
    hostT_.push_back(0.0);
    tenantNames_.push_back(name);
    return id;
}

void
CommandQueue::attachRecorder(trace::Recorder *rec)
{
    drain();
    rec_ = rec;
    traceEpoch_ = 0.0;
    if (rec_ != nullptr)
        rec_->setRankCount(sys_.numRanks());
}

void
CommandQueue::attachMetrics(telemetry::Registry *met)
{
    drain();
    met_ = met;
    qm_ = QueueCounters{};
    tenantMet_.clear();
    rankSid_.clear();
    busSid_ = depthSid_ = ranksBusySid_ = -1;
    if (met_ == nullptr)
        return;
    qm_.issued = &met_->counter("queue.commands_issued");
    qm_.resolved = &met_->counter("queue.commands_resolved");
    qm_.failed = &met_->counter("queue.commands_failed");
    qm_.poisoned = &met_->counter("queue.poisoned_deps");
    qm_.busBytes = &met_->counter("queue.bus_bytes");
    qm_.retries = &met_->counter("queue.transfer_retries");
    qm_.simEvents = &met_->counter("queue.sim_events");
    qm_.drainPhase1 = &met_->hostGauge("queue.drain.phase1_sec");
    qm_.drainPhase2 = &met_->hostGauge("queue.drain.phase2_sec");
    qm_.drainCps = &met_->hostGauge("queue.drain.commands_per_sec");
    telemetry::TimelineSampler &smp = met_->sampler();
    busSid_ = smp.series("util:bus");
    depthSid_ = smp.levelSeries("depth:queue");
    ranksBusySid_ = smp.series("ranks_busy");
    rankSid_.reserve(sys_.numRanks());
    for (unsigned r = 0; r < sys_.numRanks(); ++r)
        rankSid_.push_back(smp.series("util:rank" + std::to_string(r)));
    ensureTenantMetrics();
}

void
CommandQueue::ensureTenantMetrics()
{
    telemetry::TimelineSampler &smp = met_->sampler();
    while (tenantMet_.size() < hostT_.size()) {
        const TenantId t = static_cast<TenantId>(tenantMet_.size());
        const std::string &name = tenantNames_[t];
        TenantMetrics tm;
        tm.hostSid = smp.series(t == kDefaultTenant
                                    ? "util:host"
                                    : "util:host:" + name);
        // Tenant 0 has no display name; "default" keeps its busy-rank
        // curve a first-class per-tenant track in single-tenant runs.
        tm.ranksBusySid = smp.series(
            "ranks_busy:" + (name.empty() ? "default" : name));
        if (t != kDefaultTenant) {
            tm.issued =
                &met_->counter("queue.commands_issued:" + name);
            tm.resolved =
                &met_->counter("queue.commands_resolved:" + name);
            tm.failed =
                &met_->counter("queue.commands_failed:" + name);
            tm.poisoned =
                &met_->counter("queue.poisoned_deps:" + name);
            tm.busBytes = &met_->counter("queue.bus_bytes:" + name);
            tm.retries =
                &met_->counter("queue.transfer_retries:" + name);
        }
        tenantMet_.push_back(tm);
    }
}

void
CommandQueue::attachFaultInjector(fault::FaultInjector *inj)
{
    drain();
    inj_ = inj;
    rankDeathTraced_.assign(inj_ != nullptr ? sys_.numRanks() : 0, false);
}

void
CommandQueue::traceRankDeath(unsigned r, double failAtSec)
{
    // One zero-width marker per rank at the death time, so the trace
    // shows *why* the lane goes quiet.
    if (rankDeathTraced_[r])
        return;
    rankDeathTraced_[r] = true;
    if (rec_ == nullptr)
        return;
    trace::Span s;
    s.lane = trace::rankLane(r);
    s.name = "fault:rank-fail";
    s.t0 = s.t1 = traceEpoch_ + failAtSec;
    rec_->record(std::move(s));
}

int
CommandQueue::hostLane(TenantId t) const
{
    // Tenant 0 keeps the classic host lane; registered tenants issue on
    // their own resource lane so co-tenant traces stay readable.
    if (t == kDefaultTenant)
        return trace::kHostLane;
    return rec_->resourceLane("host:" + tenantNames_[t]);
}

double
CommandQueue::hostSeconds(TenantId t) const
{
    PIM_ASSERT(t < hostT_.size(), "unknown tenant ", t);
    return hostT_[t];
}

double
CommandQueue::rankReadySeconds(unsigned r) const
{
    PIM_ASSERT(r < rankT_.size(), "rank out of range");
    return rankT_[r];
}

Event
CommandQueue::enqueue(Command cmd)
{
    const Event id = static_cast<Event>(
        resolvedBase_ + resolved_.size() + pending_.size());
    if (cmd.after != kNoEvent) {
        // Fail fast on dependencies that could never name an earlier
        // command — resolving them against garbage timelines (negative
        // handles silently read as compacted history = 0.0) hides real
        // ordering bugs.
        PIM_ASSERT(cmd.after >= 0,
                   "CommandOptions::after = ", cmd.after,
                   " is not an Event handle (uninitialized or garbage "
                   "dependency; use kNoEvent for \"no dependency\")");
        PIM_ASSERT(cmd.after != id,
                   "command ", id, " depends on itself: "
                   "CommandOptions::after must name an earlier command");
        PIM_ASSERT(cmd.after < id,
                   "command ", id, " names the future event ", cmd.after,
                   " as its dependency: forward references cannot be "
                   "ordered (events are issued in enqueue order)");
    }
    PIM_ASSERT(cmd.tenant < hostT_.size(),
               "unknown tenant ", cmd.tenant,
               " (register it with addTenant first)");
    if (met_ != nullptr) {
        ensureTenantMetrics();
        qm_.issued->add();
        if (cmd.tenant != kDefaultTenant)
            tenantMet_[cmd.tenant].issued->add();
    }
    pending_.push_back(std::move(cmd));
    return id;
}

double
CommandQueue::eventTime(Event e) const
{
    // Events older than the last compaction point are dominated by the
    // joined host time, so 0.0 is an exact stand-in inside the max().
    return e < static_cast<Event>(resolvedBase_)
        ? 0.0 : resolved_[static_cast<size_t>(e) - resolvedBase_];
}

bool
CommandQueue::eventFailedInternal(Event e) const
{
    // Compacted history reads as succeeded: sync() is a barrier that
    // recovery (re-enqueue with fresh dependencies) happens behind.
    return e >= static_cast<Event>(resolvedBase_)
        && resolvedFailed_[static_cast<size_t>(e) - resolvedBase_] != 0;
}

double
CommandQueue::copyDuration(const DpuSet &set, uint64_t total_bytes) const
{
    return sys_.transferModel().secondsTotal(total_bytes, set.size());
}

CommandQueue::Command
CommandQueue::makeCopy(const DpuSet &set, uint64_t total_bytes,
                       bool blocking, const CommandOptions &opts,
                       CopyDirection dir) const
{
    Command cmd;
    cmd.type = Command::Type::Copy;
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    cmd.dir = dir;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    cmd.totalBytes = total_bytes;
    cmd.copySeconds = copyDuration(set, total_bytes);
    cmd.blocking = blocking;
    cmd.part = set.partition();
    return cmd;
}

double
CommandQueue::memcpy(const DpuSet &set, uint64_t bytes_per_dpu,
                     CopyDirection dir, const CommandOptions &opts)
{
    Command cmd = makeCopy(set, bytes_per_dpu * set.size(),
                           /*blocking=*/true, opts, dir);
    const double sec = cmd.copySeconds;
    enqueue(std::move(cmd));
    drain();
    return sec;
}

Event
CommandQueue::memcpyAsync(const DpuSet &set, uint64_t bytes_per_dpu,
                          CopyDirection dir, const CommandOptions &opts)
{
    return enqueue(makeCopy(set, bytes_per_dpu * set.size(),
                            /*blocking=*/false, opts, dir));
}

double
CommandQueue::memcpyScatter(const DpuSet &set,
                            const std::vector<uint64_t> &bytes_per_dpu,
                            CopyDirection dir, const CommandOptions &opts)
{
    PIM_ASSERT(bytes_per_dpu.size() == set.size(),
               "scatter byte counts must match the set size");
    uint64_t total = 0;
    for (const uint64_t b : bytes_per_dpu)
        total += b;
    Command cmd = makeCopy(set, total, /*blocking=*/true, opts, dir);
    const double sec = cmd.copySeconds;
    enqueue(std::move(cmd));
    drain();
    return sec;
}

Event
CommandQueue::enqueueScatter(const DpuSet &set,
                             const std::vector<uint64_t> &bytes_per_dpu,
                             CopyDirection dir,
                             const CommandOptions &opts,
                             bool occupy_ranks)
{
    PIM_ASSERT(bytes_per_dpu.size() == set.size(),
               "scatter byte counts must match the set size");
    uint64_t total = 0;
    for (const uint64_t b : bytes_per_dpu)
        total += b;
    Command cmd = makeCopy(set, total, /*blocking=*/false, opts, dir);
    cmd.occupyRanks = occupy_ranks;
    return enqueue(std::move(cmd));
}

Event
CommandQueue::memcpyScatterAsync(const DpuSet &set,
                                 std::vector<uint64_t> bytes_per_dpu,
                                 CopyDirection dir,
                                 const CommandOptions &opts)
{
    return enqueueScatter(set, bytes_per_dpu, dir, opts,
                          /*occupy_ranks=*/true);
}

Event
CommandQueue::memcpyBufferedAsync(const DpuSet &set,
                                  uint64_t bytes_per_dpu,
                                  CopyDirection dir,
                                  const CommandOptions &opts)
{
    Command cmd = makeCopy(set, bytes_per_dpu * set.size(),
                           /*blocking=*/false, opts, dir);
    cmd.occupyRanks = false;
    return enqueue(std::move(cmd));
}

Event
CommandQueue::memcpyScatterBufferedAsync(
    const DpuSet &set, std::vector<uint64_t> bytes_per_dpu,
    CopyDirection dir, const CommandOptions &opts)
{
    return enqueueScatter(set, bytes_per_dpu, dir, opts,
                          /*occupy_ranks=*/false);
}

Event
CommandQueue::launch(const DpuSet &set, unsigned tasklets,
                     std::function<void(sim::Tasklet &, unsigned)> body,
                     const CommandOptions &opts)
{
    return launchProgram(
        set,
        [tasklets, body = std::move(body)](sim::Dpu &dpu,
                                           unsigned global) {
            dpu.run(tasklets,
                    [&](sim::Tasklet &t) { body(t, global); });
        },
        opts);
}

Event
CommandQueue::launchProgram(const DpuSet &set, LaunchFn program,
                            const CommandOptions &opts)
{
    // A launch with no materialized member would silently run nothing
    // and cost nothing — an experiment bug, not a zero-work launch
    // (cf. PimSystemConfig::samplePerRank for rank-granular targets).
    PIM_ASSERT(!set.slots().empty(),
               "launch target contains no materialized DPU");
    Command cmd;
    cmd.type = Command::Type::Launch;
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    cmd.program = std::move(program);
    cmd.part = set.partition();
    const size_t nslots = cmd.part->slots.size();
    cmd.cyclesOff = slotCyclesArena_.size();
    slotCyclesArena_.resize(cmd.cyclesOff + nslots, 0);
    if (met_ != nullptr) {
        cmd.eventsOff = slotEventsArena_.size();
        slotEventsArena_.resize(cmd.eventsOff + nslots, 0);
    }
    return enqueue(std::move(cmd));
}

Event
CommandQueue::launchTimed(const DpuSet &set, double seconds,
                          const CommandOptions &opts)
{
    PIM_ASSERT(seconds >= 0.0, "negative launch duration");
    Command cmd;
    cmd.type = Command::Type::Launch;
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    cmd.launchSeconds = seconds;
    cmd.part = set.partition();
    return enqueue(std::move(cmd));
}

double
CommandQueue::hostCompute(uint64_t tasks, uint64_t instrs_per_task,
                          const CommandOptions &opts)
{
    return hostBusy(sys_.hostModel().seconds(tasks, instrs_per_task),
                    opts);
}

double
CommandQueue::hostBusy(double seconds, const CommandOptions &opts)
{
    Command cmd;
    cmd.type = Command::Type::HostCompute;
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    cmd.hostSeconds = seconds;
    enqueue(std::move(cmd));
    return seconds;
}

void
CommandQueue::hostIdleUntil(double seconds, const CommandOptions &opts)
{
    Command cmd;
    cmd.type = Command::Type::HostCompute;
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    cmd.hostUntil = seconds;
    enqueue(std::move(cmd));
}

void
CommandQueue::onComplete(Event e,
                         std::function<void(Event, double)> fn)
{
    const Event first_pending =
        static_cast<Event>(resolvedBase_ + resolved_.size());
    const Event next =
        static_cast<Event>(first_pending
                           + static_cast<Event>(pending_.size()));
    PIM_ASSERT(e != kNoEvent,
               "onComplete(kNoEvent): the event was never enqueued");
    PIM_ASSERT(e >= first_pending && e < next,
               "onComplete needs a pending event, got ", e,
               " (pending range [", first_pending, ", ", next,
               ")): register callbacks right after enqueuing");
    callbacks_.push_back(Callback{e, /*onErr=*/false, std::move(fn)});
}

void
CommandQueue::onError(Event e, std::function<void(Event, double)> fn)
{
    const Event first_pending =
        static_cast<Event>(resolvedBase_ + resolved_.size());
    const Event next =
        static_cast<Event>(first_pending
                           + static_cast<Event>(pending_.size()));
    PIM_ASSERT(e != kNoEvent,
               "onError(kNoEvent): the event was never enqueued");
    PIM_ASSERT(e >= first_pending && e < next,
               "onError needs a pending event, got ", e,
               " (pending range [", first_pending, ", ", next,
               ")): register callbacks right after enqueuing");
    callbacks_.push_back(Callback{e, /*onErr=*/true, std::move(fn)});
}

void
CommandQueue::drain()
{
    if (pending_.empty())
        return;
    PIM_ASSERT(!inCallbacks_,
               "completion callbacks may enqueue commands but must not "
               "force a drain (no sync/eventSeconds/blocking transfers)");

    const Clock::time_point t_start = Clock::now();
    const size_t folded = pending_.size();

    // Phase 1: execute launch bodies. Each materialized slot runs its
    // launches in enqueue order (one ordered chain per slot), and the
    // chains shard across the host pool — a slot's state is only ever
    // touched by one worker, so per-DPU closures need no locking.
    // chains_/activeSlots_ are scratch reused across drains: only the
    // slots the *previous* drain touched are cleared, so the build is
    // O(commands' slots), not O(sampleCount).
    if (chains_.size() < sys_.sampleCount())
        chains_.resize(sys_.sampleCount());
    for (const unsigned slot : activeSlots_)
        chains_[slot].clear();
    activeSlots_.clear();
    for (Command &cmd : pending_) {
        // Timed launches carry no program: nothing to execute here.
        if (cmd.type != Command::Type::Launch || !cmd.program)
            continue;
        const std::vector<unsigned> &slots = cmd.part->slots;
        for (unsigned pos = 0;
             pos < static_cast<unsigned>(slots.size()); ++pos) {
            const unsigned slot = slots[pos];
            if (chains_[slot].empty())
                activeSlots_.push_back(slot);
            chains_[slot].push_back(ChainEntry{&cmd, pos});
        }
    }
    std::sort(activeSlots_.begin(), activeSlots_.end());

    sys_.engine().forEach(activeSlots_.size(), [&](size_t i) {
        const unsigned slot = activeSlots_[i];
        const unsigned global = sys_.globalIndex(slot);
        sim::Dpu &dpu = sys_.dpu(slot);
        for (const ChainEntry &e : chains_[slot]) {
            e.cmd->program(dpu, global);
            slotCyclesArena_[e.cmd->cyclesOff + e.pos] =
                dpu.lastElapsedCycles();
            // Only sized while metrics are attached; each (cmd, pos)
            // is written by exactly one worker, so no synchronization.
            if (e.cmd->eventsOff != kNoArena)
                slotEventsArena_[e.cmd->eventsOff + e.pos] =
                    dpu.lastSimEvents();
        }
    });
    const Clock::time_point t_phase1_end = Clock::now();

    // Phase 2: fold the commands into the timelines, sequentially and
    // in enqueue order — bit-identical for any worker-thread count.
    // Host-side charges land on the issuing tenant's host lane; the bus
    // and the ranks are shared across tenants. With a recorder
    // attached, each command also emits one span per lane it occupied,
    // at exactly the interval the fold computed, tagged with its
    // tenant's name.
    const double launch_overhead =
        sys_.config().xferCfg.launchLatencySec;
    auto span = [this](int lane, const std::string &name, double t0,
                       double t1, const Command &cmd, Event id,
                       bool idle = false) {
        trace::Span s;
        s.lane = lane;
        s.name = name;
        s.tenant = tenantTag(cmd.tenant);
        s.t0 = traceEpoch_ + t0;
        s.t1 = traceEpoch_ + t1;
        s.bytes = cmd.type == Command::Type::Copy
                && lane == trace::kBusLane
            ? cmd.totalBytes : 0;
        s.event = id;
        s.after = cmd.after;
        s.idle = idle;
        rec_->record(std::move(s));
    };
    if (met_ != nullptr)
        ensureTenantMetrics();
    // Metric helpers (met_ != nullptr only): sampler times are
    // epoch-absolute so series stay monotonic across resetTimeline,
    // exactly like trace spans.
    auto metUtil = [this](int sid, double t0, double t1) {
        met_->sampler().accumulate(sid, traceEpoch_ + t0,
                                   traceEpoch_ + t1);
    };
    auto metRankBusy = [&](const Command &cmd, double t0, double t1,
                           unsigned r) {
        metUtil(rankSid_[r], t0, t1);
        metUtil(ranksBusySid_, t0, t1);
        metUtil(tenantMet_[cmd.tenant].ranksBusySid, t0, t1);
    };
    auto metInFlight = [this](double t0, double t1) {
        met_->sampler().eventDelta(depthSid_, traceEpoch_ + t0, +1);
        met_->sampler().eventDelta(depthSid_, traceEpoch_ + t1, -1);
    };
    for (Command &cmd : pending_) {
        const Event id = static_cast<Event>(
            resolvedBase_ + resolved_.size());
        const double dep =
            cmd.after == kNoEvent ? 0.0 : eventTime(cmd.after);
        double &host_t = hostT_[cmd.tenant];
        // Set by the fault paths below; recorded alongside cmd.end.
        bool failed = false;
        if (inj_ != nullptr && cmd.after != kNoEvent
            && eventFailedInternal(cmd.after)) {
            // Poisoned: the dependency failed, so this command errors
            // out the moment the failure is known, charging nothing to
            // any timeline — the failure propagates down the dependent
            // chain and nowhere else.
            cmd.end = std::max(host_t, dep);
            inj_->notePoisoned();
            if (met_ != nullptr) {
                qm_.resolved->add();
                qm_.failed->add();
                qm_.poisoned->add();
                const TenantMetrics &tm = tenantMet_[cmd.tenant];
                if (tm.poisoned != nullptr) {
                    tm.resolved->add();
                    tm.failed->add();
                    tm.poisoned->add();
                }
            }
            resolved_.push_back(cmd.end);
            resolvedFailed_.push_back(1);
            continue;
        }
        switch (cmd.type) {
          case Command::Type::Launch: {
            // The host pays the driver-issue overhead, then moves on.
            const double issue_t0 = host_t;
            host_t += launch_overhead;
            std::string name; // only materialized when tracing
            if (rec_ != nullptr) {
                name = cmd.label.empty() ? "launch" : cmd.label;
                span(hostLane(cmd.tenant), name + " (issue)", issue_t0,
                     host_t, cmd, id);
            }
            // A rank with sampled members is busy for its slowest one;
            // an unsampled rank is charged the slowest sampled member
            // of the whole launch (representative-sample assumption).
            // Timed launches (launchSeconds >= 0) ran no program: every
            // rank is charged the analytic duration instead.
            const bool timed = cmd.launchSeconds >= 0.0;
            const SlotPartition &part = *cmd.part;
            uint64_t all_max = 0;
            if (!timed) {
                for (size_t j = 0; j < part.slots.size(); ++j)
                    all_max = std::max(
                        all_max, slotCyclesArena_[cmd.cyclesOff + j]);
            }
            double launch_end = host_t;
            double launch_work = 0.0;
            // Fault decisions for this launch, made here in the
            // sequential fold so they are thread-count independent.
            const double timeout =
                inj_ != nullptr ? inj_->launchTimeoutSec() : 0.0;
            const int hang_rank = inj_ != nullptr
                ? inj_->consumeHang(part.ranks, host_t) : -1;
            if (hang_rank >= 0 && timeout <= 0.0)
                PIM_FATAL("launch hang injected on rank ", hang_rank,
                          " but no launch timeout is configured: a hung "
                          "launch would stall the simulated timeline "
                          "forever (set FaultSpec::launchTimeoutSec)");
            for (size_t ri = 0; ri < part.ranks.size(); ++ri) {
                const unsigned r = part.ranks[ri];
                // The partition's slots are grouped by rank, so this
                // rank's sampled members are one contiguous run — the
                // scan is O(slots of the launch) overall, not
                // O(ranks x slots).
                uint64_t cycles = 0;
                if (!timed) {
                    const size_t jb = part.rankSlotBegin[ri];
                    const size_t je = part.rankSlotBegin[ri + 1];
                    if (je > jb) {
                        for (size_t j = jb; j < je; ++j)
                            cycles = std::max(
                                cycles,
                                slotCyclesArena_[cmd.cyclesOff + j]);
                    } else {
                        cycles = all_max;
                    }
                }
                double dur = timed
                    ? cmd.launchSeconds
                    : sys_.config().dpuCfg.cyclesToSeconds(cycles);
                const double start =
                    std::max({host_t, rankT_[r], dep});
                bool rank_fault = false; // this rank's slice was cut
                bool charge = true;      // false: dead rank, frozen
                if (inj_ != nullptr) {
                    const double fail_at = inj_->rankFailSeconds(r);
                    if (fail_at <= start) {
                        // Already dead: nothing runs, nothing is
                        // charged; the command errors back at the time
                        // it would have started.
                        failed = rank_fault = true;
                        charge = false;
                        dur = 0.0;
                        traceRankDeath(r, fail_at);
                    } else {
                        const double mult =
                            inj_->launchMultiplier(r, start);
                        if (mult > 1.0) {
                            dur *= mult;
                            inj_->noteDegraded();
                        }
                        if (static_cast<int>(r) == hang_rank) {
                            // Hung kernel: the timeout reaps it.
                            dur = timeout;
                            failed = rank_fault = true;
                        } else if (timeout > 0.0 && dur > timeout) {
                            dur = timeout;
                            failed = rank_fault = true;
                            inj_->noteTimeout();
                        }
                        if (fail_at < start + dur) {
                            // Dies mid-launch: busy until the death,
                            // then the rank's timeline freezes.
                            dur = fail_at - start;
                            failed = rank_fault = true;
                            traceRankDeath(r, fail_at);
                        }
                    }
                }
                if (charge) {
                    rankT_[r] = start + dur;
                    launch_end = std::max(launch_end, rankT_[r]);
                    launch_work = std::max(launch_work, dur);
                    if (met_ != nullptr)
                        metRankBusy(cmd, start, rankT_[r], r);
                } else {
                    launch_end = std::max(launch_end, start);
                }
                if (rec_ != nullptr && charge) {
                    trace::Span s;
                    s.lane = trace::rankLane(r);
                    s.name = rank_fault ? name + " !fault" : name;
                    s.tenant = tenantTag(cmd.tenant);
                    s.t0 = traceEpoch_ + start;
                    s.t1 = traceEpoch_ + rankT_[r];
                    s.cycles = cycles;
                    s.event = id;
                    s.after = cmd.after;
                    rec_->record(std::move(s));
                }
            }
            // Ranks run concurrently, so one launch contributes its
            // slowest rank once to the serial-composition work sum.
            launchWork_ += launch_work;
            cmd.end = launch_end;
            if (met_ != nullptr) {
                metUtil(tenantMet_[cmd.tenant].hostSid, issue_t0,
                        host_t);
                metInFlight(issue_t0, cmd.end);
                uint64_t ev = 0;
                if (cmd.eventsOff != kNoArena) {
                    for (size_t j = 0; j < part.slots.size(); ++j)
                        ev += slotEventsArena_[cmd.eventsOff + j];
                }
                qm_.simEvents->add(ev);
            }
            break;
          }
          case Command::Type::Copy: {
            const double host_t0 = host_t;
            // A double-buffered copy (occupyRanks false) lands in the
            // inactive buffer: it still serializes on the bus and
            // cannot start before the host issued it, but the target
            // ranks neither delay it nor stall on it.
            double start = std::max({host_t, busT_, dep});
            if (cmd.occupyRanks) {
                for (const unsigned r : cmd.part->ranks)
                    start = std::max(start, rankT_[r]);
            }
            double copy_sec = cmd.copySeconds;
            if (inj_ != nullptr) {
                bool dead_target = false;
                for (const unsigned r : cmd.part->ranks) {
                    if (inj_->rankFailedBy(r, start)) {
                        dead_target = true;
                        traceRankDeath(r, inj_->rankFailSeconds(r));
                    }
                }
                if (dead_target) {
                    // The DMA errors back: the bus is held for the one
                    // attempt, the data never lands on any rank.
                    failed = true;
                } else {
                    const fault::TransferOutcome out =
                        inj_->transfer(start, cmd.copySeconds);
                    copy_sec = out.busSeconds;
                    failed = out.failed;
                    if (met_ != nullptr && out.attempts > 1) {
                        const uint64_t n = out.attempts - 1;
                        qm_.retries->add(n);
                        const TenantMetrics &tm =
                            tenantMet_[cmd.tenant];
                        if (tm.retries != nullptr)
                            tm.retries->add(n);
                    }
                }
            }
            const double end = start + copy_sec;
            busT_ = end;
            if (cmd.occupyRanks && !failed) {
                for (const unsigned r : cmd.part->ranks)
                    rankT_[r] = end;
            }
            if (cmd.blocking)
                host_t = end;
            // A failed transfer moved wire traffic but delivered no
            // payload; retries of a succeeding one deliver it once.
            if (!failed)
                transferredBytes_ += cmd.totalBytes;
            copyWork_ += copy_sec;
            cmd.end = end;
            if (met_ != nullptr) {
                metUtil(busSid_, start, end);
                if (cmd.occupyRanks && !failed) {
                    for (const unsigned r : cmd.part->ranks)
                        metRankBusy(cmd, start, end, r);
                }
                if (!failed) {
                    qm_.busBytes->add(cmd.totalBytes);
                    const TenantMetrics &tm = tenantMet_[cmd.tenant];
                    if (tm.busBytes != nullptr)
                        tm.busBytes->add(cmd.totalBytes);
                }
                metInFlight(start, end);
            }
            if (rec_ != nullptr) {
                std::string name = cmd.label.empty()
                    ? std::string(cmd.dir == CopyDirection::HostToPim
                                      ? "memcpy:h2p" : "memcpy:p2h")
                    : cmd.label;
                if (failed)
                    name += " !fault";
                span(trace::kBusLane, name, start, end, cmd, id);
                if (cmd.occupyRanks && !failed) {
                    for (const unsigned r : cmd.part->ranks)
                        span(trace::rankLane(r), name, start, end, cmd,
                             id);
                }
                if (cmd.blocking && end > host_t0)
                    span(hostLane(cmd.tenant), name + " (wait)",
                         host_t0, end, cmd, id, /*idle=*/true);
            }
            break;
          }
          case Command::Type::HostCompute: {
            const double host_t0 = host_t;
            if (cmd.hostUntil >= 0.0) {
                host_t = std::max({host_t, cmd.hostUntil, dep});
                if (rec_ != nullptr && host_t > host_t0)
                    span(hostLane(cmd.tenant),
                         cmd.label.empty() ? std::string("idle-until")
                                           : cmd.label,
                         host_t0, host_t, cmd, id, /*idle=*/true);
            } else {
                const double start = std::max(host_t0, dep);
                host_t = start + cmd.hostSeconds;
                hostWork_ += cmd.hostSeconds;
                if (rec_ != nullptr)
                    span(hostLane(cmd.tenant),
                         cmd.label.empty() ? std::string("host")
                                           : cmd.label,
                         start, host_t, cmd, id);
                if (met_ != nullptr) {
                    metUtil(tenantMet_[cmd.tenant].hostSid, start,
                            host_t);
                    metInFlight(start, host_t);
                }
            }
            cmd.end = host_t;
            break;
          }
        }
        if (met_ != nullptr) {
            qm_.resolved->add();
            const TenantMetrics &tm = tenantMet_[cmd.tenant];
            if (tm.resolved != nullptr)
                tm.resolved->add();
            if (failed) {
                qm_.failed->add();
                if (tm.failed != nullptr)
                    tm.failed->add();
            }
        }
        resolved_.push_back(cmd.end);
        resolvedFailed_.push_back(failed ? 1 : 0);
    }
    stats_.drains += 1;
    stats_.commands += folded;
    stats_.phase1Sec +=
        std::chrono::duration<double>(t_phase1_end - t_start).count();
    stats_.phase2Sec += secondsSince(t_phase1_end);
    stats_.wallSec += secondsSince(t_start);
    if (met_ != nullptr) {
        qm_.drainPhase1->set(stats_.phase1Sec);
        qm_.drainPhase2->set(stats_.phase2Sec);
        if (stats_.wallSec > 0.0)
            qm_.drainCps->set(static_cast<double>(stats_.commands)
                              / stats_.wallSec);
    }
    // Clear the commands AND the arenas before dispatching callbacks:
    // follow-up launches enqueued by a callback must get fresh arena
    // offsets, not append after this drain's spans.
    pending_.clear();
    slotCyclesArena_.clear();
    slotEventsArena_.clear();

    // Phase 3: dispatch due completion callbacks. Every registered
    // callback targeted a pending event, and the fold above resolved
    // all of them — sort by (completion time, event id) so dispatch is
    // timeline-ordered and independent of registration order. Swap the
    // list out first: callbacks may enqueue follow-up commands and
    // register new callbacks, which belong to the next drain.
    if (!callbacks_.empty()) {
        std::vector<Callback> due;
        due.swap(callbacks_);
        std::stable_sort(due.begin(), due.end(),
                         [this](const Callback &a, const Callback &b) {
                             const double ta = eventTime(a.event);
                             const double tb = eventTime(b.event);
                             return ta != tb ? ta < tb
                                             : a.event < b.event;
                         });
        inCallbacks_ = true;
        for (Callback &cb : due) {
            // An onComplete callback fires only if its event
            // succeeded, an onError one only if it failed; the
            // unmatched registration is dropped silently.
            if (eventFailedInternal(cb.event) == cb.onErr)
                cb.fn(cb.event, eventTime(cb.event));
        }
        inCallbacks_ = false;
    }
}

double
CommandQueue::eventSeconds(Event e)
{
    // Fail fast on handles that never named a command: kNoEvent (a
    // default-initialized Event) and ids beyond everything enqueued.
    PIM_ASSERT(e != kNoEvent,
               "eventSeconds(kNoEvent): the event was never enqueued "
               "(default Event handle)");
    PIM_ASSERT(e >= 0
                   && e < static_cast<Event>(resolvedBase_
                                             + resolved_.size()
                                             + pending_.size()),
               "eventSeconds(", e, "): the event was never enqueued");
    drain();
    PIM_ASSERT(e >= static_cast<Event>(resolvedBase_),
               "event ", e, " was compacted by sync()/resetTimeline");
    return resolved_[static_cast<size_t>(e) - resolvedBase_];
}

bool
CommandQueue::eventFailed(Event e)
{
    PIM_ASSERT(e != kNoEvent,
               "eventFailed(kNoEvent): the event was never enqueued "
               "(default Event handle)");
    PIM_ASSERT(e >= 0
                   && e < static_cast<Event>(resolvedBase_
                                             + resolved_.size()
                                             + pending_.size()),
               "eventFailed(", e, "): the event was never enqueued");
    drain();
    PIM_ASSERT(e >= static_cast<Event>(resolvedBase_),
               "event ", e, " was compacted by sync()/resetTimeline");
    return resolvedFailed_[static_cast<size_t>(e) - resolvedBase_] != 0;
}

double
CommandQueue::joinedTime() const
{
    double t = busT_;
    for (const double h : hostT_)
        t = std::max(t, h);
    for (const double r : rankT_)
        t = std::max(t, r);
    return t;
}

double
CommandQueue::sync()
{
    drain();
    const double t = joinedTime();
    std::fill(hostT_.begin(), hostT_.end(), t);
    // Every resolved completion is now <= the joined host time, so the
    // event history can be compacted (eventTime answers 0.0, which is
    // exact inside the start-time max()). Keeps memory bounded for
    // sync-per-step drivers like the serving simulator.
    resolvedBase_ += resolved_.size();
    resolved_.clear();
    resolvedFailed_.clear();
    return t;
}

void
CommandQueue::resetTimeline()
{
    drain();
    // Compacting rebases pre-reset Events to the new epoch: they
    // resolve to 0.0 and cannot leak stale absolute time in.
    resolvedBase_ += resolved_.size();
    resolved_.clear();
    resolvedFailed_.clear();
    // Keep the trace and sampler timelines monotonic across the reset:
    // spans and bins of the new epoch start where the old epoch's
    // timelines ended.
    if (rec_ != nullptr || met_ != nullptr)
        traceEpoch_ += joinedTime();
    std::fill(hostT_.begin(), hostT_.end(), 0.0);
    busT_ = 0.0;
    std::fill(rankT_.begin(), rankT_.end(), 0.0);
    transferredBytes_ = 0;
    launchWork_ = 0.0;
    copyWork_ = 0.0;
    hostWork_ = 0.0;
    stats_ = DrainStats{};
}

} // namespace pim::core
