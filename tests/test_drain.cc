/**
 * @file
 * Drain contract tests. For any command script — tenants, dependencies,
 * callbacks, scatter copies, timed launches, injected faults — the
 * drain's complete observable outcome must be invariant across
 * worker-thread counts. The differentials below compare full outcome
 * digests with exact double equality, the same bar the mutex-mode fuzz
 * sets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "fault/injector.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using core::CommandQueue;

namespace {

/** Everything a command script can observe, for exact comparison. */
struct Outcome
{
    std::vector<double> eventTimes;
    std::vector<char> eventFailed;
    std::vector<double> makespans;
    std::vector<double> hostT;
    std::vector<double> rankT;
    double busT = 0.0;
    uint64_t transferredBytes = 0;
    double launchWork = 0.0;
    double copyWork = 0.0;
    double hostWork = 0.0;
    /** Callback dispatch sequence: (event, completion time) pairs in
     *  invocation order, onError entries with negated time. */
    std::vector<std::pair<core::Event, double>> callbacks;
    /** Order-insensitive sum folded from every launch-body execution
     *  (the launch bodies really ran, on whatever thread). */
    uint64_t workSum = 0;
};

void
expectEqualOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.eventTimes, b.eventTimes);
    EXPECT_EQ(a.eventFailed, b.eventFailed);
    EXPECT_EQ(a.makespans, b.makespans);
    EXPECT_EQ(a.hostT, b.hostT);
    EXPECT_EQ(a.rankT, b.rankT);
    EXPECT_EQ(a.busT, b.busT);
    EXPECT_EQ(a.transferredBytes, b.transferredBytes);
    EXPECT_EQ(a.launchWork, b.launchWork);
    EXPECT_EQ(a.copyWork, b.copyWork);
    EXPECT_EQ(a.hostWork, b.hostWork);
    EXPECT_EQ(a.callbacks, b.callbacks);
    EXPECT_EQ(a.workSum, b.workSum);
}

/**
 * A seeded random command storm: three sync rounds of launches (plain,
 * multi-tasklet, timed), async/buffered/scatter copies, host compute,
 * chained dependencies, three tenants, and completion/error callbacks,
 * against full-system, per-rank, rank-range, complement, and explicit
 * subset targets.
 */
Outcome
runScript(unsigned threads, uint64_t seed, bool faults)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = 256; // 4 ranks of 64
    cfg.sampleDpus = 32;
    cfg.simThreads = threads;
    core::PimSystem sys(cfg);
    CommandQueue queue(sys);

    std::unique_ptr<fault::FaultInjector> inj;
    if (faults) {
        // Explicit schedule (not MTBF-drawn) so every fault class is
        // guaranteed to fire inside the script's short makespan: a
        // hang reaped by the timeout, a degraded rank, a transient
        // transfer, and a rank that dies almost immediately (poisoning
        // every dependent chain that touches it).
        fault::FaultSpec fs;
        fs.launchTimeoutSec = 0.01;
        std::vector<fault::FaultEvent> evs;
        fault::FaultEvent hang;
        hang.kind = fault::FaultKind::LaunchHang;
        hang.atSec = 1e-4;
        hang.rank = 0;
        evs.push_back(hang);
        fault::FaultEvent xfer;
        xfer.kind = fault::FaultKind::TransientTransfer;
        xfer.atSec = 2e-4;
        xfer.attempts = 2;
        evs.push_back(xfer);
        fault::FaultEvent degrade;
        degrade.kind = fault::FaultKind::RankDegrade;
        degrade.atSec = 0.0;
        degrade.rank = 1;
        degrade.multiplier = 3.0;
        degrade.durationSec = 0.01;
        evs.push_back(degrade);
        fault::FaultEvent dead;
        dead.kind = fault::FaultKind::RankFail;
        dead.atSec = 5e-4;
        dead.rank = 2;
        evs.push_back(dead);
        inj = std::make_unique<fault::FaultInjector>(
            fault::FaultPlan(fs, std::move(evs), sys.numRanks()));
        queue.attachFaultInjector(inj.get());
    }

    const core::TenantId tenants[3] = {core::kDefaultTenant,
                                       queue.addTenant("alpha"),
                                       queue.addTenant("beta")};

    std::vector<core::DpuSet> sets;
    sets.push_back(sys.all());
    for (unsigned r = 0; r < sys.numRanks(); ++r)
        sets.push_back(sys.rank(r));
    sets.push_back(sys.rankRange(1, 2));
    sets.push_back(sys.rank(0).complement());
    sets.push_back(sys.subset({sys.globalIndex(0), sys.globalIndex(3),
                               sys.globalIndex(9), sys.globalIndex(20),
                               sys.globalIndex(31)}));

    Outcome out;
    std::atomic<uint64_t> work_sum{0};
    util::Rng rng(seed * 7919 + 17);
    std::vector<core::Event> recent;

    auto mkopts = [&]() {
        core::CommandOptions o;
        o.tenant = tenants[rng.uniformInt(3)];
        if (!recent.empty() && rng.bernoulli(0.4))
            o.after = recent[recent.size() - 1
                             - rng.uniformInt(std::min<uint64_t>(
                                   recent.size(), 6))];
        return o;
    };
    auto direction = [&]() {
        return rng.bernoulli(0.5) ? core::CopyDirection::HostToPim
                                  : core::CopyDirection::PimToHost;
    };

    for (int round = 0; round < 3; ++round) {
        std::vector<core::Event> round_events;
        for (int i = 0; i < 110; ++i) {
            const core::DpuSet &set =
                sets[rng.uniformInt(sets.size())];
            core::Event e = core::kNoEvent;
            switch (rng.uniformInt(8)) {
              case 0:
              case 1:
              case 2: {
                const uint32_t w =
                    20 + static_cast<uint32_t>(rng.uniformInt(40));
                e = queue.launch(
                    set, 1 + static_cast<unsigned>(rng.uniformInt(3)),
                    [w, &work_sum](sim::Tasklet &t, unsigned global) {
                        t.execute(w + global % 11);
                        work_sum.fetch_add(global + w,
                                           std::memory_order_relaxed);
                    },
                    mkopts());
                break;
              }
              case 3:
                e = queue.launchTimed(
                    set, 1e-4 * static_cast<double>(
                                    1 + rng.uniformInt(20)),
                    mkopts());
                break;
              case 4:
                e = queue.memcpyAsync(set, 256 + rng.uniformInt(4096),
                                      direction(), mkopts());
                break;
              case 5:
                e = queue.memcpyBufferedAsync(
                    set, 128 + rng.uniformInt(1024), direction(),
                    mkopts());
                break;
              case 6: {
                std::vector<uint64_t> per_dpu(set.size());
                for (uint64_t &b : per_dpu)
                    b = 8 + rng.uniformInt(64);
                e = queue.memcpyScatterAsync(set, std::move(per_dpu),
                                             direction(), mkopts());
                break;
              }
              case 7:
                queue.hostCompute(1 + rng.uniformInt(64), 200,
                                  mkopts());
                break;
            }
            if (e != core::kNoEvent) {
                if (rng.bernoulli(0.25))
                    queue.onComplete(e, [&out](core::Event ev,
                                               double sec) {
                        out.callbacks.emplace_back(ev, sec);
                    });
                if (faults && rng.bernoulli(0.25))
                    queue.onError(e,
                                  [&out](core::Event ev, double sec) {
                                      out.callbacks.emplace_back(ev,
                                                                 -sec);
                                  });
                recent.push_back(e);
                round_events.push_back(e);
            }
        }
        // Query every event of the round before sync() compacts it.
        for (const core::Event e : round_events) {
            out.eventTimes.push_back(queue.eventSeconds(e));
            out.eventFailed.push_back(queue.eventFailed(e) ? 1 : 0);
        }
        out.makespans.push_back(queue.sync());
    }

    for (unsigned t = 0; t < queue.tenantCount(); ++t)
        out.hostT.push_back(queue.hostSeconds(t));
    for (unsigned r = 0; r < sys.numRanks(); ++r)
        out.rankT.push_back(queue.rankReadySeconds(r));
    out.busT = queue.busReadySeconds();
    out.transferredBytes = queue.transferredBytes();
    out.launchWork = queue.launchWorkSeconds();
    out.copyWork = queue.copyWorkSeconds();
    out.hostWork = queue.hostWorkSeconds();
    out.workSum = work_sum.load();
    return out;
}

} // namespace

/** Seeded random-script differential: 1 vs 4 vs 7 worker threads,
 *  exact (4 and 7 exercise ragged slicing of the launch chains). */
class DrainThreadsFuzz
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(DrainThreadsFuzz, ThreadCountInvariantExactly)
{
    const auto [seed, faults] = GetParam();
    const Outcome one =
        runScript(1, static_cast<uint64_t>(seed), faults);
    const Outcome four =
        runScript(4, static_cast<uint64_t>(seed), faults);
    const Outcome seven =
        runScript(7, static_cast<uint64_t>(seed), faults);
    expectEqualOutcome(one, four);
    expectEqualOutcome(one, seven);
    EXPECT_FALSE(one.eventTimes.empty());
    EXPECT_FALSE(one.callbacks.empty());
    if (faults) {
        // The fault plan actually fired, so the differential covered
        // the failure paths too.
        bool any_failed = false;
        for (const char f : one.eventFailed)
            any_failed = any_failed || f != 0;
        EXPECT_TRUE(any_failed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFaults, DrainThreadsFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(false, true)));

TEST(DrainStats, AccumulateAndResetWithTimeline)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = 128;
    cfg.sampleDpus = 4;
    cfg.simThreads = 2;
    core::PimSystem sys(cfg);
    CommandQueue queue(sys);

    for (int i = 0; i < 3; ++i)
        queue.launch(sys.all(), 1,
                     [](sim::Tasklet &t, unsigned) { t.execute(25); });
    queue.memcpyAsync(sys.all(), 1024,
                      core::CopyDirection::HostToPim);
    queue.sync();
    const CommandQueue::DrainStats &st = queue.drainStats();
    EXPECT_EQ(st.drains, 1u);
    EXPECT_EQ(st.commands, 4u);
    EXPECT_GT(st.wallSec, 0.0);
    EXPECT_GE(st.phase1Sec, 0.0);
    EXPECT_GE(st.phase2Sec, 0.0);

    queue.resetTimeline();
    EXPECT_EQ(queue.drainStats().drains, 0u);
    EXPECT_EQ(queue.drainStats().commands, 0u);
    EXPECT_EQ(queue.drainStats().wallSec, 0.0);
}
