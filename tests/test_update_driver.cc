/**
 * @file
 * Tests for the dynamic-graph-update experiment driver (Fig 17): result
 * plumbing, determinism, and the paper's qualitative orderings on a
 * scaled-down dataset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "util/rng.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

namespace {

GraphUpdateConfig
smallCfg(StructureKind s, core::AllocatorKind a)
{
    GraphUpdateConfig cfg;
    cfg.structure = s;
    cfg.allocator = a;
    cfg.numDpus = 8;
    cfg.sampleDpus = 1;
    cfg.tasklets = 8;
    cfg.gen.numNodes = 2000;
    cfg.gen.numEdges = 9000;
    cfg.gen.seed = 5;
    return cfg;
}

/** Reference shard: one full scan of the dataset per shard, local ids
 *  handed out in first-seen order over the ascending node walk. */
Shard
naiveShard(const UpdateWorkload &w, unsigned id, unsigned num_shards)
{
    Shard s;
    std::unordered_map<uint32_t, uint32_t> local;
    for (uint32_t u = 0; u < w.numNodes; ++u) {
        if (shardOf(u, num_shards) == id)
            local.emplace(u, static_cast<uint32_t>(local.size()));
    }
    s.numLocalNodes = static_cast<uint32_t>(local.size());
    for (const Edge &e : w.baseEdges) {
        if (shardOf(e.src, num_shards) == id)
            s.baseEdges.push_back({local.at(e.src), e.dst});
    }
    for (const Edge &e : w.updateEdges) {
        if (shardOf(e.src, num_shards) == id)
            s.updateEdges.push_back({local.at(e.src), e.dst});
    }
    return s;
}

void
expectSameEdges(const std::vector<Edge> &a, const std::vector<Edge> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].src, b[i].src) << "edge " << i;
        EXPECT_EQ(a[i].dst, b[i].dst) << "edge " << i;
    }
}

/** Compare partitionShards against the per-shard reference. */
void
expectMatchesNaive(const UpdateWorkload &w, unsigned num_shards,
                   const std::vector<unsigned> &ids)
{
    const ShardPartition p = partitionShards(w, num_shards, ids);
    ASSERT_EQ(p.shards.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "shard " << ids[i] << " of "
                                        << num_shards);
        const Shard ref = naiveShard(w, ids[i], num_shards);
        EXPECT_EQ(p.shards[i].numLocalNodes, ref.numLocalNodes);
        expectSameEdges(p.shards[i].baseEdges, ref.baseEdges);
        expectSameEdges(p.shards[i].updateEdges, ref.updateEdges);
    }
    ASSERT_EQ(p.updateEdgeCounts.size(), num_shards);
    for (unsigned j = 0; j < num_shards; ++j) {
        EXPECT_EQ(p.updateEdgeCounts[j],
                  naiveShard(w, j, num_shards).updateEdges.size());
    }
}

/** A random workload over @p nodes nodes. */
UpdateWorkload
randomWorkload(util::Rng &rng, uint32_t nodes, size_t base, size_t updates)
{
    UpdateWorkload w;
    w.numNodes = nodes;
    auto edge = [&] {
        return Edge{static_cast<uint32_t>(rng.uniformInt(nodes)),
                    static_cast<uint32_t>(rng.uniformInt(nodes))};
    };
    for (size_t i = 0; i < base; ++i)
        w.baseEdges.push_back(edge());
    for (size_t i = 0; i < updates; ++i)
        w.updateEdges.push_back(edge());
    return w;
}

} // namespace

TEST(ShardPartition, MatchesPerShardScanOnRandomGraphs)
{
    util::Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        const uint32_t nodes = 2 + static_cast<uint32_t>(rng.uniformInt(300));
        const unsigned shards = 1 + static_cast<unsigned>(rng.uniformInt(12));
        const size_t base = rng.uniformInt(1500);
        const size_t updates = rng.uniformInt(600);
        const UpdateWorkload w = randomWorkload(rng, nodes, base, updates);
        std::vector<unsigned> all(shards);
        for (unsigned j = 0; j < shards; ++j)
            all[j] = j;
        expectMatchesNaive(w, shards, all);
    }
}

TEST(ShardPartition, UnorderedSubsetOfShards)
{
    util::Rng rng(3);
    const UpdateWorkload w = randomWorkload(rng, 500, 3000, 1000);
    expectMatchesNaive(w, 16, {9, 2, 15, 0, 7});
    expectMatchesNaive(w, 16, {});
}

TEST(ShardPartition, MoreShardsThanNodesLeavesSomeEmpty)
{
    util::Rng rng(5);
    const UpdateWorkload w = randomWorkload(rng, 6, 40, 20);
    std::vector<unsigned> all(64);
    for (unsigned j = 0; j < 64; ++j)
        all[j] = j;
    const ShardPartition p = partitionShards(w, 64, all);
    const size_t empty = static_cast<size_t>(std::count_if(
        p.shards.begin(), p.shards.end(),
        [](const Shard &s) { return s.numLocalNodes == 0; }));
    EXPECT_GE(empty, 64u - 6u);
    expectMatchesNaive(w, 64, all);
}

TEST(ShardPartition, NodesOnlyInTheUpdateStream)
{
    // Nodes 0..49 have base edges; nodes 50..99 appear only as update
    // sources; nodes 100..119 appear in no edge at all. Every node
    // still gets a local id in its shard.
    util::Rng rng(9);
    UpdateWorkload w;
    w.numNodes = 120;
    for (int i = 0; i < 400; ++i) {
        w.baseEdges.push_back(
            {static_cast<uint32_t>(rng.uniformInt(50)),
             static_cast<uint32_t>(rng.uniformInt(120))});
        w.updateEdges.push_back(
            {50 + static_cast<uint32_t>(rng.uniformInt(50)),
             static_cast<uint32_t>(rng.uniformInt(120))});
    }
    expectMatchesNaive(w, 4, {3, 1, 0, 2});
    const ShardPartition p = partitionShards(w, 4, {0, 1, 2, 3});
    uint32_t nodes = 0;
    for (const Shard &s : p.shards)
        nodes += s.numLocalNodes;
    EXPECT_EQ(nodes, 120u);
}

TEST(UpdateDriver, FullSystemGoldenValues)
{
    // Simulated results of 8-DPU full-system runs (every DPU
    // materialized), through the single launch (1 round) and through
    // the round-driven stepper (4 shipped rounds). Host-side changes to
    // sharding or set-up must reproduce them exactly.
    struct Golden
    {
        StructureKind structure;
        core::AllocatorKind allocator;
        bool stepper;
        double updateSeconds;
        std::array<uint64_t, sim::kNumCycleKinds> cycles;
        uint64_t mallocCalls;
        uint64_t trafficBytes;
    };
    const Golden golden[] = {
        {StructureKind::LinkedList, core::AllocatorKind::PimMallocSw, false,
         0x1.24da3025430bbp-10, {2866380, 8760972, 1539520, 7308152}, 3000,
         1457920},
        {StructureKind::LinkedList, core::AllocatorKind::PimMallocSw, true,
         0x1.2464d7eaca827p-10, {2866380, 5372400, 1539520, 11559668}, 3000,
         1457920},
        {StructureKind::VarArray, core::AllocatorKind::PimMallocHwSw, false,
         0x1.52fee1cdfe5c7p-14, {100474, 0, 635456, 517254}, 239, 108160},
        {StructureKind::VarArray, core::AllocatorKind::PimMallocHwSw, true,
         0x1.52fee1cdfe5c7p-14, {100474, 0, 635456, 594742}, 239, 108160},
        {StructureKind::StaticCsr, core::AllocatorKind::PimMallocSw, false,
         0x1.4bd24dded4f48p-8, {2635787, 38992712, 8288256, 37996869}, 0,
         13927424},
        {StructureKind::StaticCsr, core::AllocatorKind::PimMallocSw, true,
         0x1.4ef8aa451fe37p-8, {2647557, 40695072, 8322016, 38681227}, 0,
         13998016},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(testing::Message()
                     << structureKindName(g.structure)
                     << (g.stepper ? ", stepper" : ", single launch"));
        GraphUpdateConfig cfg = smallCfg(g.structure, g.allocator);
        cfg.sampleDpus = 0;
        if (g.stepper) {
            cfg.updateRounds = 4;
            cfg.shipUpdates = true;
        }
        const auto r = runGraphUpdate(cfg);
        EXPECT_EQ(r.updateSeconds, g.updateSeconds);
        for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
            EXPECT_EQ(r.breakdown.cycles[k], g.cycles[k]) << "kind " << k;
        EXPECT_EQ(r.allocStats.mallocCalls, g.mallocCalls);
        EXPECT_EQ(r.traffic.totalBytes(), g.trafficBytes);
    }
}

TEST(UpdateDriver, ProducesThroughputAndBreakdown)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_GT(r.millionEdgesPerSec, 0.0);
    EXPECT_EQ(r.updateEdgesTotal, 3000u);
    EXPECT_GT(r.breakdown.total(), 0u);
    EXPECT_GT(r.allocStats.mallocCalls, 0u);
    EXPECT_GT(r.metadataBytes, 0u);
    EXPECT_GT(r.fragmentation, 0.0);
}

TEST(UpdateDriver, StaticCsrNeedsNoAllocator)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::StaticCsr, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_EQ(r.allocStats.mallocCalls, 0u);
}

TEST(UpdateDriver, Deterministic)
{
    const auto cfg = smallCfg(StructureKind::VarArray,
                              core::AllocatorKind::PimMallocHwSw);
    const auto a = runGraphUpdate(cfg);
    const auto b = runGraphUpdate(cfg);
    EXPECT_EQ(a.updateSeconds, b.updateSeconds);
    EXPECT_EQ(a.allocStats.mallocCalls, b.allocStats.mallocCalls);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(UpdateDriver, PimMallocBeatsStrawMan)
{
    // Fig 17(a): dynamic structures on PIM-malloc outperform the same
    // structures on the straw-man allocator.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(sw.millionEdgesPerSec, straw.millionEdgesPerSec);
}

TEST(UpdateDriver, HwSwReducesMetadataTraffic)
{
    // Fig 17(d): the hardware buddy cache moves less metadata than the
    // coarse software buffer.
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    const auto hw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocHwSw));
    EXPECT_LT(hw.traffic.metadataBytes(), sw.traffic.metadataBytes());
}

TEST(UpdateDriver, StrawManBusyWaitsMoreThanPimMalloc)
{
    // Fig 17(a) breakdown: the straw-man's single mutex causes heavy
    // busy-waiting; the thread cache removes most of it.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(straw.breakdown.fraction(sim::CycleKind::BusyWait),
              sw.breakdown.fraction(sim::CycleKind::BusyWait));
}

TEST(UpdateDriver, TraceEventsRecorded)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.traceEvents = true;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.allocStats.events.size(), r.allocStats.mallocCalls);
}

TEST(UpdateDriver, MaxUpdateEdgesTruncates)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.maxUpdateEdges = 100;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.updateEdgesTotal, 100u);
}

TEST(UpdateDriver, Fig3StaticSlowdownGrowsWithGraphSize)
{
    // Fig 3(c): with a fixed number of new edges, static CSR update
    // time grows with the pre-update graph while the dynamic structure
    // stays flat.
    auto seconds = [](StructureKind s, uint32_t scale) {
        GraphUpdateConfig cfg =
            smallCfg(s, core::AllocatorKind::PimMallocSw);
        cfg.gen.numEdges = 3000u * scale;
        cfg.gen.numNodes = 1000u * scale;
        cfg.maxUpdateEdges = 200;
        return runGraphUpdate(cfg).updateSeconds;
    };
    const double static_small = seconds(StructureKind::StaticCsr, 1);
    const double static_large = seconds(StructureKind::StaticCsr, 4);
    const double dyn_small = seconds(StructureKind::LinkedList, 1);
    const double dyn_large = seconds(StructureKind::LinkedList, 4);
    EXPECT_GT(static_large, 1.5 * static_small);
    EXPECT_LT(dyn_large, 1.5 * dyn_small + 1e-6);
}
