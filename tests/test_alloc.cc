/**
 * @file
 * Tests for the zero-allocation steady state: the heap-allocation
 * census (sim/alloc), the growable ring deque it relies on
 * (sim/ring_deque), allocation-free GSF frame churn, the full-width
 * flit payload mix (ScalePayload regressions), and the end-to-end
 * guarantee that the measurement phase of an experiment performs zero
 * heap allocations on all three network kinds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "gsf/gsf_barrier.hh"
#include "harness/experiment.hh"
#include "net/flit.hh"
#include "qos/allocation.hh"
#include "sim/alloc.hh"
#include "sim/ring_deque.hh"
#include "traffic/pattern.hh"

namespace noc
{
namespace
{

TEST(AllocCensus, CountsOperatorNewAndDelete)
{
    const std::uint64_t before = heapAllocCount();
    int *p = new int(42);
    const std::uint64_t after = heapAllocCount();
    EXPECT_GT(after, before);
    delete p;
    // Deallocation never decrements: the census counts allocation
    // events, not live bytes.
    EXPECT_GE(heapAllocCount(), after);
}

TEST(RingDeque, MatchesDequeReference)
{
    RingDeque<int> ring;
    std::deque<int> ref;
    // Deterministic mixed push/pop schedule crossing several growth
    // boundaries, including wrapped head positions.
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (int step = 0; step < 20000; ++step) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const int op = static_cast<int>(x >> 61);
        if (op < 5 || ref.empty()) {
            const int v = static_cast<int>(x & 0xffff);
            ring.push_back(v);
            ref.push_back(v);
        } else {
            ASSERT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        ASSERT_EQ(ring.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ASSERT_EQ(ring.back(), ref.back());
        }
    }
    while (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingDeque, InsertAtKeepsOrder)
{
    RingDeque<int> ring;
    // Force a wrapped layout: fill, drain half, refill.
    for (int i = 0; i < 12; ++i)
        ring.push_back(i);
    for (int i = 0; i < 6; ++i)
        ring.pop_front();
    for (int i = 12; i < 18; ++i)
        ring.push_back(i);
    // ring = [6..17]; insert in the middle and at both ends.
    ring.insertAt(0, 100);
    ring.insertAt(5, 200);
    ring.insertAt(ring.size(), 300);
    std::vector<int> expect = {100, 6, 7, 8, 9, 200, 10, 11, 12, 13,
                               14, 15, 16, 17, 300};
    ASSERT_EQ(ring.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(ring[i], expect[i]) << "index " << i;
}

TEST(RingDeque, SteadyChurnDoesNotAllocate)
{
    RingDeque<std::uint64_t> ring;
    // Warm up to the high-water occupancy. The churn loop pushes
    // before popping, so its peak is 65 elements — run one iteration
    // of it here so the capacity plateaus before the census sample.
    for (int i = 0; i < 64; ++i)
        ring.push_back(i);
    ring.push_back(64);
    ring.pop_front();
    const std::uint64_t allocs0 = heapAllocCount();
    // FIFO churn at or below the high-water mark: a std::deque would
    // allocate/free 512-byte map nodes here; the ring must not.
    for (int i = 0; i < 100000; ++i) {
        ring.push_back(i);
        ring.pop_front();
    }
    EXPECT_EQ(heapAllocCount(), allocs0);
}

TEST(GsfBarrier, NoRehashOrAllocationUnderFrameChurn)
{
    GsfBarrier barrier(4, 8);
    Cycle now = 0;
    // Warm-up: one full cycle of admissions/ejections/advances.
    for (int round = 0; round < 100; ++round) {
        barrier.onPacketAdmitted(barrier.headFrame(), 4);
        for (int f = 0; f < 4; ++f)
            barrier.onFlitEjected(barrier.headFrame());
        for (int t = 0; t < 12; ++t)
            barrier.tick(now++);
    }
    const std::uint64_t allocs0 = heapAllocCount();
    for (int round = 0; round < 2000; ++round) {
        barrier.onPacketAdmitted(barrier.headFrame(), 4);
        barrier.onPacketAdmitted(barrier.newestFrame(), 2);
        for (int f = 0; f < 4; ++f)
            barrier.onFlitEjected(barrier.headFrame());
        for (int f = 0; f < 2; ++f)
            barrier.onFlitEjected(barrier.newestFrame());
        for (int t = 0; t < 12; ++t)
            barrier.tick(now++);
    }
    EXPECT_EQ(heapAllocCount(), allocs0);
}

// ---- ScalePayload: full-width payload mix regressions ---------------

TEST(ScalePayload, OldShiftCollidersAreDistinct)
{
    // The pre-fix payload was (flow << 40) ^ flitNo, so these pairs
    // collided exactly. The mixed payload must keep them apart.
    EXPECT_NE(flitPayload(1, 0), flitPayload(0, std::uint64_t(1) << 40));
    EXPECT_NE(flitPayload(3, 7),
              flitPayload(0, (std::uint64_t(3) << 40) ^ 7));
}

TEST(ScalePayload, LargeFlowIdsDoNotAlias)
{
    // flow << 40 in 64 bits truncated flow ids at 2^24: flow and
    // flow + 2^24 produced identical payload streams.
    const FlowId small = 5;
    const FlowId large = (FlowId(1) << 24) + 5;
    for (std::uint64_t n = 0; n < 64; ++n)
        ASSERT_NE(flitPayload(small, n), flitPayload(large, n))
            << "flit " << n;
}

TEST(ScalePayload, NoCollisionsAcrossWideSample)
{
    // Flows up to 2^31 and flit numbers up to 2^44: every payload in
    // the sample must be unique (the end-to-end corruption check
    // depends on payload mismatches being meaningful).
    std::set<std::uint64_t> seen;
    const FlowId flow_probes[] = {0, 1, 255, (FlowId(1) << 24) - 1,
                                  FlowId(1) << 24, (FlowId(1) << 31) + 3};
    for (const FlowId f : flow_probes) {
        for (std::uint64_t n = 0; n < 512; ++n) {
            const std::uint64_t base =
                n < 256 ? n : (std::uint64_t(1) << 44) + n;
            ASSERT_TRUE(seen.insert(flitPayload(f, base)).second)
                << "collision at flow " << f << " flit " << base;
        }
    }
}

// ---- End-to-end: zero heap allocations in the measurement phase -----

RunConfig
steadyConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 8;
    c.meshHeight = 8;
    // The warm-up run is the allocation ramp (pool spawn, ring
    // high-water growth, bucket arrays); it must be long enough for
    // every container to reach its plateau. The runs are deterministic,
    // so this is not a tuning knob that can flake.
    c.warmupCycles = 4000;
    c.measureCycles = 3000;
    c.audit = false;
    c.loft.frameSizeFlits = 256;
    c.loft.centralBufferFlits = 256;
    c.loft.specBufferFlits = 16;
    c.loft.maxFlows = 64;
    c.loft.sourceQueueFlits = 64;
    return c;
}

void
expectZeroSteadyAllocs(NetKind kind)
{
    const RunConfig cfg = steadyConfig(kind);
    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    TrafficPattern pattern = uniformPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, cfg.loft.maxFlows);
    const RunResult r = runExperiment(cfg, pattern, 0.05);
    ASSERT_GT(r.totalPackets, 0u);
    EXPECT_EQ(r.steadyStateHeapAllocs, 0u)
        << "measurement phase allocated on the heap";
}

TEST(SteadyState, LoftMeasurePhaseIsAllocationFree)
{
    expectZeroSteadyAllocs(NetKind::Loft);
}

TEST(SteadyState, GsfMeasurePhaseIsAllocationFree)
{
    expectZeroSteadyAllocs(NetKind::Gsf);
}

TEST(SteadyState, WormholeMeasurePhaseIsAllocationFree)
{
    expectZeroSteadyAllocs(NetKind::Wormhole);
}

TEST(SteadyState, LoftShortWarmupIsAllocationFree)
{
    // bench_scale's 8x8 point at LOFT_SIM_SCALE=0.05: a 100-cycle
    // warm-up is too short for any table to reach its high-water mark,
    // so a zero here means first use and early growth do not allocate.
    RunConfig cfg = steadyConfig(NetKind::Loft);
    cfg.warmupCycles = 100;
    cfg.measureCycles = 200;
    Mesh2D mesh(cfg.meshWidth, cfg.meshHeight);
    TrafficPattern pattern = neighborPattern(mesh);
    setEqualSharesByMaxFlows(pattern.flows, cfg.loft.maxFlows);
    const RunResult r = runExperiment(cfg, pattern, 0.05);
    ASSERT_GT(r.totalPackets, 0u);
    EXPECT_EQ(r.steadyStateHeapAllocs, 0u)
        << "measurement phase allocated on the heap";
}

} // namespace
} // namespace noc
