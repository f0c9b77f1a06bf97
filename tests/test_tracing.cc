/**
 * @file
 * Tests for the causal trace collector (src/trace): exact stage
 * decomposition on all three NetKinds, blame attribution, dump
 * determinism, summary consolidation, and the flight recorder.
 */

#include <gtest/gtest.h>

#include <string>

#include "blame_report.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "qos/allocation.hh"

namespace noc
{
namespace
{

RunConfig
tracedConfig(NetKind kind, std::uint64_t seed = 42)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 500;
    c.measureCycles = 2500;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.gsf.frameSizeFlits = 200;
    c.gsf.sourceQueueFlits = 200;
    c.trace.enabled = true;
    c.trace.sampleRate = 1.0; // every packet becomes an exemplar
    return c;
}

/** Parse @p text as JSON, failing the test when it is malformed. */
blame::Json
parsed(const std::string &text)
{
    blame::Json doc;
    std::string error;
    EXPECT_TRUE(blame::parseJson(text, doc, error)) << error;
    return doc;
}

TrafficPattern
flows(const Mesh2D &mesh)
{
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return p;
}

class TraceKinds : public ::testing::TestWithParam<NetKind>
{
};

TEST_P(TraceKinds, StageDecompositionSumsExactly)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    const RunResult r =
        runExperiment(tracedConfig(GetParam()), flows(mesh), 0.15);
    ASSERT_NE(r.trace, nullptr);
    const TraceSummary &s = r.traceSummary;
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.packetsTraced, 0u);
    // Every traced packet's stages summed EXACTLY to its measured
    // latency; a single off-by-one anywhere trips this.
    EXPECT_EQ(s.decompositionMismatches, 0u);
    // ... so the aggregate identity holds too: additive stages minus
    // the speculative savings equal the summed end-to-end latency.
    std::uint64_t additive = 0;
    for (std::size_t i = 0; i < kNumTraceStages; ++i) {
        if (static_cast<TraceStage>(i) != TraceStage::SpecSavings)
            additive += s.stageCycles[i];
    }
    EXPECT_EQ(additive -
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::SpecSavings)],
              s.totalLatencyCycles);
    // sampleRate = 1.0: every delivered packet was sampled.
    EXPECT_EQ(s.packetsSampled, s.packetsTraced);
}

TEST_P(TraceKinds, DumpJsonIsWellFormedAndDeterministic)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    const RunConfig c = tracedConfig(GetParam());
    const RunResult a = runExperiment(c, flows(mesh), 0.15);
    const RunResult b = runExperiment(c, flows(mesh), 0.15);
    ASSERT_NE(a.trace, nullptr);
    ASSERT_NE(b.trace, nullptr);
    const std::string da = a.trace->dumpJson("test", 3000);
    EXPECT_EQ(da, b.trace->dumpJson("test", 3000));
    EXPECT_NE(da.find("\"schema\":\"loft-trace-dump/1\""),
              std::string::npos);
    EXPECT_NE(da.find("\"exemplars\":["), std::string::npos);
    EXPECT_NE(da.find("\"flight\":["), std::string::npos);
    const blame::Json doc = parsed(da);
    EXPECT_EQ(doc.text("schema"), "loft-trace-dump/1");
    EXPECT_EQ(doc.text("reason"), "test");
    const blame::Json *packets = doc.find("packets");
    ASSERT_NE(packets, nullptr);
    EXPECT_EQ(packets->u64("traced"), a.traceSummary.packetsTraced);
    const blame::Json *exemplars = doc.find("exemplars");
    ASSERT_NE(exemplars, nullptr);
    EXPECT_FALSE(exemplars->items.empty());
}

INSTANTIATE_TEST_SUITE_P(Kinds, TraceKinds,
                         ::testing::Values(NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole));

TEST(Tracing, LoftUsesReservationStages)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    const RunResult r = runExperiment(tracedConfig(NetKind::Loft),
                                      flows(mesh), 0.15);
    const TraceSummary &s = r.traceSummary;
    // LOFT decisions come from the look-ahead protocol: the NI grant
    // splits the source wait, and hop residency is not all "stall".
    EXPECT_GT(s.stageCycles[static_cast<std::size_t>(
                  TraceStage::SrcReservation)] +
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::ReservationWait)] +
                  s.stageCycles[static_cast<std::size_t>(
                      TraceStage::SpecSavings)],
              0u);
    EXPECT_GT(s.stageCycles[static_cast<std::size_t>(TraceStage::Link)],
              0u);
}

TEST(Tracing, ContentionProducesBlame)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    TrafficPattern p = hotspotPattern(mesh, 15);
    setEqualSharesByMaxFlows(p.flows, 16);
    const RunResult r = runExperiment(
        tracedConfig(NetKind::Wormhole), p, 0.4);
    const TraceSummary &s = r.traceSummary;
    // 15 flows hammering one sink: stall cycles exist and most are
    // attributable to a specific competing flow.
    EXPECT_GT(s.blameAttributed, 0u);
    ASSERT_FALSE(s.topInterference.empty());
    const TraceInterference &top = s.topInterference.front();
    EXPECT_NE(top.victim, top.aggressor);
    EXPECT_GT(top.cycles, 0u);
    // Descending order.
    for (std::size_t i = 1; i < s.topInterference.size(); ++i)
        EXPECT_GE(s.topInterference[i - 1].cycles,
                  s.topInterference[i].cycles);
}

TEST(Tracing, SamplingBoundsExemplarsButNotAggregates)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.trace.sampleRate = 0.0;
    c.trace.tailExemplars = 4;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    const TraceSummary &s = r.traceSummary;
    EXPECT_GT(s.packetsTraced, 0u);   // aggregates cover every packet
    EXPECT_EQ(s.packetsSampled, 0u);  // no sampled exemplars
    EXPECT_EQ(s.decompositionMismatches, 0u);
    // Only the tail set remains in the dump.
    const std::string dump = r.trace->dumpJson("test", 3000);
    EXPECT_NE(dump.find("\"tail\":true"), std::string::npos);
    EXPECT_EQ(dump.find("\"tail\":false"), std::string::npos);
}

TEST(Tracing, MergeTraceSummariesIsAdditive)
{
    TraceSummary a;
    a.enabled = true;
    a.packetsTraced = 3;
    a.totalLatencyCycles = 30;
    a.stageCycles[0] = 30;
    a.blameAttributed = 5;
    a.topInterference.push_back(TraceInterference{1, 2, 5});
    TraceSummary b = a;
    b.packetsTraced = 2;
    b.topInterference.push_back(TraceInterference{1, 3, 9});

    const TraceSummary m = mergeTraceSummaries({a, b});
    EXPECT_TRUE(m.enabled);
    EXPECT_EQ(m.packetsTraced, 5u);
    EXPECT_EQ(m.totalLatencyCycles, 60u);
    EXPECT_EQ(m.stageCycles[0], 60u);
    EXPECT_EQ(m.blameAttributed, 10u);
    ASSERT_EQ(m.topInterference.size(), 2u);
    EXPECT_EQ(m.topInterference[0].cycles, 10u); // 1<-2: 5+5
    EXPECT_EQ(m.topInterference[1].cycles, 9u);  // 1<-3: once

    const TraceSummary none = mergeTraceSummaries({});
    EXPECT_FALSE(none.enabled);
}

TEST(Tracing, DisabledConfigAttachesNoCollector)
{
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.trace.enabled = false;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_FALSE(r.traceSummary.enabled);
}

TEST(Tracing, SweepConsolidationMergesTracedCases)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    SweepConfig sc;
    sc.base = tracedConfig(NetKind::Loft);
    sc.seeds = {1, 2};
    sc.loads = {0.15};
    const SweepResults res = runSweep(sc, [](const SweepCase &c) {
        Mesh2D mesh(c.config.meshWidth, c.config.meshHeight);
        return runExperiment(c.config, flows(mesh), c.load);
    });
    ASSERT_EQ(res.results.size(), 2u);
    const TraceSummary m = consolidateTraceSummaries(res);
    EXPECT_TRUE(m.enabled);
    EXPECT_EQ(m.packetsTraced,
              res.results[0].traceSummary.packetsTraced +
                  res.results[1].traceSummary.packetsTraced);
    EXPECT_EQ(m.decompositionMismatches, 0u);
}

TEST(Tracing, SpanExportMergesWithTelemetry)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    Mesh2D mesh(4, 4);
    RunConfig c = tracedConfig(NetKind::Loft);
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 500;
    const RunResult r = runExperiment(c, flows(mesh), 0.15);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->spanWriter().size(), 0u);
    const std::string merged = chromeTraceJson(
        {&r.telemetry->traceWriter(), &r.trace->spanWriter()},
        c.meshWidth, c.meshHeight);
    // One loadable document containing both processes.
    EXPECT_NE(merged.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(merged.find("\"cat\":\"stage\""), std::string::npos);
    const blame::Json doc = parsed(merged);
    const blame::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->items.size(), r.telemetry->traceWriter().size() +
                                        r.trace->spanWriter().size());
}

} // namespace
} // namespace noc
