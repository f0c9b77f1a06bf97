/**
 * @file
 * Tests for the telemetry subsystem: the ObserverMux fan-out, counter
 * conservation of the TelemetryCollector against the MetricsCollector
 * on a small mesh, epoch-sampling semantics, and the shape of the
 * CSV / Chrome-trace exports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "telemetry/telemetry.hh"

namespace noc
{
namespace
{

// ---------------------------------------------------------------
// ObserverMux
// ---------------------------------------------------------------

/** Observer that logs which instance saw which event, in order. */
class RecordingObserver : public NetObserver
{
  public:
    explicit RecordingObserver(std::vector<std::string> *log,
                               std::string name)
        : log_(log), name_(std::move(name))
    {
    }

    void onFlitEjected(NodeId node, const Flit &flit, Cycle now) override
    {
        (void)flit;
        (void)now;
        log_->push_back(name_ + ":eject@" + std::to_string(node));
    }

    void onMissedSlot(NodeId node, Port out, Cycle now) override
    {
        (void)out;
        (void)now;
        log_->push_back(name_ + ":miss@" + std::to_string(node));
    }

  private:
    std::vector<std::string> *log_;
    std::string name_;
};

TEST(ObserverMux, IgnoresNullAndDuplicates)
{
    std::vector<std::string> log;
    RecordingObserver a(&log, "a");
    ObserverMux mux;
    mux.add(nullptr);
    EXPECT_EQ(mux.numTargets(), 0u);
    mux.add(&a);
    mux.add(&a); // duplicate: not added twice
    EXPECT_EQ(mux.numTargets(), 1u);

    Flit f;
    mux.observe(FlitEjected{3, f, 10});
    EXPECT_EQ(log, (std::vector<std::string>{"a:eject@3"}));
}

TEST(ObserverMux, FanOutInRegistrationOrder)
{
    std::vector<std::string> log;
    RecordingObserver a(&log, "a");
    RecordingObserver b(&log, "b");
    ObserverMux mux;
    mux.add(&a);
    mux.add(&b);

    Flit f;
    mux.observe(FlitEjected{1, f, 5});
    mux.observe(MissedSlot{2, Port::East, 6});
    EXPECT_EQ(log, (std::vector<std::string>{"a:eject@1", "b:eject@1",
                                             "a:miss@2", "b:miss@2"}));
}

TEST(ObserverMux, RemoveDetachesOneTarget)
{
    std::vector<std::string> log;
    RecordingObserver a(&log, "a");
    RecordingObserver b(&log, "b");
    ObserverMux mux;
    mux.add(&a);
    mux.add(&b);
    mux.remove(&a);
    EXPECT_EQ(mux.numTargets(), 1u);

    Flit f;
    mux.observe(FlitEjected{0, f, 1});
    EXPECT_EQ(log, (std::vector<std::string>{"b:eject@0"}));
    mux.remove(&a); // absent: no-op
    EXPECT_EQ(mux.numTargets(), 1u);
}

// ---------------------------------------------------------------
// TelemetryCollector on a live 4x4 LOFT mesh
// ---------------------------------------------------------------

RunConfig
telemetryConfig(std::uint64_t seed = 7)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 1000;
    c.measureCycles = 3000;
    c.seed = seed;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 250;
    return c;
}

RunResult
telemetryRun(std::uint64_t seed = 7)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    return runExperiment(telemetryConfig(seed), p, 0.15);
}

TEST(Telemetry, OffByDefault)
{
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = telemetryConfig();
    c.telemetry.enabled = false;
    const RunResult r = runExperiment(c, p, 0.1);
    EXPECT_EQ(r.telemetry, nullptr);
}

TEST(Telemetry, WindowCountersMatchMetricsCollector)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";

    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    // The telemetry measurement window brackets the same cycles as
    // the MetricsCollector's, so ejection-side totals agree exactly.
    EXPECT_EQ(t.windowTotalFlits(), r.totalFlits);
    EXPECT_EQ(t.windowTotalPackets(), r.totalPackets);

    // Latency comes from the same (createdAt, ejection cycle) pairs;
    // means agree up to accumulation order (Welford vs plain sum).
    EXPECT_EQ(t.allLatency().count(), r.totalPackets);
    EXPECT_NEAR(t.allLatency().mean(), r.avgPacketLatency,
                1e-9 * (1.0 + r.avgPacketLatency));
    EXPECT_DOUBLE_EQ(t.allLatency().maxSample(), r.maxPacketLatency);

    // Per-flow decomposition sums back to the totals, and each flow's
    // histogram holds exactly its window packet count.
    std::uint64_t flits = 0, pkts = 0;
    for (const FlowSpec &f : uniformPattern(Mesh2D(4, 4)).flows) {
        flits += t.windowFlits(f.id);
        pkts += t.windowPackets(f.id);
        EXPECT_EQ(t.flowLatency(f.id).count(), t.windowPackets(f.id));
    }
    EXPECT_EQ(flits, r.totalFlits);
    EXPECT_EQ(pkts, r.totalPackets);

    // Class histograms partition the same packets.
    std::uint64_t class_pkts = 0;
    for (std::size_t c = 0; c < t.numClasses(); ++c)
        class_pkts += t.classLatency(c).count();
    EXPECT_EQ(class_pkts, r.totalPackets);
}

TEST(Telemetry, EpochsTileTheRunContiguously)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";

    RunConfig c = telemetryConfig();
    const Cycle total = c.warmupCycles + c.measureCycles;
    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    ASSERT_FALSE(t.epochs().empty());
    EXPECT_EQ(t.epochs().front().start, 0u);
    EXPECT_EQ(t.epochs().back().end, total);
    for (std::size_t i = 1; i < t.epochs().size(); ++i) {
        EXPECT_EQ(t.epochs()[i - 1].end, t.epochs()[i].start);
        EXPECT_LE(t.epochs()[i].end - t.epochs()[i].start,
                  c.telemetry.epochCycles);
    }

    // Per-epoch deltas sum back to the cumulative lane counters.
    const std::size_t lanes = 16 * TelemetryCollector::kNumLanes;
    std::vector<std::uint64_t> forwarded(lanes, 0);
    for (const TelemetryEpoch &ep : t.epochs())
        for (std::size_t i = 0; i < lanes; ++i)
            forwarded[i] += ep.lanes[i].flitsForwarded;
    for (NodeId n = 0; n < 16; ++n)
        for (std::size_t l = 0; l < TelemetryCollector::kNumLanes; ++l)
            EXPECT_EQ(forwarded[n * TelemetryCollector::kNumLanes + l],
                      t.lane(n, l).flitsForwarded)
                << "node " << n << " lane " << l;
}

TEST(Telemetry, ExportsHaveTheDocumentedShape)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";

    const RunResult r = telemetryRun();
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;

    // Time series: header + one row per (epoch, node, lane).
    const std::string csv = t.timeSeriesCsv();
    EXPECT_EQ(csv.compare(0, 5, "epoch"), 0);
    const std::size_t rows =
        static_cast<std::size_t>(
            std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(rows, 1 + t.epochs().size() * t.numNodes() *
                        TelemetryCollector::kNumLanes);

    // Heatmap: height rows of width comma-separated values in [0, 1].
    const std::string heat = t.heatmapCsv();
    std::size_t lines = 0, commas = 0;
    for (char ch : heat) {
        lines += ch == '\n';
        commas += ch == ',';
    }
    EXPECT_EQ(lines, t.meshHeight());
    EXPECT_EQ(commas, t.meshHeight() * (t.meshWidth() - 1));
    for (std::size_t pos = 0; pos < heat.size();) {
        const double v = std::stod(heat.substr(pos));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
        pos = heat.find_first_of(",\n", pos);
        ASSERT_NE(pos, std::string::npos);
        ++pos;
    }

    // Trace: one span begin per accepted packet, one end per
    // delivered packet, wrapped in a traceEvents array.
    const std::string trace = t.chromeTraceJson();
    EXPECT_EQ(trace.compare(0, 16, "{\"traceEvents\":["), 0);
    std::size_t begins = 0, ends = 0;
    for (std::size_t pos = trace.find("\"ph\":\"b\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\":\"b\"", pos + 1))
        ++begins;
    for (std::size_t pos = trace.find("\"ph\":\"e\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\":\"e\"", pos + 1))
        ++ends;
    EXPECT_GE(begins, ends); // in-flight packets never closed
    EXPECT_GT(ends, 0u);
    EXPECT_EQ(t.traceEventsDropped(), 0u);
}

TEST(Telemetry, ComposesWithAuditorAndStaysPassive)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";

    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);

    // Reference: no observers at all.
    RunConfig bare = telemetryConfig();
    bare.audit = false;
    bare.telemetry.enabled = false;
    const RunResult ref = runExperiment(bare, p, 0.15);

    // Audit + telemetry together through the ObserverMux.
    RunConfig both = telemetryConfig();
    both.audit = true;
    const RunResult r = runExperiment(both, p, 0.15);

    ASSERT_NE(r.telemetry, nullptr);
    EXPECT_EQ(r.auditHardViolations, 0u);

    // Observation must not perturb the simulation.
    EXPECT_EQ(ref.totalFlits, r.totalFlits);
    EXPECT_EQ(ref.totalPackets, r.totalPackets);
    EXPECT_DOUBLE_EQ(ref.avgPacketLatency, r.avgPacketLatency);
    EXPECT_DOUBLE_EQ(ref.networkThroughput, r.networkThroughput);
}

TEST(Telemetry, DosClassesAreLabelledFromThePattern)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";

    Mesh2D mesh(8, 8); // dosPattern needs the paper's 8x8 mesh
    const TrafficPattern p = dosPattern(mesh);
    std::vector<FlowRate> rates(p.flows.size());
    rates[0].flitsPerCycle = 0.2;
    rates[0].process = InjectionProcess::Periodic;
    rates[1].flitsPerCycle = 0.6;
    rates[2].flitsPerCycle = 0.6;

    RunConfig c = telemetryConfig();
    c.meshWidth = 8;
    c.meshHeight = 8;
    c.warmupCycles = 500;
    c.measureCycles = 1500;
    const RunResult r = runExperiment(c, p, rates);
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryCollector &t = *r.telemetry;
    ASSERT_EQ(t.numClasses(), p.groupNames.size());
    for (std::size_t c = 0; c < t.numClasses(); ++c)
        EXPECT_EQ(t.className(c), p.groupNames[c]);
    const ReportTable table = t.classLatencyTable();
    EXPECT_EQ(table.numRows(), t.numClasses());
}

TEST(Telemetry, FlowTailLatencyIsReportedByDefault)
{
    // Satellite check: p99 comes from MetricsCollector's LogHistogram
    // even with telemetry disabled.
    Mesh2D mesh(4, 4);
    TrafficPattern p = uniformPattern(mesh);
    setEqualSharesByMaxFlows(p.flows, 16);
    RunConfig c = telemetryConfig();
    c.telemetry.enabled = false;
    const RunResult r = runExperiment(c, p, 0.15);

    ASSERT_EQ(r.flowP99Latency.size(), r.flowAvgLatency.size());
    for (std::size_t i = 0; i < r.flowP99Latency.size(); ++i) {
        if (r.flowThroughput[i] <= 0.0)
            continue;
        EXPECT_GE(r.flowP99Latency[i], r.flowAvgLatency[i] * 0.5);
        EXPECT_LE(r.flowP99Latency[i], r.flowMaxLatency[i] + 1e-9);
    }
    EXPECT_GE(r.p99PacketLatency, r.p50PacketLatency);
}

TEST(ChromeTraceWriter, EventsOverTheCapAreCountedNotFormatted)
{
    // Cap 6: the 4 metadata events (exempt, but counted) leave room
    // for 2 of the 3 events; the third is never formatted.
    ChromeTraceWriter w(6);
    w.nameTracks(1, "p", 3);
    int formatted = 0;
    for (int i = 0; i < 3; ++i) {
        w.add([&](JsonWriter &j) {
            ++formatted;
            j.field("i", i);
        });
    }
    EXPECT_EQ(formatted, 2);
    EXPECT_EQ(w.size(), 6u);
    EXPECT_EQ(w.dropped(), 1u);
    std::string threads;
    for (int t = 0; t < 3; ++t) {
        threads += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":" + std::to_string(t) +
                   ",\"args\":{\"name\":\"node " + std::to_string(t) +
                   "\"}},\n";
    }
    EXPECT_EQ(chromeTraceJson(w, 3, 1),
              "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\","
              "\"pid\":1,\"args\":{\"name\":\"p\"}},\n" +
                  threads +
                  "{\"i\":0},\n{\"i\":1}],\"displayTimeUnit\":\"ms\","
                  "\"otherData\":{\"dropped_events\":1,\"mesh\":\"3x1\"}}\n");
}

} // namespace
} // namespace noc
