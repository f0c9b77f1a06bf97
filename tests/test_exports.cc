/**
 * @file
 * Golden tests for the JSON exports: the trace dump, the merged Chrome
 * trace of the telemetry and trace span writers, and the report
 * document. Each export is compared byte for byte against a file under
 * tests/golden/; on a mismatch the actual output is written to
 * `<golden name>.actual` in the working directory for inspection.
 *
 * The runs are short 4x4 LOFT and wormhole runs with tiny buffer caps,
 * so the goldens stay small and the span writers really drop events.
 * Every number in the run-based goldens is an integer the simulation
 * counted; no computed double is pinned (those may round differently
 * on another libm).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "blame_report.hh"
#include "harness/experiment.hh"
#include "qos/allocation.hh"
#include "sim/report.hh"

namespace noc
{
namespace
{

void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::string path = std::string(LOFT_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    const std::string &e = expected.str();
    std::size_t at = 0;
    while (at < e.size() && at < actual.size() && e[at] == actual[at])
        ++at;
    ADD_FAILURE() << name << " differs from " << path << " at byte "
                  << at << " (expected " << e.size() << " bytes, got "
                  << actual.size() << "); actual output written to "
                  << name << ".actual";
}

blame::Json
parse(const std::string &text)
{
    blame::Json doc;
    std::string error;
    EXPECT_TRUE(blame::parseJson(text, doc, error)) << error;
    return doc;
}

RunConfig
exportConfig(NetKind kind)
{
    RunConfig c;
    c.kind = kind;
    c.meshWidth = 4;
    c.meshHeight = 4;
    c.warmupCycles = 100;
    c.measureCycles = 300;
    c.seed = 7;
    c.loft.frameSizeFlits = 64;
    c.loft.centralBufferFlits = 64;
    c.loft.specBufferFlits = 8;
    c.loft.maxFlows = 16;
    c.loft.sourceQueueFlits = 32;
    c.telemetry.enabled = true;
    c.telemetry.epochCycles = 100;
    c.telemetry.maxTraceEvents = 40;
    // Wormhole also pins the per-flit instant events.
    c.telemetry.traceFlits = kind == NetKind::Wormhole;
    c.trace.enabled = true;
    c.trace.sampleRate = 0.1;
    c.trace.tailExemplars = 2;
    c.trace.flightRingEvents = 4;
    c.trace.maxSpanEvents = 40;
    return c;
}

RunResult
exportRun(const RunConfig &c)
{
    Mesh2D mesh(c.meshWidth, c.meshHeight);
    TrafficPattern p = hotspotPattern(mesh, 15);
    setEqualSharesByMaxFlows(p.flows, 16);
    return runExperiment(c, p, 0.12);
}

std::string
mergedSpans(const RunResult &r, const RunConfig &c)
{
    return chromeTraceJson(
        {&r.telemetry->traceWriter(), &r.trace->spanWriter()},
        c.meshWidth, c.meshHeight);
}

class ExportKinds : public ::testing::TestWithParam<NetKind>
{
  protected:
    std::string
    prefix() const
    {
        return GetParam() == NetKind::Loft ? "exports_loft"
                                           : "exports_wormhole";
    }
};

TEST_P(ExportKinds, TraceDumpMatchesGolden)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    const RunConfig c = exportConfig(GetParam());
    const RunResult r = exportRun(c);
    ASSERT_NE(r.trace, nullptr);
    const std::string dump = r.trace->dumpJson("golden \"run\"", 400);
    expectGolden(prefix() + "_dump.json", dump);
    const blame::Json doc = parse(dump);
    EXPECT_EQ(doc.text("reason"), "golden \"run\"");
}

TEST_P(ExportKinds, MergedChromeTraceMatchesGolden)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    const RunConfig c = exportConfig(GetParam());
    const RunResult r = exportRun(c);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(r.trace, nullptr);
    const ChromeTraceWriter &tel = r.telemetry->traceWriter();
    const ChromeTraceWriter &spans = r.trace->spanWriter();
    // The caps really bind: both writers dropped events.
    EXPECT_GT(tel.dropped(), 0u);
    EXPECT_GT(spans.dropped(), 0u);
    const std::string merged = mergedSpans(r, c);
    expectGolden(prefix() + "_chrome.json", merged);

    const blame::Json doc = parse(merged);
    const blame::Json *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->u64("dropped_events"),
              tel.dropped() + spans.dropped());
    const blame::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->items.size(), tel.size() + spans.size());
}

TEST_P(ExportKinds, MetadataSurvivesACapBelowTheNodeCount)
{
    if (!kAuditCompiledIn)
        GTEST_SKIP() << "instrumentation compiled out";
    RunConfig c = exportConfig(GetParam());
    c.telemetry.maxTraceEvents = 8;
    c.trace.maxSpanEvents = 8;
    const RunResult r = exportRun(c);
    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.telemetry->traceWriter().dropped(), 0u);
    EXPECT_GT(r.trace->spanWriter().dropped(), 0u);

    const blame::Json doc = parse(mergedSpans(r, c));
    const blame::Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t threads[3] = {0, 0, 0};
    std::size_t processes[3] = {0, 0, 0};
    for (const blame::Json &e : events->items) {
        const std::uint64_t pid = e.u64("pid");
        ASSERT_TRUE(pid == 1 || pid == 2) << pid;
        if (e.text("name") == "thread_name")
            ++threads[pid];
        else if (e.text("name") == "process_name")
            ++processes[pid];
    }
    for (std::size_t pid = 1; pid <= 2; ++pid) {
        EXPECT_EQ(threads[pid], 16u) << "pid " << pid;
        EXPECT_EQ(processes[pid], 1u) << "pid " << pid;
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ExportKinds,
                         ::testing::Values(NetKind::Loft,
                                           NetKind::Wormhole),
                         [](const auto &info) {
                             return std::string(info.param == NetKind::Loft
                                                    ? "loft"
                                                    : "wormhole");
                         });

TEST(Exports, ReportDocumentMatchesGolden)
{
    ReportTable demo("demo", {"name", "count", "ratio"});
    demo.addRow({std::string("alpha"), std::int64_t{3}, 0.5});
    demo.addRow({std::string("beta"), std::int64_t{-1}, 1.25});
    demo.addRow({std::string("pi"), std::int64_t{0}, 3.14159265358979});
    ReportTable quoted("q \"quoted\"", {"v", "tab\tcol"});
    quoted.addRow({std::string("a,b"), std::int64_t{-9000000000}});
    quoted.addRow({std::string("say \"hi\"\n"), 1e-12});
    ReportDocument doc("report \\ golden");
    doc.add(demo);
    doc.add(quoted);
    doc.add(ReportTable("empty", {"x"}));
    const std::string json = doc.toJson();
    expectGolden("exports_report.json", json + "\n");
    const blame::Json parsed = parse(json);
    EXPECT_EQ(parsed.text("title"), "report \\ golden");
}

} // namespace
} // namespace noc
