/**
 * @file
 * Shared configuration for the paper-reproduction benches.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * evaluation (Section 6). Simulated cycle counts default to a laptop
 * budget; set LOFT_SIM_SCALE (e.g. 2.0) to lengthen runs or 0.25 for a
 * quick smoke pass.
 *
 * Sweep-shaped benches execute their load/parameter points through the
 * parallel sweep engine (src/harness/sweep.hh); LOFT_BENCH_THREADS
 * overrides the worker count (default: hardware concurrency). Results
 * are bit-identical at any thread count, so parallelism only changes
 * wall time. The BENCH_*.json artifacts consumed by
 * scripts/check_bench.py (see docs/BENCH.md) are written through
 * benchJsonWriter() and noc::writeTextFile (sim/json.hh).
 */

#ifndef NOC_BENCH_BENCH_COMMON_HH
#define NOC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "qos/allocation.hh"
#include "qos/group_metrics.hh"
#include "sim/json.hh"
#include "sim/report.hh"

namespace noc::bench
{

/** Table 1 LOFT configuration with a given speculative buffer size. */
inline RunConfig
loftConfig(std::uint32_t spec_buffer_flits = 12)
{
    RunConfig c;
    c.kind = NetKind::Loft;
    c.loft.specBufferFlits = spec_buffer_flits;
    c.warmupCycles = 5000;
    c.measureCycles = 10000;
    c.applyEnvScale();
    return c;
}

/** Table 1 GSF configuration. */
inline RunConfig
gsfConfig()
{
    RunConfig c;
    c.kind = NetKind::Gsf;
    c.warmupCycles = 5000;
    c.measureCycles = 10000;
    c.applyEnvScale();
    return c;
}

/** Sweep worker threads: LOFT_BENCH_THREADS, else hw concurrency. */
inline unsigned
benchThreads()
{
    if (const char *s = std::getenv("LOFT_BENCH_THREADS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1;
}

/**
 * Run @p config at each load of @p loads with a fixed pattern, in
 * parallel, returning results in load order (bit-identical to a
 * serial loop over runExperiment).
 */
inline std::vector<RunResult>
sweepLoads(const RunConfig &config, const TrafficPattern &pattern,
           const std::vector<double> &loads,
           unsigned threads = benchThreads())
{
    SweepConfig sc;
    sc.base = config;
    sc.loads = loads;
    sc.threads = threads;
    SweepResults r = runSweep(
        sc, [&](const SweepCase &) { return pattern; });
    return std::move(r.results);
}

inline void
printRule()
{
    std::printf("-----------------------------------------------------"
                "---------------------\n");
}

/** A BENCH_*.json report writer: indented, doubles at %.17g. */
inline JsonWriter
benchJsonWriter(std::string &out)
{
    return JsonWriter(out, JsonWriter::Layout::Indented, 17);
}

/** The per-execution block of a BENCH_sweep.json report. */
inline void
writeSummary(JsonWriter &w, const SweepSummary &s)
{
    w.beginObject().field("wall_sec", s.wallSeconds);
    w.field("runs_per_sec", s.runsPerSecond);
    w.field("cycles_per_sec", s.cyclesPerSecond);
    w.field("p50_run_ms", s.p50RunSeconds * 1e3);
    w.field("p99_run_ms", s.p99RunSeconds * 1e3);
    w.field("threads", s.threadsUsed);
    w.field("intra_run_workers", s.intraRunWorkers);
    w.field("hw_threads", s.hwThreads).endObject();
}

} // namespace noc::bench

#endif // NOC_BENCH_BENCH_COMMON_HH
