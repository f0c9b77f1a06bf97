/**
 * @file
 * Repository benchmark driver. One invocation runs one workload: the
 * LOFT, GSF and wormhole networks on the same traffic configuration,
 * one after another in this process, through the public library API
 * (buildNetwork -> Network::registerFlows -> TrafficGenerator::configure
 * -> Network::attach -> Simulator::run). It checks every run's outputs
 * and prints the metrics as one JSON object on the last stdout line.
 *
 * Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
 * (--trace 1) report the per-layer metrics, timed from the benchmark's
 * own calls into each module and read from public counters; the spans
 * are kept in memory and written to --spans-out when the run ends.
 *
 * See perfbench/README.md for the workloads, metrics and checks.
 *
 * Usage: loft_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--reference FILE] [--record FILE] [--spans-out FILE]
 *            [--kinds loft,gsf,wormhole] [--check-only]
 *            [--unset-gsf-shares]
 *
 * --reference FILE  reference fingerprints to check (perfbench/reference.tsv)
 * --record FILE     append this run's fingerprints to FILE
 * --check-only      run only set-up, warm-up and the check window
 * --kinds LIST      run a subset of the network kinds
 * --unset-gsf-shares  leave GSF flows' shares at 0 (self-test only)
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "audit/network_auditor.hh"
#include "core/output_scheduler.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "net/deferred_observer.hh"
#include "net/observer_mux.hh"
#include "qos/allocation.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace
{

using namespace noc;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char *
kindName(NetKind kind)
{
    switch (kind) {
      case NetKind::Loft:
        return "loft";
      case NetKind::Gsf:
        return "gsf";
      case NetKind::Wormhole:
        return "wormhole";
    }
    return "?";
}

/** 64-bit FNV-1a of a fingerprint string (the stored reference form). */
std::string
fingerprintHash(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Traffic
{
    Uniform,
    Neighbor,
};

constexpr std::array<NetKind, 3> kKinds = {NetKind::Loft, NetKind::Gsf,
                                           NetKind::Wormhole};

struct Workload
{
    const char *name;
    std::uint32_t meshSize;
    Traffic traffic;
    /** Offered load, flits/node/cycle (open-loop Bernoulli sources). */
    double load;
    /** Every flow reserves an equal 1/maxFlows share. */
    std::uint32_t maxFlows;
    LoftParams loft;
    /** Intra-run workers of the measured runs. */
    unsigned workers;
    /** Attach audit, telemetry and trace the way runExperiment does. */
    bool observed;
    /** Warm-up cycles per kind (LOFT, GSF, wormhole). */
    std::array<Cycle, 3> warmup;
    /**
     * Simulated cycles per host second each kind is sized for. With
     * --seconds S a kind measures kChunks chunks of
     * round(S x share x rate / kChunks) cycles: a fixed amount of work
     * per (workload, S), so its outputs are deterministic and
     * fingerprinted.
     */
    std::array<double, 3> sizingRate;
    /** Share of --seconds given to each kind's measurement window. */
    std::array<double, 3> timeShare;
    /**
     * Cycles after warm-up whose fingerprint is checked against the
     * reference and against a run at the other worker count.
     */
    Cycle checkCycles;
    /** Set-up repetitions per kind (setup_s is their median). */
    int setupReps;
    /** Observer-differential runs: warm-up and timed cycles. */
    Cycle diffWarmup;
    Cycle diffCycles;
};

/** Timed chunks per measurement window (interleaved across kinds). */
constexpr int kChunks = 40;

LoftParams
intraRunLoft()
{
    // bench_sweep's 16x16 intra-run point: 256 uniform flows reserve on
    // every output port, so F must hold maxFlows x quantum bookings.
    LoftParams p;
    p.frameSizeFlits = 1024;
    p.centralBufferFlits = 1024;
    p.specBufferFlits = 16;
    p.maxFlows = 256;
    p.sourceQueueFlits = 64;
    return p;
}

LoftParams
scaleLoft()
{
    // bench_scale's configuration.
    LoftParams p;
    p.frameSizeFlits = 256;
    p.centralBufferFlits = 256;
    p.specBufferFlits = 16;
    p.maxFlows = 64;
    p.sourceQueueFlits = 64;
    return p;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"uniform-16x16", 16, Traffic::Uniform, 0.08, 256, intraRunLoft(),
         1, false, {1000, 4000, 2000}, {205, 2600, 4000},
         {0.5, 0.25, 0.25}, 100, 15, 200, 200},
        {"neighbor-64x64", 64, Traffic::Neighbor, 0.05, 64, scaleLoft(),
         2, false, {600, 1500, 1500}, {360, 920, 1240},
         {0.5, 0.25, 0.25}, 100, 7, 100, 100},
        // Table 1 of the paper: default LoftParams (F = 256, spec 12).
        {"uniform-8x8-observed", 8, Traffic::Uniform, 0.15, 64,
         LoftParams{}, 1, true, {2000, 2000, 2000}, {1850, 5250, 6400},
         {0.4, 0.3, 0.3}, 500, 15, 2000, 1500},
    };
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------

struct Span
{
    int id = 0;
    int parent = -1;
    std::string name;
    double start = 0.0; ///< seconds since the benchmark started
    double end = 0.0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    int
    begin(const std::string &name, int parent)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.name = name;
        s.start = secondsSince(origin_);
        spans_.push_back(s);
        return s.id;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end =
                secondsSince(origin_);
    }

    /** Chrome trace-event JSON ("X" events, args carry id/parent). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            // One lane per network kind: the kinds' spans interleave.
            int lane = s.id;
            while (lane >= 0 && spans_[static_cast<std::size_t>(lane)].parent > 0)
                lane = spans_[static_cast<std::size_t>(lane)].parent;
            out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane
                << ",\"ts\":"
                << static_cast<long long>(s.start * 1e6)
                << ",\"dur\":"
                << static_cast<long long>((s.end - s.start) * 1e6)
                << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
                << s.parent << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, int parent)
        : log_(log), id_(log.begin(name, parent))
    {
    }
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

// ---------------------------------------------------------------------
// Counting observer: the net/core/observer counters of a traced run
// ---------------------------------------------------------------------

struct HookCounts
{
    std::uint64_t events = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t grants = 0;
    std::uint64_t creditReturns = 0;
    std::uint64_t localResets = 0;

    HookCounts
    operator-(const HookCounts &o) const
    {
        return {events - o.events, flitHops - o.flitHops,
                grants - o.grants, creditReturns - o.creditReturns,
                localResets - o.localResets};
    }
};

/** Counts every hook call; the base class's other work is a no-op. */
class CountingObserver final : public NetObserver
{
  public:
    HookCounts n;

    void onPacketAccepted(NodeId, const Packet &, Cycle) override
    {
        ++n.events;
    }
    void onFlitSourced(NodeId, const Flit &, bool, Cycle) override
    {
        ++n.events;
    }
    void onFlitArrived(NodeId, Port, const Flit &, bool, Cycle) override
    {
        ++n.events;
    }
    void onFlitForwarded(NodeId, Port, const Flit &, bool, Cycle) override
    {
        ++n.events;
        ++n.flitHops;
    }
    void onFlitEjected(NodeId, const Flit &, Cycle) override { ++n.events; }
    void onPacketDelivered(NodeId, FlowId, PacketId, Cycle) override
    {
        ++n.events;
    }
    void onLookaheadAdmitted(NodeId, Port, const LookaheadFlit &,
                             Cycle) override
    {
        ++n.events;
    }
    void onQuantumScheduled(NodeId, Port, const LookaheadFlit &, Slot,
                            Cycle) override
    {
        ++n.events;
    }
    void onNiQuantumScheduled(NodeId, const LookaheadFlit &, Slot,
                              Cycle) override
    {
        ++n.events;
    }
    void onMissedSlot(NodeId, Port, Cycle) override { ++n.events; }
    void onSchedFlowRegistered(const OutputScheduler &, FlowId,
                               std::uint32_t) override
    {
        ++n.events;
    }
    void onSchedGrant(const OutputScheduler &, FlowId, std::uint64_t,
                      Slot, std::uint64_t, Cycle) override
    {
        ++n.events;
        ++n.grants;
    }
    void onSchedSkipped(const OutputScheduler &, FlowId, std::uint32_t,
                        std::uint64_t, Cycle) override
    {
        ++n.events;
    }
    void onSchedBookingCleared(const OutputScheduler &, Slot) override
    {
        ++n.events;
    }
    void onSchedCreditReturn(const OutputScheduler &, Slot) override
    {
        ++n.events;
        ++n.creditReturns;
    }
    void onSchedCreditNegative(const OutputScheduler &, Cycle) override
    {
        ++n.events;
    }
    void onSchedLocalReset(const OutputScheduler &, Cycle) override
    {
        ++n.events;
        ++n.localResets;
    }
    void onFaultInjected(FaultKind, NodeId, Cycle) override { ++n.events; }
    void onFaultDetected(FaultKind, NodeId, Cycle, Cycle) override
    {
        ++n.events;
    }
    void onFaultRecovered(FaultKind, NodeId, Cycle, Cycle) override
    {
        ++n.events;
    }
    void onFlitDropped(NodeId, const Flit &, Cycle) override { ++n.events; }
    void onSourceThrottled(NodeId, FlowId, StallReason, Cycle) override
    {
        ++n.events;
    }
};

// ---------------------------------------------------------------------
// One simulation instance, wired the way runExperiment wires it
// ---------------------------------------------------------------------

struct Options
{
    unsigned workers = 1;
    bool audit = false;
    bool telemetry = false;
    bool trace = false;
    /** Also wire a second observer chain with a CountingObserver. */
    bool counting = false;
    /** Test knob: leave every flow's bandwidth share at 0. */
    bool unsetShares = false;
};

struct SetupTimes
{
    double build = 0.0;
    double registerFlows = 0.0;
    double attach = 0.0;
    double total() const { return build + registerFlows + attach; }
};

class Instance
{
  public:
    Instance(const Workload &w, NetKind kind, std::uint64_t seed,
             const Options &opt, SetupTimes &times)
        : opt_(opt), mesh_(w.meshSize, w.meshSize)
    {
        auto t0 = Clock::now();
        cfg_.kind = kind;
        cfg_.meshWidth = w.meshSize;
        cfg_.meshHeight = w.meshSize;
        cfg_.seed = seed;
        cfg_.loft = w.loft;
        cfg_.intraRunWorkers = opt.workers;
        pattern_ = w.traffic == Traffic::Uniform ? uniformPattern(mesh_)
                                                 : neighborPattern(mesh_);
        net_ = buildNetwork(cfg_, mesh_);
        net_->metrics().setDeferredReserve(2 * mesh_.numNodes() + 8);
        if (opt.audit)
            auditor_ = std::make_unique<NetworkAuditor>(*net_);
        if (opt.trace) {
            TraceConfig tc; // 5% exemplar sampling (the default)
            tc.enabled = true;
            tc.seed = seed;
            trace_ = std::make_shared<TraceCollector>(
                mesh_, tc, kindName(kind),
                kind == NetKind::Loft ? cfg_.loft.quantumFlits : 0);
        }
        if (opt.telemetry) {
            TelemetryConfig tc;
            tc.enabled = true;
            std::vector<std::uint32_t> class_of;
            for (std::size_t i = 0; i < pattern_.flows.size() &&
                                    i < pattern_.groups.size();
                 ++i) {
                const FlowId id = pattern_.flows[i].id;
                if (id >= class_of.size())
                    class_of.resize(id + 1, 0);
                class_of[id] = pattern_.groups[i];
            }
            telemetry_ = std::make_shared<TelemetryCollector>(
                mesh_, tc, std::move(class_of), pattern_.groupNames);
        }
        // Consumer order as in runExperiment: auditor, telemetry,
        // trace last. The counted chain puts the counter before trace.
        std::vector<NetObserver *> sinks;
        if (auditor_)
            sinks.push_back(auditor_.get());
        if (telemetry_)
            sinks.push_back(telemetry_.get());
        std::vector<NetObserver *> counted = sinks;
        counted.push_back(&counter_);
        if (trace_) {
            sinks.push_back(trace_.get());
            counted.push_back(trace_.get());
        }
        plain_ = chain(sinks, mux_, defer_);
        if (opt.counting)
            counted_ = chain(counted, countedMux_, countedDefer_);
        net_->setObserver(plain_);
        times.build = secondsSince(t0);

        t0 = Clock::now();
        if (!opt.unsetShares)
            setEqualSharesByMaxFlows(pattern_.flows, w.maxFlows);
        net_->registerFlows(pattern_.flows);
        gen_ = std::make_unique<TrafficGenerator>(*net_,
                                                  cfg_.packetSizeFlits,
                                                  seed);
        gen_->configure(pattern_.flows,
                        uniformRates(pattern_.flows.size(), w.load));
        times.registerFlows = secondsSince(t0);

        t0 = Clock::now();
        sim_.add(gen_.get());
        net_->attach(sim_);
        if (auditor_)
            auditor_->attach(sim_);
        if (telemetry_)
            sim_.add(telemetry_.get());
        sim_.setWorkers(opt.workers);
        if (defer_)
            sim_.addMerged(defer_.get());
        if (countedDefer_)
            sim_.addMerged(countedDefer_.get());
        times.attach = secondsSince(t0);
    }

    Instance(const Instance &) = delete;
    Instance &operator=(const Instance &) = delete;

    /** Route hooks through the counted chain (or back). */
    void
    setCounting(bool on)
    {
        net_->setObserver(on ? counted_ : plain_);
    }

    void
    startMeasurement()
    {
        net_->metrics().startMeasurement(sim_.now());
        if (telemetry_)
            telemetry_->startMeasurement(sim_.now());
        loftBase_ = loftCounters();
    }

    /**
     * The run's RunResult as runExperiment would report it had the
     * measurement window ended now, assembled on a copy of the metrics
     * so the live window keeps running.
     */
    RunResult
    snapshot() const
    {
        MetricsCollector m = net_->metrics();
        m.stopMeasurement(sim_.now());
        RunResult r;
        r.avgPacketLatency = m.avgPacketLatency();
        r.maxPacketLatency = m.maxPacketLatency();
        r.p50PacketLatency = m.packetLatencyPercentile(0.50);
        r.p95PacketLatency = m.packetLatencyPercentile(0.95);
        r.p99PacketLatency = m.packetLatencyPercentile(0.99);
        r.networkThroughput = m.networkThroughput(mesh_.numNodes());
        r.totalFlits = m.totalFlits();
        r.totalPackets = m.totalPackets();
        for (const FlowSpec &f : pattern_.flows) {
            r.flowThroughput.push_back(m.flowThroughput(f.id));
            r.flowAvgLatency.push_back(m.flow(f.id).packetLatency.mean());
            r.flowMaxLatency.push_back(m.flow(f.id).packetLatency.max());
            r.flowP99Latency.push_back(m.flowLatencyPercentile(f.id, 0.99));
        }
        if (const auto *loft = dynamic_cast<const LoftNetwork *>(net_.get())) {
            r.linkUtilization = loft->linkUtilization(sim_.now());
            r.localResets = loft->totalLocalResets();
            r.speculativeForwards = loft->totalSpeculativeForwards();
            r.emergentForwards = loft->totalEmergentForwards();
            r.anomalyViolations = loft->totalAnomalyViolations();
            r.missedSlots = loft->totalMissedSlots();
            r.lookaheadReissues = loft->totalLookaheadReissues();
            r.quantaScrubbed = loft->totalQuantaScrubbed();
        }
        if (const auto *gsf = dynamic_cast<const GsfNetwork *>(net_.get()))
            r.frameRecycles = gsf->barrier().recycleCount();
        if (auditor_) {
            r.auditHardViolations = auditor_->hardViolationCount();
            r.auditWatchdogs = auditor_->countOf(AuditKind::Watchdog);
        }
        return r;
    }

    /** Close the window and the consumers (end of the operation). */
    void
    finish()
    {
        net_->metrics().stopMeasurement(sim_.now());
        if (telemetry_) {
            telemetry_->stopMeasurement(sim_.now());
            telemetry_->finish(sim_.now());
        }
        if (trace_)
            trace_->finish(sim_.now());
    }

    /** (speculative forwards, missed slots) since startMeasurement. */
    std::pair<std::uint64_t, std::uint64_t>
    loftDeltas() const
    {
        const auto now = loftCounters();
        return {now.first - loftBase_.first,
                now.second - loftBase_.second};
    }

    Simulator &sim() { return sim_; }
    Network &net() { return *net_; }
    TrafficGenerator &gen() { return *gen_; }
    const HookCounts &hookCounts() const { return counter_.n; }

  private:
    /** Sink for @p sinks (mux when several), deferred when partitioned. */
    NetObserver *
    chain(const std::vector<NetObserver *> &sinks, ObserverMux &mux,
          std::unique_ptr<DeferredObserver> &defer)
    {
        NetObserver *sink = nullptr;
        if (sinks.size() == 1) {
            sink = sinks.front();
        } else if (sinks.size() > 1) {
            for (NetObserver *o : sinks)
                mux.add(o);
            sink = &mux;
        }
        if (sink && opt_.workers > 1) {
            defer = std::make_unique<DeferredObserver>(sink);
            sink = defer.get();
        }
        return sink;
    }

    std::pair<std::uint64_t, std::uint64_t>
    loftCounters() const
    {
        if (const auto *loft = dynamic_cast<const LoftNetwork *>(net_.get()))
            return {loft->totalSpeculativeForwards(),
                    loft->totalMissedSlots()};
        return {0, 0};
    }

    Options opt_;
    RunConfig cfg_;
    Mesh2D mesh_;
    TrafficPattern pattern_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<NetworkAuditor> auditor_;
    std::shared_ptr<TraceCollector> trace_;
    std::shared_ptr<TelemetryCollector> telemetry_;
    CountingObserver counter_;
    ObserverMux mux_;
    ObserverMux countedMux_;
    std::unique_ptr<DeferredObserver> defer_;
    std::unique_ptr<DeferredObserver> countedDefer_;
    NetObserver *plain_ = nullptr;
    NetObserver *counted_ = nullptr;
    std::unique_ptr<TrafficGenerator> gen_;
    std::pair<std::uint64_t, std::uint64_t> loftBase_{0, 0};
    Simulator sim_; // last: destroyed (pool joined) first
};

// ---------------------------------------------------------------------
// Standalone OutputScheduler driver (core.*_ns)
// ---------------------------------------------------------------------

struct SchedTiming
{
    double bookNs = 0.0;
    double creditReturnNs = 0.0;
    double localResetNs = 0.0;
    std::uint64_t grants = 0;
};

/**
 * Drive one OutputScheduler built from @p params with @p flows equal
 * reservations through bursts of requests: each burst books for two
 * frames, drains (every booking departs at its slot: clearBooking then
 * onCreditReturn), then resets locally. The request sequence comes
 * from @p seed; every public call is timed on its own.
 */
SchedTiming
driveScheduler(const LoftParams &params, std::uint32_t flows,
               std::uint64_t seed)
{
    OutputScheduler sched(params, "perfbench");
    const std::uint32_t share = params.frameSizeFlits / flows;
    for (std::uint32_t f = 0; f < flows; ++f)
        sched.registerFlow(f, share);

    Rng rng(mixSeed(seed, 0x5c4edull));
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> due;
    double book = 0.0, credit = 0.0, reset = 0.0;
    std::uint64_t books = 0, credits = 0, resets = 0, quantum = 0;
    const Cycle burst = Cycle{2} * params.frameSizeFlits;
    constexpr int kBursts = 12;
    // 0.3 requests per cycle against frameSlots = F / quantum slots.
    constexpr double kRequestRate = 0.3;
    Cycle now = 0;

    const auto depart = [&](Slot upto) {
        while (!due.empty() && due.top() <= upto) {
            const Slot s = due.top();
            due.pop();
            const auto t0 = Clock::now();
            sched.clearBooking(s);
            sched.onCreditReturn(s);
            credit += secondsSince(t0);
            ++credits;
        }
    };

    for (int b = 0; b < kBursts; ++b) {
        for (Cycle c = 0; c < burst; ++c, ++now) {
            sched.advanceTo(now);
            depart(params.slotOf(now));
            if (!rng.chance(kRequestRate))
                continue;
            const auto flow = static_cast<FlowId>(rng.randRange(flows));
            const Slot earliest = params.slotOf(now) + 1 + rng.randRange(4);
            Slot granted = 0;
            const auto t0 = Clock::now();
            const bool ok =
                sched.trySchedule(flow, now, quantum++, earliest, granted);
            const double dt = secondsSince(t0);
            if (ok) {
                book += dt;
                ++books;
                due.push(granted);
            }
        }
        while (!due.empty()) {
            sched.advanceTo(now);
            depart(params.slotOf(now));
            ++now;
        }
        if (sched.canLocalReset()) {
            const auto t0 = Clock::now();
            sched.localReset(now);
            reset += secondsSince(t0);
            ++resets;
        }
    }
    SchedTiming t;
    t.bookNs = books ? book * 1e9 / static_cast<double>(books) : 0.0;
    t.creditReturnNs =
        credits ? credit * 1e9 / static_cast<double>(credits) : 0.0;
    t.localResetNs = resets ? reset * 1e9 / static_cast<double>(resets) : 0.0;
    t.grants = sched.grants();
    return t;
}

// ---------------------------------------------------------------------
// Reference fingerprints
// ---------------------------------------------------------------------

/**
 * Reference fingerprint hashes, one "key<TAB>hash" line each. Keys are
 * "<workload> <kind> <seed> check" for the check window (independent
 * of --seconds) and "<workload> <kind> <seed> full@<seconds>" for the
 * whole measurement window.
 */
using RefTable = std::map<std::string, std::string>;

std::string
refKey(const Workload &w, NetKind kind, std::uint64_t seed,
       const std::string &what)
{
    std::ostringstream os;
    os << w.name << ' ' << kindName(kind) << ' ' << seed << ' ' << what;
    return os.str();
}

RefTable
loadReferences(const std::string &path)
{
    RefTable t;
    if (path.empty())
        return t;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto tab = line.rfind('\t');
        if (tab != std::string::npos)
            t[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return t;
}

// ---------------------------------------------------------------------
// Running one workload
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string reference;
    std::string record;
    std::string spansOut;
    std::vector<NetKind> kinds{kKinds.begin(), kKinds.end()};
    bool unsetGsfShares = false;
    bool checkOnly = false;
};

/** What one kind's measured run produced. */
struct Measured
{
    std::vector<double> build, registerFlows, attach, setup;
    double warmupS = 0.0;
    /** Timed window: cycles and host time, all chunks and counted ones. */
    Cycle measureCycles = 0;
    double measureS = 0.0;
    Cycle countedCycles = 0;
    double countedS = 0.0;
    double inflightMean = 0.0;
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
    std::uint64_t allocs = 0;
    std::uint64_t specForwards = 0;
    std::uint64_t missedSlots = 0;
    std::uint64_t offered = 0;
    std::uint64_t backlog = 0;
    /** Hook calls during the counted chunks. */
    HookCounts hooks;
    std::string checkHash;
    RunResult result;
};

/** One kind's primary run while the workload's chunks interleave. */
struct KindRun
{
    NetKind kind = NetKind::Loft;
    int span = -1;
    std::unique_ptr<Instance> inst;
    Cycle chunk = 0;
    std::uint64_t exec0 = 0;
    std::uint64_t skip0 = 0;
    HookCounts hooks0;
    Measured m;
};

class Bench
{
  public:
    Bench(const Workload &w, const Args &a)
        : w_(w), a_(a), spans_(a.trace), refs_(loadReferences(a.reference))
    {
        if (!a.record.empty())
            record_.open(a.record, std::ios::app);
    }

    void run();
    void print() const;
    bool
    writeSpans() const
    {
        return a_.spansOut.empty() || spans_.write(a_.spansOut);
    }

  private:
    Options primaryOptions(NetKind kind) const;
    RunResult checkRun(NetKind kind, const Options &opt) const;
    void start(KindRun &kr, int parent);
    void runChunk(KindRun &kr, int c);
    void stop(KindRun &kr);
    Options crossOptions(NetKind kind) const;
    std::vector<std::string> crossCheck(const std::vector<KindRun> &runs) const;
    void check(NetKind kind, const Measured &m, const std::string &crossHash);
    void reportLayers(NetKind kind, const Measured &m, int parent);
    double diffRun(NetKind kind, const Options &opt, int parent,
                   std::uint64_t &allocs);
    void checkReference(NetKind kind, const std::string &what,
                        const std::string &hash);

    void
    fail(NetKind kind, const std::string &why)
    {
        std::fprintf(stderr, "FAILED %s/%s seed %llu: %s\n", w_.name,
                     kindName(kind),
                     static_cast<unsigned long long>(a_.seed), why.c_str());
        kindFailed_ = true;
    }
    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }
    void
    addKind(const char *name, NetKind kind, double value, const char *unit)
    {
        add(std::string(name) + "." + kindName(kind), value, unit);
    }

    const Workload &w_;
    const Args &a_;
    SpanLog spans_;
    RefTable refs_;
    std::ofstream record_;
    std::vector<Metric> metrics_;
    int attempted_ = 0;
    int failed_ = 0;
    bool kindFailed_ = false;
    double setupTotal_ = 0.0;
};

Options
Bench::primaryOptions(NetKind kind) const
{
    Options opt;
    opt.workers = w_.workers;
    opt.audit = opt.telemetry = opt.trace = w_.observed;
    opt.counting = a_.trace;
    opt.unsetShares = a_.unsetGsfShares && kind == NetKind::Gsf;
    return opt;
}

Options
Bench::crossOptions(NetKind kind) const
{
    Options opt = primaryOptions(kind);
    opt.workers = w_.workers == 1 ? 2 : 1;
    opt.counting = false;
    return opt;
}

void
Bench::checkReference(NetKind kind, const std::string &what,
                      const std::string &hash)
{
    const std::string key = refKey(w_, kind, a_.seed, what);
    if (record_.is_open())
        record_ << key << '\t' << hash << '\n';
    const auto it = refs_.find(key);
    if (it == refs_.end())
        std::fprintf(stderr, "note: no reference for %s\n", key.c_str());
    else if (it->second != hash)
        fail(kind, what + " fingerprint differs from the reference");
}

/** Warm-up plus the check window; the RunResult at its end. */
RunResult
Bench::checkRun(NetKind kind, const Options &opt) const
{
    const std::size_t k = static_cast<std::size_t>(kind);
    SetupTimes st;
    Instance inst(w_, kind, a_.seed, opt, st);
    inst.sim().run(w_.warmup[k]);
    inst.startMeasurement();
    inst.sim().run(w_.checkCycles);
    RunResult r = inst.snapshot();
    inst.finish();
    return r;
}

/** Set-up (repeated), warm-up and the check window of one kind. */
void
Bench::start(KindRun &kr, int parent)
{
    const NetKind kind = kr.kind;
    const std::size_t k = static_cast<std::size_t>(kind);
    const Options opt = primaryOptions(kind);
    Measured &m = kr.m;
    kr.span = spans_.begin(kindName(kind), parent);

    // Set-up, repeated; the last instance is the one measured.
    {
        Scope s(spans_, "harness.setup", kr.span);
        for (int r = 0; r < w_.setupReps; ++r) {
            kr.inst.reset();
            SetupTimes st;
            kr.inst = std::make_unique<Instance>(w_, kind, a_.seed, opt, st);
            m.build.push_back(st.build);
            m.registerFlows.push_back(st.registerFlows);
            m.attach.push_back(st.attach);
            m.setup.push_back(st.total());
        }
    }
    Instance &inst = *kr.inst;
    Simulator &sim = inst.sim();

    // Traced runs count hooks through warm-up, so the counted chain's
    // buffers reach their high-water mark before measurement.
    inst.setCounting(a_.trace);
    const auto t0 = Clock::now();
    {
        Scope s(spans_, "sim.warmup", kr.span);
        sim.run(w_.warmup[k]);
    }
    m.warmupS = secondsSince(t0);

    inst.startMeasurement();
    {
        Scope s(spans_, "sim.check", kr.span);
        sim.run(w_.checkCycles);
    }
    m.checkHash = fingerprintHash(sweepFingerprint(inst.snapshot()));

    const double cycles =
        a_.seconds * w_.timeShare[k] * w_.sizingRate[k] / kChunks;
    kr.chunk = std::max<Cycle>(10, std::llround(cycles));
    kr.exec0 = sim.ticksExecuted();
    kr.skip0 = sim.ticksSkipped();
    kr.hooks0 = inst.hookCounts();
}

/**
 * Chunk @p c of the timed window. Traced runs alternate: even chunks
 * plain, odd chunks with the counting observer attached.
 */
void
Bench::runChunk(KindRun &kr, int c)
{
    Measured &m = kr.m;
    Simulator &sim = kr.inst->sim();
    const bool counted = a_.trace && c % 2 == 1;
    if (a_.trace)
        kr.inst->setCounting(counted);
    const auto t0 = Clock::now();
    {
        Scope s(spans_, counted ? "sim.chunk.counted" : "sim.chunk",
                kr.span);
        sim.run(kr.chunk);
    }
    const double dt = secondsSince(t0);
    m.measureCycles += kr.chunk;
    m.measureS += dt;
    if (counted) {
        m.countedCycles += kr.chunk;
        m.countedS += dt;
    }
    m.allocs += sim.lastRunHeapAllocs();
    m.inflightMean +=
        static_cast<double>(kr.inst->net().flitsInFlight()) / kChunks;
}

/** Close the window, collect the counters and free the instance. */
void
Bench::stop(KindRun &kr)
{
    Measured &m = kr.m;
    Instance &inst = *kr.inst;
    m.executed = inst.sim().ticksExecuted() - kr.exec0;
    m.skipped = inst.sim().ticksSkipped() - kr.skip0;
    m.hooks = inst.hookCounts() - kr.hooks0;
    m.result = inst.snapshot();
    inst.finish();
    std::tie(m.specForwards, m.missedSlots) = inst.loftDeltas();
    m.offered = inst.gen().packetsOffered();
    m.backlog = inst.gen().packetsPending();
    kr.inst.reset();
}

void
Bench::check(NetKind kind, const Measured &m, const std::string &crossHash)
{
    const RunResult &r = m.result;
    if (r.totalPackets == 0)
        fail(kind, "delivered zero packets");
    if (r.auditHardViolations || r.auditWatchdogs)
        fail(kind, "audit: " + std::to_string(r.auditHardViolations) +
                       " hard violations, " +
                       std::to_string(r.auditWatchdogs) + " watchdog trips");
    checkReference(kind, "check", m.checkHash);
    checkReference(kind, "full@" + std::to_string(a_.seconds),
                   fingerprintHash(sweepFingerprint(r)));
    if (crossHash != m.checkHash)
        fail(kind, "the check window at " +
                       std::to_string(crossOptions(kind).workers) +
                       " worker(s) differs from the one at " +
                       std::to_string(w_.workers));
}

/**
 * The check window of every kind again at the other worker count
 * (serial vs 2 workers); their fingerprint hashes, in @p runs order.
 * Nothing is timed here, so the kinds run concurrently, as many at a
 * time as the host has threads for.
 */
std::vector<std::string>
Bench::crossCheck(const std::vector<KindRun> &runs) const
{
    std::vector<std::string> hashes(runs.size());
    const unsigned threads_per_run = w_.workers == 1 ? 2 : 1;
    const std::size_t batch = std::max<std::size_t>(
        1, std::thread::hardware_concurrency() / threads_per_run);
    for (std::size_t first = 0; first < runs.size(); first += batch) {
        std::vector<std::thread> pool;
        for (std::size_t i = first;
             i < std::min(runs.size(), first + batch); ++i) {
            pool.emplace_back([this, &runs, &hashes, i] {
                try {
                    const NetKind kind = runs[i].kind;
                    hashes[i] = fingerprintHash(sweepFingerprint(
                        checkRun(kind, crossOptions(kind))));
                } catch (const std::exception &e) {
                    hashes[i] = std::string("error: ") + e.what();
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    return hashes;
}

/** A fresh instance: warm-up, then a timed differential window. */
double
Bench::diffRun(NetKind kind, const Options &opt, int parent,
               std::uint64_t &allocs)
{
    SetupTimes st;
    Instance inst(w_, kind, a_.seed, opt, st);
    inst.sim().run(w_.diffWarmup);
    inst.startMeasurement();
    const auto t0 = Clock::now();
    {
        Scope s(spans_, "sim.run", parent);
        inst.sim().run(w_.diffCycles);
    }
    const double dt = secondsSince(t0);
    allocs = inst.sim().lastRunHeapAllocs();
    inst.finish();
    return dt;
}

void
Bench::reportLayers(NetKind kind, const Measured &m, int parent)
{
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    addKind("harness.build_s", kind, median(m.build), "s");
    addKind("harness.register_flows_s", kind, median(m.registerFlows), "s");
    addKind("harness.attach_s", kind, median(m.attach), "s");
    addKind("sim.warmup_s", kind, m.warmupS, "s");
    addKind("sim.measure_s", kind, m.measureS, "s");
    addKind("sim.ticks_executed", kind, count(m.executed), "count");
    addKind("sim.ticks_skipped", kind, count(m.skipped), "count");
    addKind("sim.tick_yield", kind,
            count(m.executed) / count(m.executed + m.skipped), "ratio");
    addKind("sim.ns_per_tick", kind, m.measureS * 1e9 / count(m.executed),
            "ns");
    addKind("net.flit_hops", kind, count(m.hooks.flitHops), "count");
    addKind("net.ns_per_flit_hop", kind,
            m.hooks.flitHops ? m.countedS * 1e9 / count(m.hooks.flitHops)
                             : 0.0,
            "ns");
    addKind("net.packets_delivered", kind, count(m.result.totalPackets),
            "count");
    addKind("net.flits_in_flight_mean", kind, m.inflightMean, "flits");
    addKind("traffic.packets_offered", kind, count(m.offered), "count");
    addKind("traffic.backlog_end", kind, count(m.backlog), "count");
    addKind("observer.events", kind, count(m.hooks.events), "count");
    addKind("bench.tracing_overhead_cycles_per_s", kind,
            count(m.measureCycles - m.countedCycles) /
                    (m.measureS - m.countedS) -
                count(m.countedCycles) / m.countedS,
            "cycles/s");
    if (kind == NetKind::Loft) {
        add("core.sched_grants", count(m.hooks.grants), "count");
        add("core.sched_credit_returns", count(m.hooks.creditReturns),
            "count");
        add("core.sched_local_resets", count(m.hooks.localResets), "count");
        add("core.spec_forwards", count(m.specForwards), "count");
        add("core.missed_slots", count(m.missedSlots), "count");
    }
    if (kind == NetKind::Gsf)
        add("gsf.frame_recycles", count(m.result.frameRecycles), "count");

    // Observer differential: a bare run, then each consumer alone.
    Options bare;
    bare.workers = w_.workers;
    std::uint64_t bare_allocs = 0;
    double bare_s = 0.0;
    {
        Scope s(spans_, "diff.bare", parent);
        bare_s = diffRun(kind, bare, s.id(), bare_allocs);
    }
    // Steady-state allocations of the model itself: the primary run's
    // unless it carries consumers, whose own allocations the
    // differential reports below.
    addKind("sim.steady_allocs", kind,
            count(w_.observed ? bare_allocs : m.allocs), "count");
    const std::array<const char *, 3> consumers = {"audit", "telemetry",
                                                   "trace"};
    for (std::size_t i = 0; i < consumers.size(); ++i) {
        Options o = bare;
        o.audit = i == 0;
        o.telemetry = i == 1;
        o.trace = i == 2;
        std::uint64_t allocs = 0;
        Scope s(spans_, std::string("diff.") + consumers[i], parent);
        const double dt = diffRun(kind, o, s.id(), allocs);
        addKind((std::string(consumers[i]) + ".overhead_s").c_str(), kind,
                dt - bare_s, "s");
        addKind((std::string(consumers[i]) + ".steady_allocs").c_str(), kind,
                count(allocs) - count(bare_allocs), "count");
    }
    {
        Options o = bare;
        o.workers = w_.workers == 1 ? 2 : 1;
        std::uint64_t allocs = 0;
        Scope s(spans_, "diff.other_workers", parent);
        const double dt = diffRun(kind, o, s.id(), allocs);
        addKind("sim.partition_speedup", kind,
                w_.workers == 1 ? bare_s / dt : dt / bare_s, "x");
    }

    if (kind == NetKind::Loft) {
        Scope s(spans_, "core.driver", parent);
        std::vector<double> book, credit, reset;
        std::uint64_t grants = 0;
        for (int pass = 0; pass < 3; ++pass) {
            const SchedTiming t = driveScheduler(w_.loft, w_.maxFlows,
                                                 a_.seed);
            if (pass > 0 && t.grants != grants)
                fail(kind, "scheduler driver grant count did not repeat");
            grants = t.grants;
            book.push_back(t.bookNs);
            credit.push_back(t.creditReturnNs);
            reset.push_back(t.localResetNs);
        }
        add("core.book_ns", median(book), "ns");
        add("core.credit_return_ns", median(credit), "ns");
        add("core.local_reset_ns", median(reset), "ns");
    }
}

void
Bench::run()
{
    Scope root(spans_, std::string("workload ") + w_.name, -1);
    if (a_.checkOnly) {
        for (NetKind kind : a_.kinds) {
            kindFailed_ = false;
            const RunResult r = checkRun(kind, primaryOptions(kind));
            checkReference(kind, "check",
                           fingerprintHash(sweepFingerprint(r)));
            ++attempted_;
            failed_ += kindFailed_;
        }
        return;
    }

    // All kinds stay live and their chunks interleave, so each kind's
    // window spans the whole run and host-speed drift hits every kind
    // alike instead of whichever ran during a slow spell.
    std::vector<KindRun> runs(a_.kinds.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i].kind = a_.kinds[i];
        start(runs[i], root.id());
    }
    for (int c = 0; c < kChunks; ++c)
        for (KindRun &kr : runs)
            runChunk(kr, c);
    for (KindRun &kr : runs)
        stop(kr);
    // Peak memory of the measured networks, before the cross-checks
    // (which run concurrently) can raise it.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::vector<std::string> cross;
    {
        Scope s(spans_, "crosscheck", root.id());
        cross = crossCheck(runs);
    }

    for (std::size_t i = 0; i < runs.size(); ++i) {
        KindRun &kr = runs[i];
        const NetKind kind = kr.kind;
        const Measured &m = kr.m;
        kindFailed_ = false;
        check(kind, m, cross[i]);
        setupTotal_ += median(m.setup);
        if (a_.trace) {
            reportLayers(kind, m, kr.span);
        } else {
            add(std::string(kindName(kind)) + "_cycles_per_s",
                static_cast<double>(m.measureCycles) / m.measureS,
                "cycles/s");
            if (kind == NetKind::Loft) {
                add("loft_p99_latency_cycles", m.result.p99PacketLatency,
                    "cycles");
                add("loft_accepted_flits_per_node_cycle",
                    m.result.networkThroughput, "flits/node/cycle");
            }
        }
        spans_.end(kr.span);
        ++attempted_;
        failed_ += kindFailed_;
    }
    if (!a_.trace) {
        add("setup_s", setupTotal_, "s");
        add("peak_rss_mb", peak_rss_mb, "MiB");
    }
}

void
Bench::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit);
    }
    std::printf("}}\n");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--record FILE] "
                 "[--spans-out FILE] [--kinds loft,gsf,wormhole] "
                 "[--check-only] [--unset-gsf-shares]\n",
                 argv0);
    return 2;
}

bool
parseKinds(const std::string &list, std::vector<NetKind> &out)
{
    out.clear();
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        bool found = false;
        for (NetKind k : kKinds)
            if (item == kindName(k)) {
                out.push_back(k);
                found = true;
            }
        if (!found)
            return false;
    }
    return !out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string opt = argv[i];
        const bool has_value = i + 1 < argc;
        if (opt == "--workload" && has_value) {
            a.workload = argv[++i];
        } else if (opt == "--seed" && has_value) {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (opt == "--seconds" && has_value) {
            a.seconds = std::atoi(argv[++i]);
        } else if (opt == "--trace" && has_value) {
            a.trace = std::atoi(argv[++i]) != 0;
        } else if (opt == "--reference" && has_value) {
            a.reference = argv[++i];
        } else if (opt == "--record" && has_value) {
            a.record = argv[++i];
        } else if (opt == "--spans-out" && has_value) {
            a.spansOut = argv[++i];
        } else if (opt == "--kinds" && has_value) {
            if (!parseKinds(argv[++i], a.kinds))
                return usage(argv[0]);
        } else if (opt == "--check-only") {
            a.checkOnly = true;
        } else if (opt == "--unset-gsf-shares") {
            a.unsetGsfShares = true;
        } else {
            return usage(argv[0]);
        }
    }
    const Workload *w = findWorkload(a.workload);
    if (!w || a.seconds < 1) {
        std::fprintf(stderr, "unknown workload '%s' or bad --seconds\n",
                     a.workload.c_str());
        return usage(argv[0]);
    }

    Bench bench(*w, a);
    bench.run();
    if (!bench.writeSpans())
        std::fprintf(stderr, "warning: could not write spans\n");
    bench.print();
    return 0;
}
