/**
 * @file
 * NetEvent tests: one event of every type survives the
 * DeferredObserver's per-domain buffering and k-way merge with its
 * payload intact and in serial component order, and the typed hooks
 * cannot be called through a NetObserver reference — so a
 * pass-through observer can only forward whole events.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <variant>
#include <vector>

#include "core/loft_params.hh"
#include "core/output_scheduler.hh"
#include "net/deferred_observer.hh"
#include "net/instrument.hh"
#include "net/observer_mux.hh"
#include "sim/parallel.hh"
#include "sim/phase_sanitizer.hh"

namespace noc
{
namespace
{

// ---------------------------------------------------------------
// The typed hooks are protected: forwarding by hand cannot compile.
// ---------------------------------------------------------------

/** Number of typed hooks callable on an @p O from outside the class. */
template <typename O>
constexpr int
reachableTypedHooks()
{
    const Flit f{};
    const LookaheadFlit la{};
    const Packet p{};
    const OutputScheduler *s = nullptr;
    const NodeId n = 0;
    const Port pt = Port::East;
    const FlowId fl = 0;
    const Slot sl = 0;
    const FaultKind k{};
    const StallReason r{};
    const Cycle c = 0;
    int n_hooks = 0;
    n_hooks += requires(O &o) { o.onPacketAccepted(n, p, c); };
    n_hooks += requires(O &o) { o.onFlitSourced(n, f, false, c); };
    n_hooks += requires(O &o) { o.onFlitArrived(n, pt, f, false, c); };
    n_hooks += requires(O &o) { o.onFlitForwarded(n, pt, f, false, c); };
    n_hooks += requires(O &o) { o.onFlitEjected(n, f, c); };
    n_hooks += requires(O &o) { o.onPacketDelivered(n, fl, 1u, c); };
    n_hooks += requires(O &o) { o.onLookaheadAdmitted(n, pt, la, c); };
    n_hooks += requires(O &o) { o.onQuantumScheduled(n, pt, la, sl, c); };
    n_hooks += requires(O &o) { o.onNiQuantumScheduled(n, la, sl, c); };
    n_hooks += requires(O &o) { o.onMissedSlot(n, pt, c); };
    n_hooks += requires(O &o) { o.onSchedFlowRegistered(*s, fl, 1u); };
    n_hooks += requires(O &o) { o.onSchedGrant(*s, fl, 1u, sl, 1u, c); };
    n_hooks += requires(O &o) { o.onSchedSkipped(*s, fl, 1u, 1u, c); };
    n_hooks += requires(O &o) { o.onSchedBookingCleared(*s, sl); };
    n_hooks += requires(O &o) { o.onSchedCreditReturn(*s, sl); };
    n_hooks += requires(O &o) { o.onSchedCreditNegative(*s, c); };
    n_hooks += requires(O &o) { o.onSchedLocalReset(*s, c); };
    n_hooks += requires(O &o) { o.onFaultInjected(k, n, c); };
    n_hooks += requires(O &o) { o.onFaultDetected(k, n, c, c); };
    n_hooks += requires(O &o) { o.onFaultRecovered(k, n, c, c); };
    n_hooks += requires(O &o) { o.onFlitDropped(n, f, c); };
    n_hooks += requires(O &o) { o.onSourceThrottled(n, fl, r, c); };
    return n_hooks;
}

/** Positive control: re-publishes every typed hook, so the probe above
 *  is known to spell each call correctly. */
class ExposedHooks : public NetObserver
{
  public:
    using NetObserver::onFaultDetected;
    using NetObserver::onFaultInjected;
    using NetObserver::onFaultRecovered;
    using NetObserver::onFlitArrived;
    using NetObserver::onFlitDropped;
    using NetObserver::onFlitEjected;
    using NetObserver::onFlitForwarded;
    using NetObserver::onFlitSourced;
    using NetObserver::onLookaheadAdmitted;
    using NetObserver::onMissedSlot;
    using NetObserver::onNiQuantumScheduled;
    using NetObserver::onPacketAccepted;
    using NetObserver::onPacketDelivered;
    using NetObserver::onQuantumScheduled;
    using NetObserver::onSchedBookingCleared;
    using NetObserver::onSchedCreditNegative;
    using NetObserver::onSchedCreditReturn;
    using NetObserver::onSchedFlowRegistered;
    using NetObserver::onSchedGrant;
    using NetObserver::onSchedLocalReset;
    using NetObserver::onSchedSkipped;
    using NetObserver::onSourceThrottled;
};

static_assert(std::variant_size_v<NetEvent> == 22);
static_assert(reachableTypedHooks<ExposedHooks>() == 22);
static_assert(reachableTypedHooks<NetObserver>() == 0,
              "a typed hook must not be callable through NetObserver &");
static_assert(reachableTypedHooks<ObserverMux>() == 0);
static_assert(reachableTypedHooks<DeferredObserver>() == 0);

// ---------------------------------------------------------------
// Round trip of every event type through the deferral
// ---------------------------------------------------------------

/** Downstream sink that keeps a copy of every event it is handed. */
class RecordingSink : public NetObserver
{
  public:
    std::vector<NetEvent> seen;

    void observe(const NetEvent &ev) override { seen.push_back(ev); }
};

/** One event of each type, in variant order, every field distinct. */
std::vector<NetEvent>
oneOfEach(const OutputScheduler *s)
{
    Flit f;
    f.type = FlitType::Tail;
    f.flow = 7;
    f.flitNo = 41;
    f.packet = 9;
    f.src = 3;
    f.dst = 12;
    f.pktSize = 4;
    f.createdAt = 100;
    f.frame = 5;
    f.quantum = 10;
    f.quantumLast = true;
    f.payload = flitPayload(7, 41);

    LookaheadFlit la;
    la.flow = 7;
    la.src = 3;
    la.dst = 12;
    la.quantumNo = 10;
    la.quantumFlits = 4;
    la.firstFlitNo = 40;
    la.departureSlot = 333;
    la.packet = 9;
    la.createdAt = 100;
    la.leadsTail = true;

    Packet p;
    p.id = 9;
    p.flow = 7;
    p.src = 3;
    p.dst = 12;
    p.sizeFlits = 4;
    p.createdAt = 100;
    p.enqueuedAt = 101;

    return {
        PacketAccepted{3, p, 101},
        FlitSourced{3, f, true, 102},
        FlitArrived{4, Port::West, f, false, 103},
        FlitForwarded{4, Port::South, f, true, 104},
        FlitEjected{12, f, 105},
        PacketDelivered{12, 7, 9, 106},
        LookaheadAdmitted{5, Port::North, la, 107},
        QuantumScheduled{5, Port::Local, la, 340, 108},
        NiQuantumScheduled{3, la, 335, 109},
        MissedSlot{6, Port::East, 110},
        SchedFlowRegistered{s, 7, 2},
        SchedGrant{s, 7, 10, 341, 6, 111},
        SchedSkipped{s, 8, 3, 6, 112},
        SchedBookingCleared{s, 341},
        SchedCreditReturn{s, 339},
        SchedCreditNegative{s, 113},
        SchedLocalReset{s, 114},
        FaultInjected{FaultKind::CreditLoss, 6, 115},
        FaultDetected{FaultKind::DataCorrupt, 6, 90, 116},
        FaultRecovered{FaultKind::LookaheadDrop, 6, 91, 117},
        FlitDropped{6, f, 118},
        SourceThrottled{3, 7, StallReason::NoSpecCredit, 119},
    };
}

TEST(NetEvent, OneOfEachCoversEveryType)
{
    LoftParams params;
    OutputScheduler sched(params, "test");
    const std::vector<NetEvent> events = oneOfEach(&sched);
    ASSERT_EQ(events.size(), std::variant_size_v<NetEvent>);
    for (std::size_t k = 0; k < events.size(); ++k)
        EXPECT_EQ(events[k].index(), k);
}

TEST(NetEvent, EveryTypeRoundTripsThroughTheDeferral)
{
    LoftParams params;
    OutputScheduler sched(params, "test");
    const std::vector<NetEvent> events = oneOfEach(&sched);

    // Event k comes from component k / 2, and component c runs in
    // domain c % 2: the two domains interleave in component index, and
    // each component emits two consecutive events.
    auto componentOf = [](std::size_t k) {
        return static_cast<std::uint32_t>(k / 2);
    };

    RecordingSink sink;
    DeferredObserver defer(&sink);
    defer.beginParallel(2);

    // Domain 1 runs first, as a worker thread may: the merge, not the
    // emission order across domains, defines the delivery order.
    LOFT_PSAN_SET_PHASE(SimPhase::Partitioned, 0);
    for (int d : {1, 0}) {
        par::ctx().domain = d;
        for (std::size_t k = 0; k < events.size(); ++k) {
            if (componentOf(k) % 2 != static_cast<std::uint32_t>(d))
                continue;
            par::ctx().component = componentOf(k);
            defer.observe(events[k]);
        }
    }
    par::ctx().domain = par::kDirect;
    EXPECT_TRUE(sink.seen.empty()) << "deferred events leaked early";

    LOFT_PSAN_SET_PHASE(SimPhase::Barrier, 0);
    defer.mergeDomains();
    LOFT_PSAN_SET_PHASE(SimPhase::Idle, 0);
    defer.endParallel();

    ASSERT_EQ(sink.seen.size(), events.size());
    for (std::size_t k = 0; k < events.size(); ++k)
        EXPECT_TRUE(sink.seen[k] == events[k]) << "event " << k;
}

TEST(NetEvent, DirectEventsPassStraightThrough)
{
    LoftParams params;
    OutputScheduler sched(params, "test");
    const std::vector<NetEvent> events = oneOfEach(&sched);

    RecordingSink sink;
    DeferredObserver defer(&sink);
    for (const NetEvent &ev : events)
        defer.observe(ev);
    EXPECT_EQ(sink.seen, events);
}

} // namespace
} // namespace noc
