/**
 * @file
 * Network instrumentation: the event record every network
 * implementation (LOFT, GSF, wormhole) publishes its
 * micro-architectural events as, the passive observer interface that
 * consumes them, and the hook macro that makes the whole mechanism
 * compile-time zero-cost.
 *
 * An event is a `NetEvent`: a std::variant over one small payload
 * struct per event type, whose fields are named after the parameters
 * of the matching typed hook. Components hold a `NetObserver *` (null
 * by default) and emit through
 *
 *     NOC_OBSERVE(observer_, FlitEjected{node_, flit, now});
 *
 * which builds the event once and hands it by const reference to
 * NetObserver::observe(). Pass-through observers (ObserverMux,
 * DeferredObserver) override only observe() and forward or buffer the
 * record as is. Consumers (auditor, telemetry, trace, fault monitor)
 * override the typed on... hooks they care about; the default
 * observe() dispatches to them with one std::visit. The typed hooks are
 * protected, so calling one through a `NetObserver *` does not compile:
 * a forwarder cannot forget an event type.
 *
 * With LOFT_AUDIT_ENABLED == 0 (CMake option -DLOFT_AUDIT=OFF) the
 * macro expands to nothing, so no event is built and not even the null
 * check remains in the hot path.
 *
 * The events fall into five groups:
 *  - flit life cycle: sourced at an NI, arrived at a router input,
 *    forwarded through a router output, ejected at a sink;
 *  - packet life cycle: accepted by an NI, fully delivered at a sink;
 *  - LOFT reservation protocol: look-ahead admission into the input
 *    reservation table and quantum output-scheduling decisions;
 *  - LSF output-scheduler state transitions: flow registration, slot
 *    grants, booking clears, virtual-credit returns, negative-credit
 *    (anomaly) occurrences, and local status resets;
 *  - fault injection and recovery, and source back-pressure.
 *
 * Adding an event type takes three edits here: a payload struct (also
 * listed in NetEvent), a typed virtual hook, and one arm of the visit
 * in NetObserver::observe(). A struct without an arm does not compile.
 */

#ifndef NOC_NET_INSTRUMENT_HH
#define NOC_NET_INSTRUMENT_HH

#include <cstdint>
#include <variant>

#include "net/flit.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/types.hh"

#ifndef LOFT_AUDIT_ENABLED
#define LOFT_AUDIT_ENABLED 1
#endif

#if LOFT_AUDIT_ENABLED
#define NOC_OBSERVE(obs, ...)                                           \
    do {                                                                \
        if (obs)                                                        \
            (obs)->observe(::noc::NetEvent{__VA_ARGS__});               \
    } while (0)
#else
#define NOC_OBSERVE(obs, ...)                                           \
    do {                                                                \
    } while (0)
#endif

namespace noc
{

class OutputScheduler;

/** True if instrumentation hooks are compiled into this build. */
constexpr bool kAuditCompiledIn = LOFT_AUDIT_ENABLED != 0;

/**
 * The injectable fault classes (src/faults). Also the vocabulary of the
 * Fault* observer events, so detectors (sinks, credit receivers, the
 * recovery logic) and the FaultMonitor agree on labels.
 */
enum class FaultKind : std::uint8_t
{
    LookaheadDrop, ///< look-ahead flit silently dropped on a link
    CreditLoss,    ///< credit message lost (resynchronized late)
    CreditCorrupt, ///< credit message corrupted (discarded by CRC)
    DataCorrupt,   ///< data-flit payload bit-flip
    LinkStall,     ///< link stuck for K cycles
};

constexpr std::size_t kNumFaultKinds = 5;

/** Human-readable fault-kind name ("lookahead_drop", ...). */
inline const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::LookaheadDrop:
        return "lookahead_drop";
      case FaultKind::CreditLoss:
        return "credit_loss";
      case FaultKind::CreditCorrupt:
        return "credit_corrupt";
      case FaultKind::DataCorrupt:
        return "data_corrupt";
      case FaultKind::LinkStall:
        return "link_stall";
    }
    return "unknown";
}

/**
 * Why a source NI could not make forward progress this cycle. The
 * vocabulary of the SourceThrottled event; tracing uses it to label
 * source-side stall cycles, and it is deliberately comparable across
 * the three NetKinds (wormhole sources emit NoVc/NoCredit, GSF adds
 * FrameQuota, LOFT adds the look-ahead/scheduler/credit reasons).
 */
enum class StallReason : std::uint8_t
{
    NoVc,            ///< no virtual channel available for a new packet
    NoCredit,        ///< downstream buffer credits exhausted
    FrameQuota,      ///< GSF per-frame injection quota exhausted
    NoLaCredit,      ///< LOFT look-ahead network credit exhausted
    SchedThrottle,   ///< LOFT NI scheduler denied a slot this cycle
    NoSpecCredit,    ///< LOFT speculative data buffer credit exhausted
    NoNonspecCredit, ///< LOFT non-speculative data buffer credit gone
};

constexpr std::size_t kNumStallReasons = 7;

/** Human-readable stall-reason name ("no_vc", ...). */
inline const char *
stallReasonName(StallReason reason)
{
    switch (reason) {
      case StallReason::NoVc:
        return "no_vc";
      case StallReason::NoCredit:
        return "no_credit";
      case StallReason::FrameQuota:
        return "frame_quota";
      case StallReason::NoLaCredit:
        return "no_la_credit";
      case StallReason::SchedThrottle:
        return "sched_throttle";
      case StallReason::NoSpecCredit:
        return "no_spec_credit";
      case StallReason::NoNonspecCredit:
        return "no_nonspec_credit";
    }
    return "unknown";
}

/// @name Event payloads, one per typed hook of NetObserver
/// @{

/** An NI accepted @p pkt into its source queue. */
struct PacketAccepted
{
    NodeId node;
    Packet pkt;
    Cycle now;
    bool operator==(const PacketAccepted &) const = default;
};

/** An NI put @p flit on the wire towards its local router. */
struct FlitSourced
{
    NodeId node;
    Flit flit;
    bool spec;
    Cycle now;
    bool operator==(const FlitSourced &) const = default;
};

/** A router buffered @p flit from input port @p in. */
struct FlitArrived
{
    NodeId node;
    Port in;
    Flit flit;
    bool spec;
    Cycle now;
    bool operator==(const FlitArrived &) const = default;
};

/** A router transmitted @p flit through output port @p out. */
struct FlitForwarded
{
    NodeId node;
    Port out;
    Flit flit;
    bool spec;
    Cycle now;
    bool operator==(const FlitForwarded &) const = default;
};

/** A sink consumed @p flit. */
struct FlitEjected
{
    NodeId node;
    Flit flit;
    Cycle now;
    bool operator==(const FlitEjected &) const = default;
};

/** All flits of packet @p pkt of @p flow have been consumed. */
struct PacketDelivered
{
    NodeId node;
    FlowId flow;
    PacketId pkt;
    Cycle now;
    bool operator==(const PacketDelivered &) const = default;
};

/** A look-ahead flit was admitted into the input reservation table of
 *  router @p node on port @p in (LOFT). */
struct LookaheadAdmitted
{
    NodeId node;
    Port in;
    LookaheadFlit la;
    Cycle now;
    bool operator==(const LookaheadAdmitted &) const = default;
};

/** Router @p node scheduled quantum @p la to depart through @p out at
 *  absolute slot @p granted (Local = to the sink). */
struct QuantumScheduled
{
    NodeId node;
    Port out;
    LookaheadFlit la;
    Slot granted;
    Cycle now;
    bool operator==(const QuantumScheduled &) const = default;
};

/** The NI of @p node scheduled quantum @p la over its local link (the
 *  data will arrive at the node's own router). */
struct NiQuantumScheduled
{
    NodeId node;
    LookaheadFlit la;
    Slot granted;
    Cycle now;
    bool operator==(const NiQuantumScheduled &) const = default;
};

/** Router @p node missed a scheduled switching slot on @p out. */
struct MissedSlot
{
    NodeId node;
    Port out;
    Cycle now;
    bool operator==(const MissedSlot &) const = default;
};

/** @p flow was registered with reservation @p quanta slots/frame. */
struct SchedFlowRegistered
{
    const OutputScheduler *sched;
    FlowId flow;
    std::uint32_t quanta;
    bool operator==(const SchedFlowRegistered &) const = default;
};

/** A slot grant: @p flow books @p abs_slot in frame @p frame. */
struct SchedGrant
{
    const OutputScheduler *sched;
    FlowId flow;
    std::uint64_t quantum_no;
    Slot abs_slot;
    std::uint64_t frame;
    Cycle now;
    bool operator==(const SchedGrant &) const = default;
};

/** @p flow advanced its injection frame past @p frame and yielded
 *  @p quanta unused reserved slots (the skipped(i) bookkeeping of
 *  Algorithm 1; FRS redistributes the capacity). */
struct SchedSkipped
{
    const OutputScheduler *sched;
    FlowId flow;
    std::uint32_t quanta;
    std::uint64_t frame;
    Cycle now;
    bool operator==(const SchedSkipped &) const = default;
};

/** The booking at @p abs_slot was cleared (quantum fully sent). */
struct SchedBookingCleared
{
    const OutputScheduler *sched;
    Slot abs_slot;
    bool operator==(const SchedBookingCleared &) const = default;
};

/** A virtual credit stamped with @p abs_slot returned. */
struct SchedCreditReturn
{
    const OutputScheduler *sched;
    Slot abs_slot;
    bool operator==(const SchedCreditReturn &) const = default;
};

/** A booking drove some slot's virtual credit negative (the Section 4.2
 *  anomaly; expected only with the guard disabled). */
struct SchedCreditNegative
{
    const OutputScheduler *sched;
    Cycle now;
    bool operator==(const SchedCreditNegative &) const = default;
};

/** The scheduler performed a local status reset (Section 4.3.2). */
struct SchedLocalReset
{
    const OutputScheduler *sched;
    Cycle now;
    bool operator==(const SchedLocalReset &) const = default;
};

/** The injector applied a fault of @p kind on a link whose receiver is
 *  @p node. */
struct FaultInjected
{
    FaultKind kind;
    NodeId node;
    Cycle now;
    bool operator==(const FaultInjected &) const = default;
};

/** A protocol-level detector (timeout, CRC, payload check, link
 *  monitor) noticed the fault injected at @p injectedAt. */
struct FaultDetected
{
    FaultKind kind;
    NodeId node;
    Cycle injectedAt;
    Cycle now;
    bool operator==(const FaultDetected &) const = default;
};

/** The fault injected at @p injectedAt was repaired (look-ahead
 *  re-issued, credit resynchronized, ...). */
struct FaultRecovered
{
    FaultKind kind;
    NodeId node;
    Cycle injectedAt;
    Cycle now;
    bool operator==(const FaultRecovered &) const = default;
};

/** Recovery gave up on @p flit and dropped it at @p node; the flit
 *  leaves the network unaccounted by the sinks. */
struct FlitDropped
{
    NodeId node;
    Flit flit;
    Cycle now;
    bool operator==(const FlitDropped &) const = default;
};

/** The source NI of @p node had pending work for @p flow this cycle
 *  but could not advance it for @p reason. Fires at most once per
 *  (source, reason) per cycle. */
struct SourceThrottled
{
    NodeId node;
    FlowId flow;
    StallReason reason;
    Cycle now;
    bool operator==(const SourceThrottled &) const = default;
};

/// @}

/** One observer event: the only record that moves between emitters,
 *  pass-through observers and consumers. */
using NetEvent =
    std::variant<PacketAccepted, FlitSourced, FlitArrived, FlitForwarded,
                 FlitEjected, PacketDelivered, LookaheadAdmitted,
                 QuantumScheduled, NiQuantumScheduled, MissedSlot,
                 SchedFlowRegistered, SchedGrant, SchedSkipped,
                 SchedBookingCleared, SchedCreditReturn,
                 SchedCreditNegative, SchedLocalReset, FaultInjected,
                 FaultDetected, FaultRecovered, FlitDropped,
                 SourceThrottled>;

namespace detail
{
/** The usual overload-set helper for std::visit. */
template <typename... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};
} // namespace detail

// loft-tidy: observer-base
class NetObserver
{
  public:
    virtual ~NetObserver() = default;

    /** Consume @p ev. The default dispatches to the typed hook of its
     *  payload; pass-through observers override this alone. */
    virtual void
    observe(const NetEvent &ev)
    {
        std::visit(
            detail::Overloaded{
                [this](const PacketAccepted &e) {
                    onPacketAccepted(e.node, e.pkt, e.now);
                },
                [this](const FlitSourced &e) {
                    onFlitSourced(e.node, e.flit, e.spec, e.now);
                },
                [this](const FlitArrived &e) {
                    onFlitArrived(e.node, e.in, e.flit, e.spec, e.now);
                },
                [this](const FlitForwarded &e) {
                    onFlitForwarded(e.node, e.out, e.flit, e.spec, e.now);
                },
                [this](const FlitEjected &e) {
                    onFlitEjected(e.node, e.flit, e.now);
                },
                [this](const PacketDelivered &e) {
                    onPacketDelivered(e.node, e.flow, e.pkt, e.now);
                },
                [this](const LookaheadAdmitted &e) {
                    onLookaheadAdmitted(e.node, e.in, e.la, e.now);
                },
                [this](const QuantumScheduled &e) {
                    onQuantumScheduled(e.node, e.out, e.la, e.granted,
                                       e.now);
                },
                [this](const NiQuantumScheduled &e) {
                    onNiQuantumScheduled(e.node, e.la, e.granted, e.now);
                },
                [this](const MissedSlot &e) {
                    onMissedSlot(e.node, e.out, e.now);
                },
                [this](const SchedFlowRegistered &e) {
                    onSchedFlowRegistered(*e.sched, e.flow, e.quanta);
                },
                [this](const SchedGrant &e) {
                    onSchedGrant(*e.sched, e.flow, e.quantum_no,
                                 e.abs_slot, e.frame, e.now);
                },
                [this](const SchedSkipped &e) {
                    onSchedSkipped(*e.sched, e.flow, e.quanta, e.frame,
                                   e.now);
                },
                [this](const SchedBookingCleared &e) {
                    onSchedBookingCleared(*e.sched, e.abs_slot);
                },
                [this](const SchedCreditReturn &e) {
                    onSchedCreditReturn(*e.sched, e.abs_slot);
                },
                [this](const SchedCreditNegative &e) {
                    onSchedCreditNegative(*e.sched, e.now);
                },
                [this](const SchedLocalReset &e) {
                    onSchedLocalReset(*e.sched, e.now);
                },
                [this](const FaultInjected &e) {
                    onFaultInjected(e.kind, e.node, e.now);
                },
                [this](const FaultDetected &e) {
                    onFaultDetected(e.kind, e.node, e.injectedAt, e.now);
                },
                [this](const FaultRecovered &e) {
                    onFaultRecovered(e.kind, e.node, e.injectedAt, e.now);
                },
                [this](const FlitDropped &e) {
                    onFlitDropped(e.node, e.flit, e.now);
                },
                [this](const SourceThrottled &e) {
                    onSourceThrottled(e.node, e.flow, e.reason, e.now);
                },
            },
            ev);
    }

  protected:
    /// @name Typed hooks: the consumer API
    /// One per event payload above, with the payload's fields as
    /// parameters. Each defaults to a no-op, so a consumer overrides
    /// only what it cares about. Protected: events enter through
    /// observe().
    /// @{

    virtual void onPacketAccepted(NodeId /*node*/, const Packet & /*pkt*/,
                                  Cycle /*now*/) {}
    virtual void onFlitSourced(NodeId /*node*/, const Flit & /*flit*/,
                               bool /*spec*/, Cycle /*now*/) {}
    virtual void onFlitArrived(NodeId /*node*/, Port /*in*/,
                               const Flit & /*flit*/, bool /*spec*/,
                               Cycle /*now*/) {}
    virtual void onFlitForwarded(NodeId /*node*/, Port /*out*/,
                                 const Flit & /*flit*/, bool /*spec*/,
                                 Cycle /*now*/) {}
    virtual void onFlitEjected(NodeId /*node*/, const Flit & /*flit*/,
                               Cycle /*now*/) {}
    virtual void onPacketDelivered(NodeId /*node*/, FlowId /*flow*/,
                                   PacketId /*pkt*/, Cycle /*now*/) {}
    virtual void onLookaheadAdmitted(NodeId /*node*/, Port /*in*/,
                                     const LookaheadFlit & /*la*/,
                                     Cycle /*now*/) {}
    virtual void onQuantumScheduled(NodeId /*node*/, Port /*out*/,
                                    const LookaheadFlit & /*la*/,
                                    Slot /*granted*/, Cycle /*now*/) {}
    virtual void onNiQuantumScheduled(NodeId /*node*/,
                                      const LookaheadFlit & /*la*/,
                                      Slot /*granted*/, Cycle /*now*/) {}
    virtual void onMissedSlot(NodeId /*node*/, Port /*out*/,
                              Cycle /*now*/) {}
    virtual void onSchedFlowRegistered(const OutputScheduler & /*sched*/,
                                       FlowId /*flow*/,
                                       std::uint32_t /*quanta*/) {}
    virtual void onSchedGrant(const OutputScheduler & /*sched*/,
                              FlowId /*flow*/,
                              std::uint64_t /*quantum_no*/,
                              Slot /*abs_slot*/, std::uint64_t /*frame*/,
                              Cycle /*now*/) {}
    virtual void onSchedSkipped(const OutputScheduler & /*sched*/,
                                FlowId /*flow*/, std::uint32_t /*quanta*/,
                                std::uint64_t /*frame*/, Cycle /*now*/) {}
    virtual void onSchedBookingCleared(const OutputScheduler & /*sched*/,
                                       Slot /*abs_slot*/) {}
    virtual void onSchedCreditReturn(const OutputScheduler & /*sched*/,
                                     Slot /*abs_slot*/) {}
    virtual void onSchedCreditNegative(const OutputScheduler & /*sched*/,
                                       Cycle /*now*/) {}
    virtual void onSchedLocalReset(const OutputScheduler & /*sched*/,
                                   Cycle /*now*/) {}
    virtual void onFaultInjected(FaultKind /*kind*/, NodeId /*node*/,
                                 Cycle /*now*/) {}
    virtual void onFaultDetected(FaultKind /*kind*/, NodeId /*node*/,
                                 Cycle /*injectedAt*/, Cycle /*now*/) {}
    virtual void onFaultRecovered(FaultKind /*kind*/, NodeId /*node*/,
                                  Cycle /*injectedAt*/, Cycle /*now*/) {}
    virtual void onFlitDropped(NodeId /*node*/, const Flit & /*flit*/,
                               Cycle /*now*/) {}
    virtual void onSourceThrottled(NodeId /*node*/, FlowId /*flow*/,
                                   StallReason /*reason*/, Cycle /*now*/) {}

    /// @}
};

} // namespace noc

#endif // NOC_NET_INSTRUMENT_HH
