/**
 * @file
 * The LOFT network interface (NI). Packets are segmented into quanta;
 * for every quantum a look-ahead flit is injected into the look-ahead
 * network after the quantum's departure over the local link has been
 * scheduled on the NI's own LSF output scheduler. Data flits follow at
 * their scheduled slots (or earlier, under speculative switching).
 *
 * Source-side throttling emerges naturally: when a flow has exhausted
 * its reservations in the local link's frame window, trySchedule fails
 * and the NI simply retries next cycle.
 */

#ifndef NOC_CORE_LOFT_SOURCE_HH
#define NOC_CORE_LOFT_SOURCE_HH

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/messages.hh"
#include "core/output_scheduler.hh"
#include "net/channel.hh"
#include "net/packet.hh"
#include "router/arbiter.hh"
#include "sim/clocked.hh"
#include "sim/ring_deque.hh"

namespace noc
{

class LoftSourceUnit final : public Clocked
{
  public:
    LoftSourceUnit(NodeId node, const LoftParams &params);

    /** Wiring: data plane to the router's Local input port. */
    void connectData(Channel<DataWireFlit> *data_out,
                     Channel<ActualCreditMsg> *actual_credit_in,
                     Channel<VirtualCreditMsg> *virtual_credit_in);

    /** Wiring: look-ahead plane to the LA router's Local input port. */
    void connectLookahead(Channel<LaWireFlit> *la_out,
                          Channel<LaCredit> *la_credit_in);

    /** Register a flow originating here (R in flits per frame). */
    void registerFlow(FlowId flow, std::uint32_t reservation_flits);

    /** Attach an event observer to the NI and its scheduler. */
    void
    setObserver(NetObserver *obs)
    {
        observer_ = obs;
        sched_.setObserver(obs);
    }

    bool canAccept(const Packet &pkt) const;
    bool enqueue(const Packet &pkt);

    void tick(Cycle now) override;

    bool quiescent() const override;

    NodeId node() const { return node_; }
    std::uint64_t queuedFlits() const { return queuedFlits_; }
    OutputScheduler &scheduler() { return sched_; }
    std::uint64_t throttleStalls() const { return throttles_; }
    std::uint64_t localResets() const { return localResets_; }
    std::uint64_t stallNoLaCredit() const { return stallNoLaCredit_; }
    std::uint64_t stallSpecCredit() const { return stallSpecCredit_; }
    std::uint64_t stallNonspecCredit() const { return stallNonspecCredit_; }
    std::uint64_t flitsSent() const { return flitsSent_; }
    std::uint64_t resetBlockedBookings() const { return rbBookings_; }
    std::uint64_t resetBlockedNonspec() const { return rbNonspec_; }
    /** Corrupted credit messages discarded by the CRC model. */
    std::uint64_t creditsDiscarded() const { return creditsDiscarded_; }

  private:
    /**
     * A quantum of the head packet: its look-ahead flit plus its place
     * in the packet, which is all it takes to rebuild its data flits
     * when they are sent, so a quantum stores no flits.
     */
    struct Quantum
    {
        LookaheadFlit la;
        std::uint32_t pktSize = 0;
        /** Offset of the quantum's first flit within its packet. */
        std::uint32_t pktOffset = 0;
        std::uint32_t sent = 0;
        /** Sticky buffer choice, decided at the first flit. */
        bool sendSpec = false;
    };

    /** Data flit @p i of quantum @p q. */
    static Flit dataFlit(const Quantum &q, std::uint32_t i);

    void receiveCredits(Cycle now);
    void buildNextQuantum(Cycle now);
    void emitLookahead(Cycle now);
    void forwardData(Cycle now);
    void maybeLocalReset(Cycle now);

    NodeId node_;
    LoftParams params_;
    OutputScheduler sched_;

    Channel<DataWireFlit> *dataOut_ = nullptr;
    Channel<ActualCreditMsg> *actualCreditIn_ = nullptr;
    Channel<VirtualCreditMsg> *virtualCreditIn_ = nullptr;
    Channel<LaWireFlit> *laOut_ = nullptr;
    Channel<LaCredit> *laCreditIn_ = nullptr;

    /** Packet queue, sized so the first enqueue does not allocate. */
    RingDeque<Packet> queue_{8};
    std::uint64_t queuedFlits_ = 0;

    /** Segmentation cursor within the head packet. */
    std::uint32_t headPacketOffset_ = 0;

    /** A quantum built from the head packet, awaiting scheduling. */
    std::optional<Quantum> pending_;

    /** Scheduled-but-not-fully-sent quanta, sorted by departure slot
     *  (la.departureSlot). */
    std::vector<Quantum> outbound_;

    /** Downstream (router local input) buffer space, flit granular. */
    std::uint32_t dnNonspecFree_;
    std::uint32_t dnSpecFree_;

    std::vector<std::uint32_t> laCredits_;
    RoundRobinArbiter laVcPick_;

    struct FlowCounters
    {
        std::uint64_t nextFlitNo = 0;
        std::uint64_t nextQuantumNo = 0;
    };
    std::unordered_map<FlowId, FlowCounters> counters_;

    std::uint64_t throttles_ = 0;
    std::uint64_t localResets_ = 0;
    std::uint64_t stallNoLaCredit_ = 0;
    std::uint64_t stallSpecCredit_ = 0;
    std::uint64_t stallNonspecCredit_ = 0;
    std::uint64_t flitsSent_ = 0;
    std::uint64_t rbBookings_ = 0;
    std::uint64_t rbNonspec_ = 0;
    std::uint64_t creditsDiscarded_ = 0;
    Cycle lastForward_ = 0;
    std::size_t queueCapacityFlits_;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_LOFT_SOURCE_HH
