/**
 * @file
 * Injection-side network interface for wormhole-style networks: a FIFO
 * packet queue feeding the router's Local input port over a 1 flit/cycle
 * link with credit-based VC flow control.
 *
 * GSF specializes this unit (frame tagging and per-frame quota gating)
 * by overriding allowStart().
 */

#ifndef NOC_ROUTER_SOURCE_UNIT_HH
#define NOC_ROUTER_SOURCE_UNIT_HH

#include "net/channel.hh"
#include "net/packet.hh"
#include "router/wormhole_router.hh"
#include "sim/clocked.hh"
#include "sim/ring_deque.hh"

namespace noc
{

// Intentional intermediate base: GsfSourceUnit layers frame-window
// throttling on top of the wormhole source (devirtualization happens
// at the leaf, which the lint check requires to be final).
// loft-tidy: clocked-base
class SourceUnit : public Clocked
{
  public:
    /**
     * @param node the node this NI belongs to.
     * @param params the router parameters (VC count/depth, atomic reuse).
     * @param out flit channel into the router's Local input port.
     * @param credit_in credits returned by the router's Local input.
     * @param queue_capacity_flits source queue capacity (0 = unbounded).
     */
    SourceUnit(NodeId node, const WormholeParams &params,
               Channel<WireFlit> *out, Channel<Credit> *credit_in,
               std::size_t queue_capacity_flits);

    ~SourceUnit() override = default;

    /** True if the queue has room for @p pkt. */
    bool canAccept(const Packet &pkt) const;

    /** Enqueue a packet. @return false if the queue is full. */
    bool enqueue(const Packet &pkt);

    void tick(Cycle now) override;

    /**
     * Idle with an empty queue, no packet mid-transmission and no
     * credits arriving. Holds for GSF too: the frame-quota hook
     * (allowStart) is consulted only when a queued packet exists.
     */
    bool
    quiescent() const override
    {
        return !sending_ && queue_.empty() &&
               (!creditIn_ || creditIn_->empty());
    }

    /** Flits waiting in the source queue (current packet included). */
    std::uint64_t queuedFlits() const { return queuedFlits_; }

    NodeId node() const { return node_; }

    /** Attach an event observer. */
    void setObserver(NetObserver *obs) { observer_ = obs; }

  protected:
    /**
     * GSF hook: may the packet at the head of the queue start
     * transmission now? On success @p frame_tag receives the frame
     * number to stamp on the packet's flits.
     */
    virtual bool
    allowStart(const Packet &pkt, Cycle now, std::uint64_t &frame_tag)
    {
        (void)pkt;
        (void)now;
        frame_tag = 0;
        return true;
    }

    /** GSF hook: called when a flit enters the network. */
    virtual void onFlitInjected(const Flit &flit, Cycle now)
    {
        (void)flit;
        (void)now;
    }

  private:
    struct VcState
    {
        std::uint32_t credits = 0;
    };

    void receiveCredits(Cycle now);
    bool vcUsable(std::uint32_t vc) const;

    NodeId node_;
    WormholeParams params_;
    Channel<WireFlit> *out_;
    Channel<Credit> *creditIn_;
    std::size_t queueCapacityFlits_;

    /** FIFO packet queue; the ring's capacity plateaus at the high-water
     *  occupancy, so steady state enqueues never allocate. Sized at
     *  construction so the first enqueue does not allocate either. */
    RingDeque<Packet> queue_{8};
    std::uint64_t queuedFlits_ = 0;

    std::vector<VcState> vcs_;
    /** Round-robin pointer for picking the next injection VC. */
    std::uint32_t vcPointer_ = 0;

    /** Transmission state of the in-progress packet. */
    bool sending_ = false;
    Packet current_;
    std::uint32_t sentFlits_ = 0;
    std::uint32_t currentVC_ = 0;
    std::uint64_t currentFrame_ = 0;

    std::uint64_t nextFlitNo_ = 0;

  protected:
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_ROUTER_SOURCE_UNIT_HH
