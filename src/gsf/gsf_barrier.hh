/**
 * @file
 * The global barrier network of GSF: detects when the head frame has
 * drained from the network and, after the barrier broadcast delay,
 * advances the globally synchronized frame window.
 */

#ifndef NOC_GSF_GSF_BARRIER_HH
#define NOC_GSF_GSF_BARRIER_HH

#include <cstdint>
#include <vector>

#include "sim/clocked.hh"
#include "sim/parallel.hh"
#include "sim/types.hh"

namespace noc
{

/**
 * Always active: the barrier advances the frame window on a timer even
 * when the network is empty (an idle network recycles every delay+1
 * cycles), and source quotas replenish on those advances. It therefore
 * keeps Clocked's default quiescent() == false.
 *
 * In a partitioned run (DomainMerged) sources and sinks of several
 * domains report admissions/ejections concurrently; the events are
 * buffered per domain and replayed at the per-cycle barrier, before
 * this component's own tick (it is keyless, so it runs in the serial
 * epilogue). The per-frame counters are sums of commutative +-1/+n
 * updates and the head frame only moves inside tick(), so a
 * domain-order replay is state-identical to the serial interleaving,
 * and the admission-range/underflow panics fire under exactly the same
 * conditions.
 */
// loft-tidy: phase-serial — keyless: ticked in the serial epilogue
//     after mergeDomains() has replayed the per-domain frame events.
class GsfBarrier final : public Clocked, public DomainMerged
{
  public:
    GsfBarrier(std::uint32_t window_frames, Cycle barrier_delay);

    /** Absolute number of the head (oldest active) frame. */
    std::uint64_t headFrame() const { return head_; }

    /** Absolute number of the newest active frame. */
    std::uint64_t newestFrame() const { return head_ + window_ - 1; }

    /** A source admitted a packet into @p frame (counts its flits). */
    void onPacketAdmitted(std::uint64_t frame, std::uint32_t flits);

    /** A sink ejected a flit tagged @p frame. */
    void onFlitEjected(std::uint64_t frame);

    /** Total flits still owned by active frames. */
    std::uint64_t inFlightFlits() const { return totalInFlight_; }

    /** Number of window advances so far (diagnostics). */
    std::uint64_t recycleCount() const { return recycles_; }

    void tick(Cycle now) override;

    // DomainMerged
    void beginParallel(unsigned domains) override;
    void mergeDomains() override;
    void endParallel() override;

    /**
     * Pre-size each per-domain event buffer to @p per_domain entries
     * (2 x node count bounds a cycle's events: at most one admission
     * per source and one ejection per sink per cycle). Keeps first-time
     * buffer growth out of the measurement window.
     */
    void setDeferredReserve(std::size_t per_domain)
    {
        deferredReserve_ = per_domain;
    }

  private:
    /** One buffered admission (flits > 0) or ejection (admit false). */
    struct FrameEvent
    {
        std::uint64_t frame = 0;
        std::uint32_t flits = 0;
        bool admit = false;
    };

    void admitNow(std::uint64_t frame, std::uint32_t flits);
    void ejectNow(std::uint64_t frame);

    std::uint32_t window_;
    Cycle delay_;
    std::uint64_t head_ = 0;
    /** In-flight flit count per active frame, indexed by
     *  frame % window_. Admissions only land in active frames, and the
     *  head only advances once its frame has drained, so the counter a
     *  new newest frame inherits is zero. */
    std::vector<std::uint64_t> inFlight_;
    std::uint64_t totalInFlight_ = 0;
    /** Cycle at which a pending advance completes (kNeverCycle: none). */
    Cycle advanceAt_ = kNeverCycle;
    std::uint64_t recycles_ = 0;
    /**
     * Per-domain event buffers. Only written inside a partitioned
     * phase (currentDomain() >= 0); kept allocated between run windows
     * so their capacity plateaus after warm-up.
     */
    std::vector<std::vector<FrameEvent>> deferred_;
    /** Reserve applied to each domain buffer (0 = grow on demand). */
    std::size_t deferredReserve_ = 0;
};

} // namespace noc

#endif // NOC_GSF_GSF_BARRIER_HH
