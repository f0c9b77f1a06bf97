/**
 * @file
 * The LSF output scheduler: one per output link. It owns the framed
 * output reservation table (busy flags + cumulative virtual credits,
 * Fig. 7), the per-flow injection state (IF_ij, C_ij, R_ij), the
 * skipped() counters, and implements Algorithms 1-3 of the paper with
 * condition (1) guarding against the output scheduling anomaly
 * (Section 4.2, Theorem I).
 *
 * Time is measured in slots (one quantum of link time). Wire-visible
 * slots are absolute (derived from the global cycle counter); the
 * scheduler keeps its own local origin so that a local status reset
 * (Section 4.3.2) can restart CP/HF at zero without global agreement.
 *
 * Virtual credits follow the cumulative semantics of appendix
 * equation (3): scheduling a quantum to depart at slot s decrements
 * credits of every slot >= s; a credit returned by the downstream input
 * scheduler with departure slot s' increments every slot >= s'.
 *
 * Layout. The table is two flat rings of WT = WF x frameSlots entries,
 * both indexed by local slot % WT: the credit words and the bookings
 * (a slot is busy iff its booking holds a flow). Frames start at
 * multiples of frameSlots and WT is a whole number of frames, so a
 * frame never wraps the ring: scanning or re-seeding one frame is one
 * contiguous span, and the suffix [s, window end) that a booking or a
 * credit return updates is at most two spans. The hot loops therefore
 * run over plain arrays without a per-slot modulo. Flows are kept in
 * a flat table sorted by flow id (binary-search lookup; sweeps visit
 * flows in id order regardless of registration history).
 */

#ifndef NOC_CORE_OUTPUT_SCHEDULER_HH
#define NOC_CORE_OUTPUT_SCHEDULER_HH

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/loft_params.hh"
#include "net/instrument.hh"
#include "sim/types.hh"

namespace noc
{

/** Identity of a scheduled quantum (the busy-flag payload). */
struct SlotBooking
{
    FlowId flow = kInvalidFlow;
    std::uint64_t quantumNo = 0;
};

// loft-tidy: phase-pure — not Clocked itself, but every method runs
//     inside LoftDataRouter::tick and so inside the partitioned phase;
//     writes must stay within the owning router's component state or
//     go through a deferred seam.
class OutputScheduler
{
  public:
    OutputScheduler(const LoftParams &params, std::string name);

    /**
     * Register a contending flow with reservation R_ij given in flits
     * per frame. Enforces sum(R_ij) <= F.
     */
    void registerFlow(FlowId flow, std::uint32_t reservation_flits);

    bool
    hasFlow(FlowId flow) const
    {
        return flowIndex(flow) != flowIds_.size();
    }

    /**
     * Advance CP/HF to the frame containing @p now, recycling expired
     * frames (Algorithm 3). Must be called every cycle before any
     * scheduling request.
     */
    void advanceTo(Cycle now);

    /**
     * Algorithms 1 + 2: attempt to schedule one quantum of @p flow.
     * @param earliest_abs earliest permissible departure slot
     *        (absolute), e.g. the quantum's arrival slot at this router.
     * @param granted_abs receives the granted absolute slot.
     * @return true on success; on failure the flow is throttled until
     *         the head frame advances (per-flow state persists).
     */
    bool trySchedule(FlowId flow, Cycle now, std::uint64_t quantum_no,
                     Slot earliest_abs, Slot &granted_abs);

    /** Virtual credit returned by the downstream input scheduler. */
    void onCreditReturn(Slot abs_slot);

    /**
     * The quantum booked at @p abs_slot finished forwarding (possibly
     * early, under speculative switching): clear its busy flag.
     */
    void clearBooking(Slot abs_slot);

    /** Booking stored at an absolute slot, if any. */
    std::optional<SlotBooking> bookingAt(Slot abs_slot) const;

    /** The earliest still-booked absolute slot (for in-order checks). */
    std::optional<Slot> earliestBookedSlot() const;

    /** Visit every live booking as (absolute slot, booking), in slot
     *  order. */
    template <typename Fn>
    void
    forEachBooking(Fn &&fn) const
    {
        std::uint32_t left = liveBookings_;
        const std::size_t wt = bookings_.size();
        std::uint64_t local = windowStartSlot();
        for (std::size_t i = ringIndex(local); left != 0; ++local) {
            const RingBooking &b = bookings_[i];
            if (b.flow != kInvalidFlow) {
                fn(toAbs(local), SlotBooking{b.flow, b.quantumNo});
                --left;
            }
            if (++i == wt)
                i = 0;
        }
    }

    /** True if the table is empty and no virtual credit is owed. */
    bool canLocalReset() const;

    /**
     * True if deferring advanceTo() is externally invisible, letting
     * the owning component skip its tick. Requires no live bookings,
     * no owed virtual credits and no banked beyond-window returns, so
     * every credit word sits at the buffer ceiling and frame recycling
     * is pure renumbering; the catch-up loop in advanceTo() replays
     * the deferred recycles identically on the next request. With
     * local status resets enabled we additionally require the reset to
     * have happened (!dirty()): a post-reset scheduler is pristine, so
     * sleeping cannot diverge from the reset-every-frame idle baseline.
     */
    bool
    quiescent() const
    {
        return liveBookings_ == 0 && outstanding_ == 0 &&
               futureReturns_.empty() &&
               (!dirty_ || !params_.localStatusReset);
    }

    /** True if a reset would change anything (grants or frame drift). */
    bool dirty() const { return dirty_; }

    /** Perform a local status reset (Section 4.3.2). */
    void localReset(Cycle now);

    /// @name Introspection (tests / stats)
    /// @{
    std::int32_t virtualCreditAt(Slot abs_slot) const;
    std::uint64_t headFrame() const { return headFrame_; }
    std::uint64_t outstandingCredits() const { return outstanding_; }
    std::uint64_t grants() const { return grants_; }
    std::uint64_t throttles() const { return throttles_; }
    std::uint64_t resets() const { return resets_; }
    /** Bookings that drove any slot's virtual credit negative. */
    std::uint64_t anomalyViolations() const { return violations_; }
    std::uint32_t reservedSlotsTotal() const { return totalReserved_; }
    std::uint32_t flowRemaining(FlowId f) const { return flowState(f).c; }
    std::uint64_t flowInjectFrame(FlowId f) const
    {
        return flowState(f).injFrame;
    }
    std::uint32_t skippedAt(std::uint64_t frame) const
    {
        return skipped_[frame % params_.windowFrames];
    }
    const std::string &name() const { return name_; }
    const LoftParams &params() const { return params_; }
    /** First absolute slot of the current frame window. */
    Slot windowStartAbsSlot() const { return toAbs(windowStartSlot()); }
    /** One past the last absolute slot of the frame window. */
    Slot windowEndAbsSlot() const { return toAbs(windowEndSlotEx()); }
    /// @}

    /** Attach an event observer (null detaches). */
    void setObserver(NetObserver *obs) { observer_ = obs; }

    /// @name Fault injection (tests only)
    /// Deliberately corrupt internal state so the liveness of external
    /// auditors can be proven. Never called by the simulator itself.
    /// @{

    /** Flip every bit of the flow id of the booking at @p abs_slot
     *  (no-op if the slot is free). Models a bit error in the
     *  reservation table; flow 0 becomes 1, because ~0 is the
     *  free-slot marker and the slot must stay booked. */
    void debugCorruptBookingFlow(Slot abs_slot);

    /** Add @p delta to the virtual-credit word of @p abs_slot only
     *  (not cumulative). Models a bit error in a credit counter. */
    void debugAdjustCredit(Slot abs_slot, std::int32_t delta);

    /// @}

  private:
    /**
     * A booking as the ring stores it: 8 bytes per slot instead of
     * SlotBooking's 16, because the ring costs WT entries in every
     * scheduler of the network. Quantum numbers are therefore limited
     * to 32 bits (book() checks). flow == kInvalidFlow: a free slot.
     */
    struct RingBooking
    {
        FlowId flow = kInvalidFlow;
        std::uint32_t quantumNo = 0;
    };

    struct FlowState
    {
        std::uint32_t r = 0;        ///< reservation per frame (quanta)
        std::uint32_t c = 0;        ///< remaining reservation C_ij
        std::uint64_t injFrame = 0; ///< injection frame IF_ij (local)
    };

    /** Local slot of an absolute slot. */
    std::uint64_t toLocal(Slot abs) const;
    Slot toAbs(std::uint64_t local) const { return local + originSlot_; }

    std::uint64_t windowStartSlot() const;
    std::uint64_t windowEndSlotEx() const;

    /** Ring index of a local slot in credit_ and bookings_. */
    std::size_t ringIndex(std::uint64_t local) const
    {
        return local % credit_.size();
    }

    /**
     * Call @p fn(first, last) for each ring index range [first, last)
     * holding the local slots [@p from, window end), in slot order:
     * one range, or two when the suffix wraps past the ring's end.
     * @p from must lie in [window start, window end].
     */
    template <typename Fn>
    void
    forWindowSuffix(std::uint64_t from, Fn &&fn) const
    {
        const std::size_t first = ringIndex(from);
        const std::size_t n = windowEndSlotEx() - from;
        const std::size_t head = std::min(n, credit_.size() - first);
        fn(first, first + head);
        if (head < n)
            fn(std::size_t{0}, n - head);
    }

    /** Ring index of the live booking at an absolute slot, or
     *  bookings_.size() if there is none. */
    std::size_t bookedIndex(Slot abs_slot) const;

    /** Index of @p flow in flowIds_ / flowStates_, or flowIds_.size()
     *  if it is not registered. */
    std::size_t flowIndex(FlowId flow) const;
    const FlowState &flowState(FlowId flow) const;

    void recycleHeadFrame();
    void book(std::uint64_t local_slot, FlowId flow,
              std::uint64_t quantum_no);
    bool conditionOneHolds(const FlowState &st) const;
    bool tryScheduleInFrame(const FlowState &st, std::uint64_t l_now,
                            std::uint64_t earliest_local,
                            std::uint64_t &found_local) const;

    LoftParams params_;
    std::string name_;

    Slot originSlot_ = 0;
    std::uint64_t headFrame_ = 0;

    /** Cumulative virtual credit per slot (ring). */
    std::vector<std::int32_t> credit_;
    /** Booked quantum per slot (ring); flow == kInvalidFlow if free. */
    std::vector<RingBooking> bookings_;
    std::uint32_t liveBookings_ = 0;
    std::int32_t creditBeforeWindow_;
    std::vector<std::uint32_t> skipped_;
    /** A credit-return count for one slot beyond the window. */
    struct FutureReturn
    {
        std::uint64_t slot;
        std::uint32_t count;
    };
    /** Credit returns for slots beyond the current window, sorted by
     *  slot. Every slot is >= the window end: recycling consumes the
     *  new frame's slots from the front. */
    std::vector<FutureReturn> futureReturns_;

    /** Registered flows, sorted by id; flowStates_ runs parallel. */
    std::vector<FlowId> flowIds_;
    std::vector<FlowState> flowStates_;
    std::uint32_t totalReserved_ = 0;

    std::uint64_t outstanding_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t violations_ = 0;
    bool dirty_ = false;
    Cycle lastAdvance_ = 0;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_OUTPUT_SCHEDULER_HH
