/**
 * @file
 * Test-only reference: the O(W) LSF output scheduler exactly as it
 * stood before the reservation table moved to flat ring spans (one
 * `%` per slot, node-based maps for bookings and flows). The
 * differential fuzz in test_output_scheduler_fuzz.cc drives it and
 * noc::OutputScheduler through the same operations and requires
 * identical observable state after each one. Only the observer hooks
 * are removed (NetEvent records name the production class).
 */

#ifndef NOC_TESTS_REF_OUTPUT_SCHEDULER_HH
#define NOC_TESTS_REF_OUTPUT_SCHEDULER_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/loft_params.hh"
#include "core/output_scheduler.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace noc
{

class RefOutputScheduler
{
  public:
    /**
     * @param pool optional backing pool for the per-quantum booking /
     *        credit-return maps (node churn recycles through it). The
     *        pool must outlive the scheduler; null keeps the maps on
     *        the global heap (unit tests).
     */
    RefOutputScheduler(const LoftParams &params, std::string name,
                    Pool *pool = nullptr);

    /**
     * Register a contending flow with reservation R_ij given in flits
     * per frame. Enforces sum(R_ij) <= F.
     */
    void registerFlow(FlowId flow, std::uint32_t reservation_flits);

    bool hasFlow(FlowId flow) const { return flows_.count(flow) != 0; }

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

    /** Visit every live booking as (absolute slot, booking). */
    template <typename Fn>
    void
    forEachBooking(Fn &&fn) const
    {
        for (const auto &[local, booking] : bookings_)
            fn(toAbs(local), booking);
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
        return bookings_.empty() && outstanding_ == 0 &&
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
    std::uint32_t flowRemaining(FlowId f) const { return flows_.at(f).c; }
    std::uint64_t flowInjectFrame(FlowId f) const
    {
        return flows_.at(f).injFrame;
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

    /// @name Fault injection (tests only)
    /// Deliberately corrupt internal state so the liveness of external
    /// auditors can be proven. Never called by the simulator itself.
    /// @{

    /** Flip the flow id of the booking at @p abs_slot (no-op if the
     *  slot is free). Models a bit error in the reservation table. */
    void debugCorruptBookingFlow(Slot abs_slot);

    /** Add @p delta to the virtual-credit word of @p abs_slot only
     *  (not cumulative). Models a bit error in a credit counter. */
    void debugAdjustCredit(Slot abs_slot, std::int32_t delta);

    /// @}

  private:
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

    std::int32_t &creditRef(std::uint64_t local_slot);
    std::int32_t creditVal(std::uint64_t local_slot) const;

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

    std::vector<std::uint8_t> busy_;
    std::vector<std::int32_t> credit_;
    std::int32_t creditBeforeWindow_;
    std::vector<std::uint32_t> skipped_;
    /** Booked quanta keyed by local slot (ordered for earliest lookup). */
    PoolMap<std::uint64_t, SlotBooking> bookings_;
    /** Credit returns for slots beyond the current window. */
    PoolMap<std::uint64_t, std::uint32_t> futureReturns_;

    /// Ordered so frame-recycle / reset sweeps visit flows in flow-id
    /// order regardless of registration history (fingerprint-stable).
    std::map<FlowId, FlowState> flows_;
    std::uint32_t totalReserved_ = 0;

    std::uint64_t outstanding_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t throttles_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t staleReturns_ = 0;
    /** Latest booked slot (absolute): "busy flags" extend to here. */
    Slot lastBookedAbs_ = 0;
    bool dirty_ = false;
    Cycle lastAdvance_ = 0;
};

} // namespace noc

#endif // NOC_TESTS_REF_OUTPUT_SCHEDULER_HH
