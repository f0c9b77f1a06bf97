#include "core/output_scheduler.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

OutputScheduler::OutputScheduler(const LoftParams &params,
                                 std::string name)
    : params_(params), name_(std::move(name)),
      credit_(params.windowSlots(),
              static_cast<std::int32_t>(params.bufferQuanta())),
      bookings_(params.windowSlots()),
      creditBeforeWindow_(static_cast<std::int32_t>(params.bufferQuanta())),
      skipped_(params.windowFrames, 0)
{
    params_.validate();
}

void
OutputScheduler::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    const auto at = std::lower_bound(flowIds_.begin(), flowIds_.end(), flow);
    if (at != flowIds_.end() && *at == flow)
        fatal("%s: flow %u registered twice", name_.c_str(), flow);
    if (flow == kInvalidFlow)
        fatal("%s: flow id %u is reserved (free-slot marker)",
              name_.c_str(), flow);
    if (flowIds_.size() >= params_.maxFlows)
        fatal("%s: more than %u contending flows", name_.c_str(),
              params_.maxFlows);
    const std::uint32_t r = std::max<std::uint32_t>(
        1, reservation_flits / params_.quantumFlits);
    if (totalReserved_ + r > params_.frameSlots())
        fatal("%s: reservations exceed the frame (sum R > F): "
              "%u + %u > %u slots", name_.c_str(), totalReserved_, r,
              params_.frameSlots());
    totalReserved_ += r;

    FlowState st;
    st.r = r;
    st.c = r;
    st.injFrame = headFrame_;
    flowStates_.insert(flowStates_.begin() + (at - flowIds_.begin()), st);
    flowIds_.insert(at, flow);
    NOC_OBSERVE(observer_, SchedFlowRegistered{this, flow, r});
}

std::uint64_t
OutputScheduler::toLocal(Slot abs) const
{
    if (abs < originSlot_)
        panic("%s: absolute slot %llu precedes local origin %llu",
              name_.c_str(), static_cast<unsigned long long>(abs),
              static_cast<unsigned long long>(originSlot_));
    return abs - originSlot_;
}

std::uint64_t
OutputScheduler::windowStartSlot() const
{
    return headFrame_ * params_.frameSlots();
}

std::uint64_t
OutputScheduler::windowEndSlotEx() const
{
    return (headFrame_ + params_.windowFrames) * params_.frameSlots();
}

std::size_t
OutputScheduler::flowIndex(FlowId flow) const
{
    const auto at = std::lower_bound(flowIds_.begin(), flowIds_.end(), flow);
    if (at == flowIds_.end() || *at != flow)
        return flowIds_.size();
    return static_cast<std::size_t>(at - flowIds_.begin());
}

const OutputScheduler::FlowState &
OutputScheduler::flowState(FlowId flow) const
{
    const std::size_t i = flowIndex(flow);
    if (i == flowIds_.size())
        panic("%s: unregistered flow %u", name_.c_str(), flow);
    return flowStates_[i];
}

std::size_t
OutputScheduler::bookedIndex(Slot abs_slot) const
{
    if (abs_slot < originSlot_)
        return bookings_.size(); // predates a local reset; long gone
    const std::uint64_t s = abs_slot - originSlot_;
    // Outside the window: dropped as stale by frame recycling, or
    // never booked.
    if (s < windowStartSlot() || s >= windowEndSlotEx())
        return bookings_.size();
    const std::size_t i = ringIndex(s);
    return bookings_[i].flow == kInvalidFlow ? bookings_.size() : i;
}

void
OutputScheduler::advanceTo(Cycle now)
{
    lastAdvance_ = now;
    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    const std::uint64_t target_frame = l_now / params_.frameSlots();
    while (headFrame_ < target_frame)
        recycleHeadFrame();
}

void
OutputScheduler::recycleHeadFrame()
{
    const std::uint64_t k = headFrame_;
    const std::uint32_t fs = params_.frameSlots();
    // Frame k's span of the ring is recycled as frame k + WF.
    const std::size_t first = ringIndex(k * fs);
    RingBooking *const bookings = bookings_.data() + first;
    std::int32_t *const credit = credit_.data() + first;

    // Bookings left in the expiring frame are stale (their data was
    // forwarded as emergent long ago or lost); drop them.
    for (std::uint32_t i = 0; liveBookings_ != 0 && i < fs; ++i) {
        if (bookings[i].flow != kInvalidFlow) {
            bookings[i] = RingBooking{};
            --liveBookings_;
        }
    }

    // Freeze the cumulative credit at the end of the departing head
    // frame; it becomes the "slot prior to the window" value used by
    // condition (1) when IF == HF.
    creditBeforeWindow_ = credit[fs - 1];

    // Seed each new slot's cumulative credit from the last slot of the
    // previously newest frame (the ring slot before this span), then
    // roll in credit returns that had been recorded for beyond-window
    // slots. They are all >= the new frame's start, so the ones inside
    // it are the vector's first entries.
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::int32_t running = credit_[(first == 0 ? credit_.size() : first) - 1];
    const std::uint64_t new_start = (k + params_.windowFrames) * fs;
    std::uint32_t i = 0;
    auto fr = futureReturns_.begin();
    for (; fr != futureReturns_.end() && fr->slot < new_start + fs; ++fr) {
        const auto at = static_cast<std::uint32_t>(fr->slot - new_start);
        std::fill(credit + i, credit + at, running);
        running = std::min(running + static_cast<std::int32_t>(fr->count),
                           bn);
        i = at;
    }
    futureReturns_.erase(futureReturns_.begin(), fr);
    std::fill(credit + i, credit + fs, running);
    skipped_[k % params_.windowFrames] = 0;

    // Algorithm 3: flows stuck at the old head frame move on and
    // accumulate reservation (capped at R).
    for (FlowState &st : flowStates_) {
        if (st.injFrame == k) {
            st.injFrame = k + 1;
            st.c = std::min(st.r, st.c + st.r);
        }
    }
    ++headFrame_;
    dirty_ = true;
}

bool
OutputScheduler::conditionOneHolds(const FlowState &st) const
{
    if (!params_.anomalyGuard)
        return true;
    // Head-frame injection is always permitted (Section 4.1: injection
    // to the head frame is allowed because the head frame is recycled
    // every F cycles). The output scheduling anomaly arises only from
    // out-of-order bookings into *future* frames, which is where
    // condition (1) applies.
    if (st.injFrame == headFrame_)
        return true;
    const std::uint32_t fs = params_.frameSlots();
    const std::int32_t prior = credit_[ringIndex(st.injFrame * fs - 1)];
    const std::int32_t lhs = static_cast<std::int32_t>(fs) -
        static_cast<std::int32_t>(
            skipped_[st.injFrame % params_.windowFrames]);
    return lhs <= prior;
}

bool
OutputScheduler::tryScheduleInFrame(const FlowState &st,
                                    std::uint64_t l_now,
                                    std::uint64_t earliest_local,
                                    std::uint64_t &found_local) const
{
    const std::uint32_t fs = params_.frameSlots();
    std::uint64_t start = st.injFrame == headFrame_
        ? l_now + 1 : st.injFrame * fs;
    start = std::max(start, earliest_local);
    const std::uint64_t end_ex = (st.injFrame + 1) * fs;
    if (start >= end_ex)
        return false;
    // [start, end_ex) lies in one frame, which never wraps the ring.
    const std::size_t first = ringIndex(start);
    const std::size_t last = first + (end_ex - start);
    for (std::size_t i = first; i < last; ++i) {
        if (bookings_[i].flow == kInvalidFlow && credit_[i] > 0) {
            found_local = start + (i - first);
            return true;
        }
    }
    return false;
}

bool
OutputScheduler::trySchedule(FlowId flow, Cycle now,
                             std::uint64_t quantum_no, Slot earliest_abs,
                             Slot &granted_abs)
{
    advanceTo(now);
    const std::size_t fi = flowIndex(flow);
    if (fi == flowIds_.size())
        panic("%s: scheduling request from unregistered flow %u",
              name_.c_str(), flow);
    FlowState &st = flowStates_[fi];
    if (st.injFrame < headFrame_)
        panic("%s: flow %u injection frame fell behind the head frame",
              name_.c_str(), flow);

    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    const std::uint64_t earliest_local =
        earliest_abs > originSlot_ ? earliest_abs - originSlot_ : 0;

    // Algorithm 1.
    for (;;) {
        if (st.c > 0 && conditionOneHolds(st)) {
            std::uint64_t found;
            if (tryScheduleInFrame(st, l_now, earliest_local, found)) {
                --st.c;
                book(found, flow, quantum_no);
                granted_abs = toAbs(found);
                ++grants_;
                dirty_ = true;
                NOC_OBSERVE(observer_,
                            SchedGrant{this, flow, quantum_no,
                                       granted_abs, st.injFrame, now});
                DPRINTF(Sched, now, "%s: flow %u quantum %llu -> "
                        "slot %llu (frame %llu)", name_.c_str(), flow,
                        static_cast<unsigned long long>(quantum_no),
                        static_cast<unsigned long long>(granted_abs),
                        static_cast<unsigned long long>(st.injFrame));
                return true;
            }
        }
        if (st.injFrame + 1 <= headFrame_ + params_.windowFrames - 1) {
            // Advance the injection frame; the unused reservation is
            // voluntarily yielded (skipped).
            skipped_[st.injFrame % params_.windowFrames] += st.c;
            if (st.c > 0)
                NOC_OBSERVE(observer_,
                            SchedSkipped{this, flow, st.c, st.injFrame, now});
            st.c = std::min(st.r, st.c + st.r);
            ++st.injFrame;
        } else {
            ++throttles_;
            DPRINTF(Sched, now, "%s: flow %u throttled (C=%u IF=%llu "
                    "HF=%llu)", name_.c_str(), flow, st.c,
                    static_cast<unsigned long long>(st.injFrame),
                    static_cast<unsigned long long>(headFrame_));
            return false;
        }
    }
}

void
OutputScheduler::book(std::uint64_t local_slot, FlowId flow,
                      std::uint64_t quantum_no)
{
    if (quantum_no > UINT32_MAX)
        panic("%s: quantum number %llu of flow %u exceeds 32 bits",
              name_.c_str(), static_cast<unsigned long long>(quantum_no),
              flow);
    bookings_[ringIndex(local_slot)] =
        RingBooking{flow, static_cast<std::uint32_t>(quantum_no)};
    ++liveBookings_;
    std::int32_t low = 0;
    forWindowSuffix(local_slot, [&](std::size_t first, std::size_t last) {
        std::int32_t *const credit = credit_.data();
        for (std::size_t i = first; i < last; ++i) {
            --credit[i];
            low = std::min(low, credit[i]);
        }
    });
    if (low < 0) {
        ++violations_; // buffer overbooked: the anomaly of Section 4.2
        NOC_OBSERVE(observer_, SchedCreditNegative{this, lastAdvance_});
    }
    ++outstanding_;
}

void
OutputScheduler::onCreditReturn(Slot abs_slot)
{
    NOC_OBSERVE(observer_, SchedCreditReturn{this, abs_slot});
    // With nothing outstanding this is a return for a booking that
    // predates a local status reset. Credits are capped at the buffer
    // size, so applying it below is harmless.
    if (outstanding_ != 0)
        --outstanding_;
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    const std::uint64_t s =
        abs_slot > originSlot_ ? abs_slot - originSlot_ : 0;
    const std::uint64_t w_start = windowStartSlot();
    const std::uint64_t w_end = windowEndSlotEx();
    if (s >= w_end) {
        const auto fr = std::ranges::lower_bound(futureReturns_, s, {},
                                                 &FutureReturn::slot);
        if (fr != futureReturns_.end() && fr->slot == s)
            ++fr->count;
        else
            futureReturns_.insert(fr, FutureReturn{s, 1});
        return;
    }
    if (s < w_start)
        creditBeforeWindow_ = std::min(creditBeforeWindow_ + 1, bn);
    forWindowSuffix(std::max(s, w_start),
                    [&](std::size_t first, std::size_t last) {
                        std::int32_t *const credit = credit_.data();
                        for (std::size_t i = first; i < last; ++i)
                            credit[i] = std::min(credit[i] + 1, bn);
                    });
}

void
OutputScheduler::clearBooking(Slot abs_slot)
{
    const std::size_t i = bookedIndex(abs_slot);
    if (i == bookings_.size())
        return;
    bookings_[i] = RingBooking{};
    --liveBookings_;
    NOC_OBSERVE(observer_, SchedBookingCleared{this, abs_slot});
}

std::optional<SlotBooking>
OutputScheduler::bookingAt(Slot abs_slot) const
{
    const std::size_t i = bookedIndex(abs_slot);
    if (i == bookings_.size())
        return std::nullopt;
    return SlotBooking{bookings_[i].flow, bookings_[i].quantumNo};
}

std::optional<Slot>
OutputScheduler::earliestBookedSlot() const
{
    std::optional<Slot> earliest;
    forEachBooking([&earliest](Slot abs, const SlotBooking &) {
        if (!earliest)
            earliest = abs;
    });
    return earliest;
}

bool
OutputScheduler::canLocalReset() const
{
    // The paper's safety conditions are: all busy flags false (early
    // transfers clear their entries) and the downstream non-speculative
    // buffer empty (checked by the caller). Virtual-credit returns
    // still in flight are tolerated because credits are capped at the
    // buffer size.
    return liveBookings_ == 0;
}

void
OutputScheduler::localReset(Cycle now)
{
    if (!canLocalReset())
        panic("%s: local reset with outstanding state", name_.c_str());
    DPRINTF(Reset, now, "%s: local status reset (HF was %llu)",
            name_.c_str(),
            static_cast<unsigned long long>(headFrame_));
    originSlot_ = params_.slotOf(now);
    headFrame_ = 0;
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::fill(credit_.begin(), credit_.end(), bn);
    creditBeforeWindow_ = bn;
    std::fill(skipped_.begin(), skipped_.end(), 0);
    futureReturns_.clear();
    outstanding_ = 0; // returns for pre-reset bookings become stale
    for (FlowState &st : flowStates_) {
        st.injFrame = 0;
        st.c = st.r;
    }
    dirty_ = false;
    ++resets_;
    NOC_OBSERVE(observer_, SchedLocalReset{this, now});
}

void
OutputScheduler::debugCorruptBookingFlow(Slot abs_slot)
{
    const std::size_t i = bookedIndex(abs_slot);
    if (i == bookings_.size())
        return;
    FlowId &flow = bookings_[i].flow;
    flow = flow == 0 ? 1 : ~flow;
}

void
OutputScheduler::debugAdjustCredit(Slot abs_slot, std::int32_t delta)
{
    credit_[ringIndex(toLocal(abs_slot))] += delta;
}

std::int32_t
OutputScheduler::virtualCreditAt(Slot abs_slot) const
{
    return credit_[ringIndex(toLocal(abs_slot))];
}

} // namespace noc
