#include "reference/ref_output_scheduler.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

RefOutputScheduler::RefOutputScheduler(const LoftParams &params,
                                 std::string name, Pool *pool)
    : params_(params), name_(std::move(name)),
      busy_(params.windowSlots(), 0),
      credit_(params.windowSlots(),
              static_cast<std::int32_t>(params.bufferQuanta())),
      creditBeforeWindow_(static_cast<std::int32_t>(params.bufferQuanta())),
      skipped_(params.windowFrames, 0),
      bookings_(PoolAlloc<std::pair<const std::uint64_t, SlotBooking>>(
          pool)),
      futureReturns_(
          PoolAlloc<std::pair<const std::uint64_t, std::uint32_t>>(pool))
{
    params_.validate();
}

void
RefOutputScheduler::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    if (flows_.count(flow))
        fatal("%s: flow %u registered twice", name_.c_str(), flow);
    if (flows_.size() >= params_.maxFlows)
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
    flows_[flow] = st;
}

std::uint64_t
RefOutputScheduler::toLocal(Slot abs) const
{
    if (abs < originSlot_)
        panic("%s: absolute slot %llu precedes local origin %llu",
              name_.c_str(), static_cast<unsigned long long>(abs),
              static_cast<unsigned long long>(originSlot_));
    return abs - originSlot_;
}

std::uint64_t
RefOutputScheduler::windowStartSlot() const
{
    return headFrame_ * params_.frameSlots();
}

std::uint64_t
RefOutputScheduler::windowEndSlotEx() const
{
    return (headFrame_ + params_.windowFrames) * params_.frameSlots();
}

std::int32_t &
RefOutputScheduler::creditRef(std::uint64_t local_slot)
{
    return credit_[local_slot % params_.windowSlots()];
}

std::int32_t
RefOutputScheduler::creditVal(std::uint64_t local_slot) const
{
    return credit_[local_slot % params_.windowSlots()];
}

void
RefOutputScheduler::advanceTo(Cycle now)
{
    lastAdvance_ = now;
    const std::uint64_t l_now = toLocal(params_.slotOf(now));
    const std::uint64_t target_frame = l_now / params_.frameSlots();
    while (headFrame_ < target_frame)
        recycleHeadFrame();
}

void
RefOutputScheduler::recycleHeadFrame()
{
    const std::uint64_t k = headFrame_;
    const std::uint32_t fs = params_.frameSlots();
    const std::uint32_t wf = params_.windowFrames;

    // Freeze the cumulative credit at the end of the departing head
    // frame; it becomes the "slot prior to the window" value used by
    // condition (1) when IF == HF.
    creditBeforeWindow_ = creditVal((k + 1) * fs - 1);

    // Frame k's storage is recycled as frame k + WF. Seed each new
    // slot's cumulative credit from the last slot of the previously
    // newest frame, then roll in credit returns that had been recorded
    // for beyond-window slots.
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::int32_t running = creditVal((k + wf) * fs - 1);
    for (std::uint64_t j = (k + wf) * fs; j < (k + wf + 1) * fs; ++j) {
        auto fr = futureReturns_.find(j);
        if (fr != futureReturns_.end()) {
            running += static_cast<std::int32_t>(fr->second);
            running = std::min(running, bn);
            futureReturns_.erase(fr);
        }
        creditRef(j) = running;
        busy_[j % params_.windowSlots()] = 0;
    }
    // Bookings left in the expiring frame are stale (their data was
    // forwarded as emergent long ago or lost); drop them.
    const std::uint64_t old_start = k * fs;
    for (auto it = bookings_.begin();
         it != bookings_.end() && it->first < old_start + fs;) {
        it = bookings_.erase(it);
    }
    skipped_[(k + wf) % wf] = 0;

    // Algorithm 3: flows stuck at the old head frame move on and
    // accumulate reservation (capped at R).
    for (auto &[flow, st] : flows_) {
        (void)flow;
        if (st.injFrame == k) {
            st.injFrame = k + 1;
            st.c = std::min(st.r, st.c + st.r);
        }
    }
    ++headFrame_;
    dirty_ = true;
}

bool
RefOutputScheduler::conditionOneHolds(const FlowState &st) const
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
    const std::int32_t prior = creditVal(st.injFrame * fs - 1);
    const std::int32_t lhs = static_cast<std::int32_t>(fs) -
        static_cast<std::int32_t>(
            skipped_[st.injFrame % params_.windowFrames]);
    return lhs <= prior;
}

bool
RefOutputScheduler::tryScheduleInFrame(const FlowState &st,
                                    std::uint64_t l_now,
                                    std::uint64_t earliest_local,
                                    std::uint64_t &found_local) const
{
    const std::uint32_t fs = params_.frameSlots();
    std::uint64_t start = st.injFrame == headFrame_
        ? l_now + 1 : st.injFrame * fs;
    start = std::max(start, earliest_local);
    const std::uint64_t end_ex = (st.injFrame + 1) * fs;
    for (std::uint64_t s = start; s < end_ex; ++s) {
        if (!busy_[s % params_.windowSlots()] && creditVal(s) > 0) {
            found_local = s;
            return true;
        }
    }
    return false;
}

bool
RefOutputScheduler::trySchedule(FlowId flow, Cycle now,
                             std::uint64_t quantum_no, Slot earliest_abs,
                             Slot &granted_abs)
{
    advanceTo(now);
    auto it = flows_.find(flow);
    if (it == flows_.end())
        panic("%s: scheduling request from unregistered flow %u",
              name_.c_str(), flow);
    FlowState &st = it->second;
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
                lastBookedAbs_ = std::max(lastBookedAbs_, granted_abs);
                ++grants_;
                dirty_ = true;
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
RefOutputScheduler::book(std::uint64_t local_slot, FlowId flow,
                      std::uint64_t quantum_no)
{
    busy_[local_slot % params_.windowSlots()] = 1;
    bookings_[local_slot] = SlotBooking{flow, quantum_no};
    bool negative = false;
    for (std::uint64_t j = local_slot; j < windowEndSlotEx(); ++j) {
        std::int32_t &c = creditRef(j);
        --c;
        if (c < 0)
            negative = true;
    }
    if (negative) {
        ++violations_; // buffer overbooked: the anomaly of Section 4.2
    }
    ++outstanding_;
}

void
RefOutputScheduler::onCreditReturn(Slot abs_slot)
{
    if (outstanding_ == 0) {
        // A return for a booking that predates a local status reset.
        // Credits are capped at the buffer size, so applying it below
        // is harmless.
        ++staleReturns_;
    } else {
        --outstanding_;
    }
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    const std::uint64_t s =
        abs_slot > originSlot_ ? abs_slot - originSlot_ : 0;
    const std::uint64_t w_start = windowStartSlot();
    const std::uint64_t w_end = windowEndSlotEx();
    if (s >= w_end) {
        ++futureReturns_[s];
        return;
    }
    if (s < w_start)
        creditBeforeWindow_ = std::min(creditBeforeWindow_ + 1, bn);
    for (std::uint64_t j = std::max(s, w_start); j < w_end; ++j) {
        std::int32_t &c = creditRef(j);
        c = std::min(c + 1, bn);
    }
}

void
RefOutputScheduler::clearBooking(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return; // booking predates a local reset; long gone
    const std::uint64_t s = abs_slot - originSlot_;
    auto it = bookings_.find(s);
    if (it == bookings_.end())
        return; // dropped as stale by frame recycling
    busy_[s % params_.windowSlots()] = 0;
    bookings_.erase(it);
}

std::optional<SlotBooking>
RefOutputScheduler::bookingAt(Slot abs_slot) const
{
    if (abs_slot < originSlot_)
        return std::nullopt;
    auto it = bookings_.find(abs_slot - originSlot_);
    if (it == bookings_.end())
        return std::nullopt;
    return it->second;
}

std::optional<Slot>
RefOutputScheduler::earliestBookedSlot() const
{
    if (bookings_.empty())
        return std::nullopt;
    return toAbs(bookings_.begin()->first);
}

bool
RefOutputScheduler::canLocalReset() const
{
    // The paper's safety conditions are: all busy flags false (early
    // transfers clear their entries) and the downstream non-speculative
    // buffer empty (checked by the caller). Virtual-credit returns
    // still in flight are tolerated because credits are capped at the
    // buffer size.
    return bookings_.empty();
}

void
RefOutputScheduler::localReset(Cycle now)
{
    if (!canLocalReset())
        panic("%s: local reset with outstanding state", name_.c_str());
    DPRINTF(Reset, now, "%s: local status reset (HF was %llu)",
            name_.c_str(),
            static_cast<unsigned long long>(headFrame_));
    originSlot_ = params_.slotOf(now);
    headFrame_ = 0;
    std::fill(busy_.begin(), busy_.end(), 0);
    const auto bn = static_cast<std::int32_t>(params_.bufferQuanta());
    std::fill(credit_.begin(), credit_.end(), bn);
    creditBeforeWindow_ = bn;
    std::fill(skipped_.begin(), skipped_.end(), 0);
    futureReturns_.clear();
    outstanding_ = 0; // returns for pre-reset bookings become stale
    for (auto &[flow, st] : flows_) {
        (void)flow;
        st.injFrame = 0;
        st.c = st.r;
    }
    lastBookedAbs_ = 0;
    dirty_ = false;
    ++resets_;
}

void
RefOutputScheduler::debugCorruptBookingFlow(Slot abs_slot)
{
    if (abs_slot < originSlot_)
        return;
    auto it = bookings_.find(abs_slot - originSlot_);
    if (it == bookings_.end())
        return;
    it->second.flow = ~it->second.flow;
}

void
RefOutputScheduler::debugAdjustCredit(Slot abs_slot, std::int32_t delta)
{
    creditRef(toLocal(abs_slot)) += delta;
}

std::int32_t
RefOutputScheduler::virtualCreditAt(Slot abs_slot) const
{
    return creditVal(toLocal(abs_slot));
}

} // namespace noc
