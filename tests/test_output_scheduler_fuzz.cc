/**
 * @file
 * Differential fuzz of the LSF output scheduler against the test-only
 * reference (tests/reference/ref_output_scheduler.*), the straight
 * O(W) implementation with a modulo per slot and node-based maps.
 *
 * Each case drives both through the same random sequence of
 * registerFlow, trySchedule, onCreditReturn (before, inside and beyond
 * the window), clearBooking, advanceTo (including multi-frame jumps),
 * localReset and debugAdjustCredit, and after every operation requires
 * the same return values and the same observable state: the virtual
 * credit of every window slot, the booking list and the bookings at
 * its slots and edges, the earliest booked slot, skipped() per window
 * frame, per-flow C and IF, and every counter. Cases cover every
 * combination of F, WF, quantum size, buffer size (F or 2F), the
 * anomaly guard and local status resets; seeds come from mixSeed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/output_scheduler.hh"
#include "reference/ref_output_scheduler.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

struct FuzzCase
{
    std::uint32_t frameFlits;
    std::uint32_t windowFrames;
    std::uint32_t quantumFlits;
    std::uint32_t bufferFrames; ///< central buffer = bufferFrames x F
    bool anomalyGuard;
    bool localStatusReset;
    std::uint64_t seed;

    LoftParams
    params() const
    {
        LoftParams p;
        p.frameSizeFlits = frameFlits;
        p.windowFrames = windowFrames;
        p.quantumFlits = quantumFlits;
        p.centralBufferFlits = bufferFrames * frameFlits;
        p.specBufferFlits = 0;
        p.maxFlows = 8;
        p.anomalyGuard = anomalyGuard;
        p.localStatusReset = localStatusReset;
        return p;
    }

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "F=" << frameFlits << " WF=" << windowFrames
           << " q=" << quantumFlits << " buffer=" << bufferFrames
           << "F guard=" << anomalyGuard << " reset=" << localStatusReset
           << " seed=" << seed;
        return os.str();
    }
};

constexpr Slot kNoSlot = ~Slot{0};

using BookingList =
    std::vector<std::tuple<Slot, FlowId, std::uint64_t>>;

template <typename Sched>
BookingList
bookingsOf(const Sched &s)
{
    BookingList out;
    s.forEachBooking([&out](Slot abs, const SlotBooking &b) {
        out.emplace_back(abs, b.flow, b.quantumNo);
    });
    return out;
}

/** First difference between the two schedulers, or "" if none. */
std::string
firstDifference(const OutputScheduler &dut, const RefOutputScheduler &ref,
                const std::vector<FlowId> &flows)
{
    std::ostringstream os;
    const auto check = [&os](const char *what, auto a, auto b,
                             std::uint64_t at = 0) {
        if (a == b || os.tellp() != 0)
            return;
        os << what << " (at " << at << "): " << a << " vs reference "
           << b;
    };
    check("headFrame", dut.headFrame(), ref.headFrame());
    check("windowStart", dut.windowStartAbsSlot(), ref.windowStartAbsSlot());
    check("windowEnd", dut.windowEndAbsSlot(), ref.windowEndAbsSlot());
    check("grants", dut.grants(), ref.grants());
    check("throttles", dut.throttles(), ref.throttles());
    check("resets", dut.resets(), ref.resets());
    check("violations", dut.anomalyViolations(), ref.anomalyViolations());
    check("outstanding", dut.outstandingCredits(), ref.outstandingCredits());
    check("reserved", dut.reservedSlotsTotal(), ref.reservedSlotsTotal());
    check("dirty", dut.dirty(), ref.dirty());
    check("quiescent", dut.quiescent(), ref.quiescent());
    check("canLocalReset", dut.canLocalReset(), ref.canLocalReset());
    if (os.tellp() != 0)
        return os.str();

    const Slot w0 = ref.windowStartAbsSlot();
    const Slot w1 = ref.windowEndAbsSlot();
    for (Slot s = w0; s < w1; ++s) {
        if (dut.virtualCreditAt(s) != ref.virtualCreditAt(s)) {
            check("virtualCreditAt", dut.virtualCreditAt(s),
                  ref.virtualCreditAt(s), s);
            return os.str();
        }
    }
    const std::uint64_t hf = ref.headFrame();
    for (std::uint64_t f = hf; f < hf + ref.params().windowFrames; ++f)
        check("skippedAt", dut.skippedAt(f), ref.skippedAt(f), f);
    for (FlowId f : flows) {
        check("hasFlow", dut.hasFlow(f), ref.hasFlow(f), f);
        check("flowRemaining", dut.flowRemaining(f), ref.flowRemaining(f),
              f);
        check("flowInjectFrame", dut.flowInjectFrame(f),
              ref.flowInjectFrame(f), f);
    }
    check("hasFlow(unregistered)", dut.hasFlow(kInvalidFlow - 1),
          ref.hasFlow(kInvalidFlow - 1));
    if (os.tellp() != 0)
        return os.str();

    const BookingList bd = bookingsOf(dut);
    const BookingList br = bookingsOf(ref);
    if (bd != br) {
        os << "forEachBooking lists differ: " << bd.size() << " vs "
           << "reference " << br.size();
        for (std::size_t i = 0; i < std::min(bd.size(), br.size()); ++i) {
            if (bd[i] != br[i]) {
                os << "; first difference at entry " << i << ": slot "
                   << std::get<0>(bd[i]) << " vs " << std::get<0>(br[i]);
                break;
            }
        }
        return os.str();
    }
    const auto ed = dut.earliestBookedSlot();
    const auto er = ref.earliestBookedSlot();
    check("earliestBookedSlot", ed.value_or(kNoSlot),
          er.value_or(kNoSlot));

    // bookingAt at every booked slot and at the window's edges.
    std::vector<Slot> probes = {w0, w1 - 1, w1, w1 + 1};
    if (w0 > 0)
        probes.push_back(w0 - 1);
    for (const auto &b : br)
        probes.push_back(std::get<0>(b));
    for (Slot s : probes) {
        const auto a = dut.bookingAt(s);
        const auto b = ref.bookingAt(s);
        check("bookingAt.has_value", a.has_value(), b.has_value(), s);
        if (a && b) {
            check("bookingAt.flow", a->flow, b->flow, s);
            check("bookingAt.quantumNo", a->quantumNo, b->quantumNo, s);
        }
    }
    return os.str();
}

/** Drives the scheduler and its reference through one random case. */
class FuzzRun
{
  public:
    explicit FuzzRun(const FuzzCase &fc)
        : params_(fc.params()), dut_(params_, "dut"), ref_(params_, "ref"),
          rng_(fc.seed), frameCycles_(params_.frameSizeFlits),
          windowCycles_(Cycle{params_.windowFrames} * params_.frameSizeFlits)
    {
    }

    /** Run @p ops operations; returns "" or the first divergence. */
    std::string
    run(int ops)
    {
        registerFlow();
        for (int i = 0; i < ops; ++i) {
            const char *op = step();
            const std::string diff = !resultDiff_.empty()
                ? resultDiff_
                : firstDifference(dut_, ref_, flows_);
            if (!diff.empty()) {
                std::ostringstream os;
                os << "op " << i << " (" << op << ", cycle " << now_
                   << "): " << diff;
                return os.str();
            }
        }
        return "";
    }

  private:
    const char *
    step()
    {
        const std::uint64_t pick = rng_.randRange(100);
        if (pick < 30)
            return schedule();
        if (pick < 48)
            return creditReturn();
        if (pick < 60)
            return clear();
        if (pick < 80) {
            now_ += 1 + rng_.randRange(4);
            dut_.advanceTo(now_);
            ref_.advanceTo(now_);
            return "advanceTo";
        }
        if (pick < 84) {
            // Multi-frame jump: every window frame recycles, some twice.
            now_ += frameCycles_ + rng_.randRange(2 * windowCycles_);
            dut_.advanceTo(now_);
            ref_.advanceTo(now_);
            return "advanceTo(jump)";
        }
        if (pick < 88)
            return registerFlow();
        if (pick < 91)
            return drain();
        if (pick < 96)
            return reset();
        const Slot s = ref_.windowStartAbsSlot() +
            rng_.randRange(params_.windowSlots());
        const auto delta = static_cast<std::int32_t>(rng_.randRange(5)) - 2;
        dut_.debugAdjustCredit(s, delta);
        ref_.debugAdjustCredit(s, delta);
        return "debugAdjustCredit";
    }

    const char *
    registerFlow()
    {
        const std::uint32_t free_slots =
            params_.frameSlots() - ref_.reservedSlotsTotal();
        if (flows_.size() >= params_.maxFlows || free_slots == 0)
            return "registerFlow(full)";
        FlowId id;
        do {
            id = static_cast<FlowId>(rng_.randRange(1000));
        } while (std::find(flows_.begin(), flows_.end(), id) !=
                 flows_.end());
        // r = flits / quantum quanta; stay within the free slots.
        const auto r = static_cast<std::uint32_t>(
            1 + rng_.randRange(std::max(1u, free_slots / 2)));
        const auto flits = static_cast<std::uint32_t>(
            r * params_.quantumFlits + rng_.randRange(params_.quantumFlits));
        dut_.registerFlow(id, flits);
        ref_.registerFlow(id, flits);
        flows_.push_back(id);
        return "registerFlow";
    }

    const char *
    schedule()
    {
        const FlowId f = flows_[rng_.randRange(flows_.size())];
        const auto span = params_.windowSlots() + params_.frameSlots();
        const std::int64_t off =
            static_cast<std::int64_t>(rng_.randRange(span + 4)) - 3;
        const auto base = static_cast<std::int64_t>(params_.slotOf(now_));
        const auto earliest =
            static_cast<Slot>(std::max<std::int64_t>(0, base + off));
        Slot gd = 0, gr = 0;
        const bool od = dut_.trySchedule(f, now_, quantum_, earliest, gd);
        const bool orf = ref_.trySchedule(f, now_, quantum_, earliest, gr);
        ++quantum_;
        if (od != orf || (orf && gd != gr)) {
            std::ostringstream os;
            os << "trySchedule(flow " << f << ", earliest " << earliest
               << ") returned " << od << " slot " << gd << " vs reference "
               << orf << " slot " << gr;
            resultDiff_ = os.str();
        }
        if (orf)
            granted_.push_back(gr);
        return "trySchedule";
    }

    const char *
    creditReturn()
    {
        const Slot w0 = ref_.windowStartAbsSlot();
        const Slot w1 = ref_.windowEndAbsSlot();
        const std::uint32_t wt = params_.windowSlots();
        Slot s = 0;
        const char *what = "";
        switch (rng_.randRange(4)) {
          case 0:
            if (!granted_.empty()) {
                const std::size_t i = rng_.randRange(granted_.size());
                s = granted_[i] + rng_.randRange(4);
                granted_[i] = granted_.back();
                granted_.pop_back();
                what = "onCreditReturn(granted)";
                break;
            }
            [[fallthrough]];
          case 1:
            s = w0 - std::min<Slot>(w0, 1 + rng_.randRange(wt));
            what = "onCreditReturn(before window)";
            break;
          case 2:
            s = w0 + rng_.randRange(wt);
            what = "onCreditReturn(in window)";
            break;
          default:
            s = w1 + rng_.randRange(2 * wt);
            what = "onCreditReturn(beyond window)";
            break;
        }
        dut_.onCreditReturn(s);
        ref_.onCreditReturn(s);
        return what;
    }

    const char *
    clear()
    {
        const BookingList live = bookingsOf(ref_);
        Slot s;
        if (!live.empty() && rng_.chance(0.8)) {
            s = std::get<0>(live[rng_.randRange(live.size())]);
        } else {
            const Slot w0 = ref_.windowStartAbsSlot();
            s = w0 + rng_.randRange(2 * params_.windowSlots());
            s -= std::min<Slot>(s, params_.frameSlots());
        }
        dut_.clearBooking(s);
        ref_.clearBooking(s);
        return "clearBooking";
    }

    /** Clear every booking and return every granted credit. */
    const char *
    drain()
    {
        for (const auto &b : bookingsOf(ref_)) {
            dut_.clearBooking(std::get<0>(b));
            ref_.clearBooking(std::get<0>(b));
        }
        for (Slot s : granted_) {
            dut_.onCreditReturn(s);
            ref_.onCreditReturn(s);
        }
        granted_.clear();
        return "drain";
    }

    const char *
    reset()
    {
        if (!ref_.canLocalReset())
            return "localReset(not allowed)";
        dut_.localReset(now_);
        ref_.localReset(now_);
        return "localReset";
    }

    LoftParams params_;
    OutputScheduler dut_;
    RefOutputScheduler ref_;
    Rng rng_;
    const Cycle frameCycles_;
    const Cycle windowCycles_;
    Cycle now_ = 0;
    std::uint64_t quantum_ = 0;
    std::vector<FlowId> flows_;
    std::vector<Slot> granted_;
    std::string resultDiff_;
};

class OutputSchedulerFuzz : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(OutputSchedulerFuzz, MatchesReference)
{
    const std::uint32_t frame = GetParam();
    // Larger frames make every operation O(F): fewer ops keep the
    // suite fast while still spanning several windows via jumps.
    const int ops = frame >= 1024 ? 400 : frame >= 64 ? 1500 : 3000;
    std::uint64_t index = 0;
    for (std::uint32_t wf : {2u, 3u, 4u}) {
        for (std::uint32_t q : {1u, 2u}) {
            for (std::uint32_t buffer : {1u, 2u}) {
                for (bool guard : {true, false}) {
                    for (bool reset : {true, false}) {
                        const FuzzCase fc{frame, wf,    q,   buffer, guard,
                                          reset, mixSeed(0xf0221ull + frame,
                                                         index++)};
                        FuzzRun d(fc);
                        const std::string diff = d.run(ops);
                        ASSERT_EQ(diff, "") << fc.describe();
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Frames, OutputSchedulerFuzz,
                         ::testing::Values(8u, 16u, 64u, 1024u),
                         [](const auto &info) {
                             return "F" + std::to_string(info.param);
                         });

// The flat ring's own limits, which the reference does not have.

TEST(OutputSchedulerRing, QuantumNumbersAreLimitedTo32Bits)
{
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = 4;
    p.centralBufferFlits = 4;
    OutputScheduler s(p, "t");
    s.registerFlow(0, 2);
    Slot x = 0;
    ASSERT_TRUE(s.trySchedule(0, 0, UINT32_MAX, 1, x));
    EXPECT_EQ(s.bookingAt(x)->quantumNo, UINT32_MAX);
    EXPECT_DEATH(s.trySchedule(0, 0, std::uint64_t{1} << 32, 1, x),
                 "exceeds 32 bits");
}

TEST(OutputSchedulerRing, FreeSlotMarkerIsNotAFlowId)
{
    LoftParams p;
    p.quantumFlits = 1;
    p.frameSizeFlits = 4;
    p.centralBufferFlits = 4;
    OutputScheduler s(p, "t");
    EXPECT_EXIT(s.registerFlow(kInvalidFlow, 1),
                ::testing::ExitedWithCode(1), "reserved");
    // Corrupting flow 0 must leave the slot booked: ~0 marks free.
    s.registerFlow(0, 1);
    Slot x = 0;
    ASSERT_TRUE(s.trySchedule(0, 0, 0, 1, x));
    s.debugCorruptBookingFlow(x);
    ASSERT_TRUE(s.bookingAt(x).has_value());
    EXPECT_NE(s.bookingAt(x)->flow, 0u);
    EXPECT_NE(s.bookingAt(x)->flow, kInvalidFlow);
    EXPECT_FALSE(s.canLocalReset());
}

} // namespace
} // namespace noc
