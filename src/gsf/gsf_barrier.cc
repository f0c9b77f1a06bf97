#include "gsf/gsf_barrier.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"
#include "sim/phase_sanitizer.hh"

namespace noc
{

GsfBarrier::GsfBarrier(std::uint32_t window_frames, Cycle barrier_delay)
    : window_(window_frames), delay_(barrier_delay),
      inFlight_(window_frames, 0)
{
    if (window_frames < 2)
        fatal("GsfBarrier: window must have at least 2 frames");
}

void
GsfBarrier::onPacketAdmitted(std::uint64_t frame, std::uint32_t flits)
{
    const int d = par::currentDomain();
    if (d >= 0 && !deferred_.empty()) {
        LOFT_PSAN_DEFERRED_BUFFER("GsfBarrier::onPacketAdmitted");
        deferred_[static_cast<std::size_t>(d)].push_back(
            {frame, flits, true});
        return;
    }
    LOFT_PSAN_DIRECT_DELIVERY("GsfBarrier::onPacketAdmitted");
    admitNow(frame, flits);
}

void
GsfBarrier::onFlitEjected(std::uint64_t frame)
{
    const int d = par::currentDomain();
    if (d >= 0 && !deferred_.empty()) {
        LOFT_PSAN_DEFERRED_BUFFER("GsfBarrier::onFlitEjected");
        deferred_[static_cast<std::size_t>(d)].push_back(
            {frame, 0, false});
        return;
    }
    LOFT_PSAN_DIRECT_DELIVERY("GsfBarrier::onFlitEjected");
    ejectNow(frame);
}

void
GsfBarrier::admitNow(std::uint64_t frame, std::uint32_t flits)
{
    if (frame < head_ || frame > newestFrame())
        panic("GsfBarrier: admission into inactive frame %llu "
              "(head %llu)", static_cast<unsigned long long>(frame),
              static_cast<unsigned long long>(head_));
    inFlight_[frame % window_] += flits;
    totalInFlight_ += flits;
}

void
GsfBarrier::ejectNow(std::uint64_t frame)
{
    // Frames outside the window hold no flits: older ones drained
    // before the head moved past them, newer ones admit nothing yet.
    if (frame < head_ || frame > newestFrame() ||
        inFlight_[frame % window_] == 0)
        panic("GsfBarrier: ejection from empty frame %llu",
              static_cast<unsigned long long>(frame));
    --inFlight_[frame % window_];
    --totalInFlight_;
}

void
GsfBarrier::beginParallel(unsigned domains)
{
    LOFT_PSAN_BARRIER_SEAM("GsfBarrier::beginParallel");
    // Grow-only, like MetricsCollector::beginParallel: buffer capacity
    // survives across run windows so the measurement window never pays
    // for first-time growth.
    if (deferred_.size() < domains)
        deferred_.resize(domains);
    if (deferredReserve_ != 0) {
        for (std::vector<FrameEvent> &buf : deferred_)
            if (buf.capacity() < deferredReserve_)
                buf.reserve(deferredReserve_);
    }
}

void
GsfBarrier::mergeDomains()
{
    LOFT_PSAN_BARRIER_SEAM("GsfBarrier::mergeDomains");
    // Commutative counter updates: domain order is as good as the
    // serial interleaving. Ejections can only drain flits admitted in
    // earlier cycles (channel latency >= 1), so replaying a domain's
    // ejections before another domain's same-cycle admissions cannot
    // underflow a count the serial run would not have underflowed.
    for (std::vector<FrameEvent> &buf : deferred_) {
        for (const FrameEvent &e : buf) {
            if (e.admit)
                admitNow(e.frame, e.flits);
            else
                ejectNow(e.frame);
        }
        buf.clear();
    }
}

void
GsfBarrier::endParallel()
{
    LOFT_PSAN_BARRIER_SEAM("GsfBarrier::endParallel");
    for (std::vector<FrameEvent> &buf : deferred_)
        buf.clear();
}

void
GsfBarrier::tick(Cycle now)
{
    if (advanceAt_ != kNeverCycle) {
        if (now >= advanceAt_) {
            // The head's counter becomes the new newest frame's, so it
            // must still be drained (sources never admit into the head
            // frame).
            if (inFlight_[head_ % window_] != 0)
                panic("GsfBarrier: frame %llu refilled during its "
                      "barrier broadcast",
                      static_cast<unsigned long long>(head_));
            ++head_;
            ++recycles_;
            advanceAt_ = kNeverCycle;
            DPRINTF(Gsf, now, "barrier: head frame -> %llu",
                    static_cast<unsigned long long>(head_));
        }
        return;
    }
    // Head frame drained? Start the barrier broadcast.
    if (inFlight_[head_ % window_] == 0)
        advanceAt_ = now + delay_;
}

} // namespace noc
