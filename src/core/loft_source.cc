#include "core/loft_source.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace noc
{

LoftSourceUnit::LoftSourceUnit(NodeId node, const LoftParams &params)
    : node_(node), params_(params),
      sched_(params, csprintf("ni%u.sched", node)),
      dnNonspecFree_(params.centralBufferFlits),
      dnSpecFree_(params.specBufferFlits),
      laCredits_(params.laNumVCs, params.laVcDepth),
      laVcPick_(params.laNumVCs),
      queueCapacityFlits_(params.sourceQueueFlits)
{
    // Per-flow counters are created at registration (registerFlow), so
    // the map's population is fixed before traffic starts; the reserve
    // pins the bucket array so it never rehashes mid-run.
    counters_.reserve(params.maxFlows);
    outbound_.reserve(8);
}

void
LoftSourceUnit::connectData(Channel<DataWireFlit> *data_out,
                            Channel<ActualCreditMsg> *actual_credit_in,
                            Channel<VirtualCreditMsg> *virtual_credit_in)
{
    dataOut_ = data_out;
    actualCreditIn_ = actual_credit_in;
    virtualCreditIn_ = virtual_credit_in;
}

void
LoftSourceUnit::connectLookahead(Channel<LaWireFlit> *la_out,
                                 Channel<LaCredit> *la_credit_in)
{
    laOut_ = la_out;
    laCreditIn_ = la_credit_in;
}

void
LoftSourceUnit::registerFlow(FlowId flow, std::uint32_t reservation_flits)
{
    sched_.registerFlow(flow, reservation_flits);
    counters_.try_emplace(flow);
}

bool
LoftSourceUnit::canAccept(const Packet &pkt) const
{
    if (queueCapacityFlits_ == 0)
        return true;
    return queuedFlits_ + pkt.sizeFlits <= queueCapacityFlits_;
}

bool
LoftSourceUnit::enqueue(const Packet &pkt)
{
    if (!canAccept(pkt))
        return false;
    if (pkt.src != node_)
        panic("LoftSourceUnit %u: packet from node %u", node_, pkt.src);
    queue_.push_back(pkt);
    queuedFlits_ += pkt.sizeFlits;
    NOC_OBSERVE(observer_, PacketAccepted{node_, pkt, pkt.enqueuedAt});
    return true;
}

void
LoftSourceUnit::receiveCredits(Cycle now)
{
    if (actualCreditIn_) {
        while (auto c = actualCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now,
                              creditsDiscarded_))
                continue;
            if (c->spec)
                ++dnSpecFree_;
            else
                ++dnNonspecFree_;
            if (dnSpecFree_ > params_.specBufferFlits ||
                dnNonspecFree_ > params_.centralBufferFlits) {
                panic("NI %u: actual credit overflow", node_);
            }
        }
    }
    if (virtualCreditIn_) {
        while (auto c = virtualCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now,
                              creditsDiscarded_))
                continue;
            sched_.onCreditReturn(c->departSlot);
        }
    }
    if (laCreditIn_) {
        while (auto c = laCreditIn_->tryReceive(now)) {
            if (!acceptCredit(*c, observer_, node_, now,
                              creditsDiscarded_))
                continue;
            ++laCredits_.at(c->vc);
            if (laCredits_[c->vc] > params_.laVcDepth)
                panic("NI %u: look-ahead credit overflow", node_);
        }
    }
}

// loft-tidy: steady-state-hot
void
LoftSourceUnit::buildNextQuantum(Cycle now)
{
    (void)now;
    if (pending_ || queue_.empty())
        return;
    const Packet &pkt = queue_.front();
    FlowCounters &fc = counters_[pkt.flow];

    pending_ = Quantum{};
    Quantum &q = *pending_;
    const std::uint32_t remaining = pkt.sizeFlits - headPacketOffset_;
    const std::uint32_t n =
        std::min(remaining, params_.quantumFlits);

    q.la.flow = pkt.flow;
    q.la.src = pkt.src;
    q.la.dst = pkt.dst;
    q.la.quantumNo = fc.nextQuantumNo++;
    q.la.quantumFlits = n;
    q.la.firstFlitNo = fc.nextFlitNo;
    q.la.packet = pkt.id;
    q.la.createdAt = pkt.enqueuedAt;
    q.la.leadsTail = headPacketOffset_ + n == pkt.sizeFlits;
    q.pktSize = pkt.sizeFlits;
    q.pktOffset = headPacketOffset_;
    fc.nextFlitNo += n;

    headPacketOffset_ += n;
    if (headPacketOffset_ == pkt.sizeFlits) {
        queue_.pop_front();
        headPacketOffset_ = 0;
    }
}

Flit
LoftSourceUnit::dataFlit(const Quantum &q, std::uint32_t i)
{
    Flit flit;
    const std::uint32_t pos = q.pktOffset + i;
    const bool head = pos == 0;
    const bool tail = pos + 1 == q.pktSize;
    flit.type = head && tail ? FlitType::HeadTail
              : head ? FlitType::Head
              : tail ? FlitType::Tail
              : FlitType::Body;
    flit.flow = q.la.flow;
    flit.flitNo = q.la.firstFlitNo + i;
    flit.packet = q.la.packet;
    flit.src = q.la.src;
    flit.dst = q.la.dst;
    flit.pktSize = q.pktSize;
    flit.createdAt = q.la.createdAt;
    flit.quantum = q.la.quantumNo;
    flit.quantumLast = i + 1 == q.la.quantumFlits;
    flit.payload = flitPayload(flit.flow, flit.flitNo);
    return flit;
}

// loft-tidy: steady-state-hot
void
LoftSourceUnit::emitLookahead(Cycle now)
{
    if (!pending_ || !laOut_)
        return;
    // Pick a look-ahead VC with credit; without one we must not
    // schedule yet (the look-ahead flit must precede its data).
    std::uint64_t free = 0;
    for (std::uint32_t v = 0; v < params_.laNumVCs; ++v) {
        if (laCredits_[v] > 0)
            free |= std::uint64_t(1) << v;
    }
    if (!free) {
        ++stallNoLaCredit_;
        NOC_OBSERVE(observer_,
                    SourceThrottled{node_, pending_->la.flow,
                                    StallReason::NoLaCredit, now});
        return;
    }

    Slot granted;
    const Slot earliest = params_.slotOf(now) + 1;
    if (!sched_.trySchedule(pending_->la.flow, now,
                            pending_->la.quantumNo, earliest, granted)) {
        ++throttles_;
        NOC_OBSERVE(observer_,
                    SourceThrottled{node_, pending_->la.flow,
                                    StallReason::SchedThrottle, now});
        return;
    }
    const std::size_t vc = laVcPick_.arbitrate(free);
    pending_->la.departureSlot = granted;
    laOut_->send(now, LaWireFlit{pending_->la,
                 static_cast<std::uint32_t>(vc)});
    --laCredits_[vc];
    NOC_OBSERVE(observer_,
                NiQuantumScheduled{node_, pending_->la, granted, now});

    const auto slot = [](const Quantum &q) { return q.la.departureSlot; };
    const auto at = std::ranges::lower_bound(outbound_, granted, {}, slot);
    if (at == outbound_.end() || slot(*at) != granted)
        // loft-tidy: pooled(reserved in the ctor; plateaus in warm-up)
        outbound_.emplace(at, *pending_);
    pending_.reset();
}

void
LoftSourceUnit::forwardData(Cycle now)
{
    if (!dataOut_ || outbound_.empty())
        return;
    const Slot now_slot = params_.slotOf(now);

    // Emergent quantum: the earliest booking whose slot has arrived.
    Quantum *cand = nullptr;
    bool emergent = false;
    if (outbound_.front().la.departureSlot <= now_slot) {
        cand = &outbound_.front();
        emergent = true;
    } else if (params_.speculativeSwitching) {
        cand = &outbound_.front(); // earliest scheduled, sent early
    }
    if (!cand)
        return;

    // A quantum starting at its slot enters the tracked non-speculative
    // buffer; one starting early uses the speculative buffer. The
    // choice is sticky for the whole quantum (Section 4.3.1).
    if (cand->sent == 0)
        cand->sendSpec = !emergent;
    const bool to_spec = cand->sendSpec;
    if (to_spec ? dnSpecFree_ == 0 : dnNonspecFree_ == 0) {
        if (to_spec)
            ++stallSpecCredit_;
        else
            ++stallNonspecCredit_;
        NOC_OBSERVE(observer_,
                    SourceThrottled{node_, cand->la.flow,
                                    to_spec
                                        ? StallReason::NoSpecCredit
                                        : StallReason::NoNonspecCredit,
                                    now});
        return;
    }
    const Flit flit = dataFlit(*cand, cand->sent);
    dataOut_->send(now, DataWireFlit{flit, to_spec});
    NOC_OBSERVE(observer_, FlitSourced{node_, flit, to_spec, now});
    if (to_spec)
        --dnSpecFree_;
    else
        --dnNonspecFree_;
    --queuedFlits_;
    ++cand->sent;
    ++flitsSent_;
    lastForward_ = now;

    if (cand->sent == cand->la.quantumFlits) {
        sched_.clearBooking(cand->la.departureSlot);
        outbound_.erase(outbound_.begin());
    }
}

void
LoftSourceUnit::maybeLocalReset(Cycle now)
{
    if (!params_.localStatusReset)
        return;
    if (!sched_.dirty())
        return;
    if (!sched_.canLocalReset()) {
        ++rbBookings_;
        return;
    }
    if (dnNonspecFree_ != params_.centralBufferFlits) {
        ++rbNonspec_;
        return;
    }
    sched_.localReset(now);
    ++localResets_;
}

void
LoftSourceUnit::tick(Cycle now)
{
    receiveCredits(now);
    sched_.advanceTo(now);
    buildNextQuantum(now);
    emitLookahead(now);
    forwardData(now);
    maybeLocalReset(now);
}

bool
LoftSourceUnit::quiescent() const
{
    // Nothing queued, segmented or scheduled-but-unsent; empty credit
    // wires; and the local-link scheduler parked post-reset (its
    // advanceTo catch-up replays the skipped frames on wake-up).
    return queue_.empty() && !pending_ && outbound_.empty() &&
           (!actualCreditIn_ || actualCreditIn_->empty()) &&
           (!virtualCreditIn_ || virtualCreditIn_->empty()) &&
           (!laCreditIn_ || laCreditIn_->empty()) &&
           sched_.quiescent();
}

} // namespace noc
