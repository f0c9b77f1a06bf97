#include "core/data_router.hh"

#include <algorithm>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace noc
{

LoftDataRouter::LoftDataRouter(NodeId id, const Mesh2D &mesh,
                               const LoftParams &params)
    : id_(id), mesh_(mesh), params_(params)
{
    params_.validate();
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        outputs_[p].sched = std::make_unique<OutputScheduler>(
            params_, csprintf("router%u.%s.sched", id,
                              portName(static_cast<Port>(p))));
        outputs_[p].dnNonspecFree = params_.centralBufferFlits;
        outputs_[p].dnSpecFree = params_.specBufferFlits;
        inputs_[p].table = InputReservationTable(params_.quantumFlits);
        pending_[p].reserve(8);
    }
    // One head entry per distinct flow with pending quanta at an
    // output; every such flow holds a scheduler table entry, so
    // maxFlows bounds the scratch and its growth stays in warm-up.
    headsScratch_.reserve(params_.maxFlows);
}

void
LoftDataRouter::setObserver(NetObserver *obs)
{
    observer_ = obs;
    for (auto &out : outputs_)
        out.sched->setObserver(obs);
}

void
LoftDataRouter::connectInput(Port p, Channel<DataWireFlit> *data_in,
                             Channel<ActualCreditMsg> *actual_credit_out,
                             Channel<VirtualCreditMsg> *virtual_credit_out)
{
    InputPort &in = inputs_[portIndex(p)];
    in.dataIn = data_in;
    in.actualCreditOut = actual_credit_out;
    in.virtualCreditOut = virtual_credit_out;
}

void
LoftDataRouter::connectOutput(Port p, Channel<DataWireFlit> *data_out,
                              Channel<ActualCreditMsg> *actual_credit_in,
                              Channel<VirtualCreditMsg> *virtual_credit_in)
{
    OutputPort &out = outputs_[portIndex(p)];
    out.dataOut = data_out;
    out.actualCreditIn = actual_credit_in;
    out.virtualCreditIn = virtual_credit_in;
}

// loft-tidy: steady-state-hot
bool
LoftDataRouter::admitLookahead(Port in, const LookaheadFlit &la,
                               Cycle now, Cycle schedulable_at)
{
    (void)now;
    InputPort &ip = inputs_[portIndex(in)];
    // The input reservation table bounds the quanta a port may hold
    // (Table 1: one entry per time-window slot); a full table
    // back-pressures the look-ahead network.
    if (ip.table.size() >= params_.windowSlots())
        return false;
    const std::uint64_t key = recordKey(la.flow, la.quantumNo);
    if (ip.table.contains(key)) {
        if (params_.recovery.enabled) {
            // The original look-ahead survived after all (e.g. stalled
            // long enough for the timeout to re-synthesize it). The
            // reservation exists; absorb the redundant flit.
            ++duplicateLookaheads_;
            return true;
        }
        panic("router %u: duplicate look-ahead for flow %u quantum %llu",
              id_, la.flow,
              static_cast<unsigned long long>(la.quantumNo));
    }
    QuantumRecord rec;
    rec.la = la;
    rec.expectedFlits = la.quantumFlits;
    rec.schedulableAt = schedulable_at;
    rec.outPort = xyRoute(mesh_, id_, la.dst);
    // The quantum departs the previous router at la.departureSlot; its
    // last flit is here linkLatency cycles after the slot ends.
    rec.arrivalSlot = la.departureSlot +
        (params_.quantumFlits - 1 + params_.linkLatency) /
            params_.quantumFlits;
    // Claims any data flits that arrived ahead of this admission.
    const RecordId id = ip.table.admit(key, rec);
    auto &pend = pending_[portIndex(rec.outPort)];
    const auto order = [](const PendingQuantum &e) {
        return std::pair(e.flow, e.quantumNo);
    };
    const auto at = std::ranges::lower_bound(
        pend, std::pair(la.flow, la.quantumNo), {}, order);
    if (at == pend.end() || order(*at) != std::pair(la.flow, la.quantumNo))
        // loft-tidy: pooled(reserved in the ctor; plateaus in warm-up)
        pend.emplace(at, PendingQuantum{la.flow, la.quantumNo, id,
                                        static_cast<std::uint32_t>(
                                            portIndex(in))});
    NOC_OBSERVE(observer_, LookaheadAdmitted{id_, in, la, now});
    return true;
}

bool
LoftDataRouter::schedulePending(Port outp, Cycle now,
                                LookaheadFlit &onward, bool &terminal)
{
    auto &pend = pending_[portIndex(outp)];
    if (pend.empty())
        return false;
    OutputScheduler &sched = *outputs_[portIndex(outp)].sched;
    const Slot stages_slots =
        (params_.routerStages + params_.quantumFlits - 1) /
        params_.quantumFlits;

    // Serve flows round-robin; within a flow, the oldest quantum
    // first. Gather each distinct flow's head entry (pend is sorted by
    // (flow, quantum)), then rotate past the last served flow.
    FlowId &ptr = flowPointer_[portIndex(outp)];
    auto &heads = headsScratch_;
    heads.clear();
    for (auto h = pend.begin(); h != pend.end();) {
        // loft-tidy: pooled(headsScratch_ reserved to maxFlows in the ctor)
        heads.push_back(static_cast<std::size_t>(h - pend.begin()));
        const FlowId f = h->flow;
        h = std::partition_point(
            h, pend.end(),
            [f](const PendingQuantum &e) { return e.flow == f; });
    }
    std::size_t start = 0;
    while (start < heads.size() && pend[heads[start]].flow <= ptr)
        ++start;

    for (std::size_t k = 0; k < heads.size(); ++k) {
        const std::size_t idx = heads[(start + k) % heads.size()];
        const FlowId flow = pend[idx].flow;
        const RecordId id = pend[idx].rec;
        InputPort &ip = inputs_[pend[idx].inPort];
        QuantumRecord &rec = ip.table.record(id);

        if (rec.schedulableAt > now)
            continue; // still in the look-ahead router pipeline

        Slot granted;
        if (!sched.trySchedule(flow, now, rec.la.quantumNo,
                               rec.arrivalSlot + stages_slots,
                               granted)) {
            continue; // throttled: stays pending
        }

        ip.table.schedule(id, granted);
        // Step 4: return a virtual credit (stamped with the onward
        // departure slot) to the upstream output scheduler.
        if (ip.virtualCreditOut)
            ip.virtualCreditOut->send(now, VirtualCreditMsg{granted});

        ptr = flow;
        rec.la.departureSlot = granted;
        onward = rec.la;
        terminal = outp == Port::Local;
        NOC_OBSERVE(observer_,
                    QuantumScheduled{id_, outp, rec.la, granted, now});
        pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(idx));
        return true;
    }
    return false;
}

void
LoftDataRouter::receiveCredits(Cycle now)
{
    for (auto &out : outputs_) {
        if (out.actualCreditIn) {
            while (auto c = out.actualCreditIn->tryReceive(now)) {
                if (!acceptCredit(*c, observer_, id_, now,
                                  creditsDiscarded_))
                    continue;
                if (c->spec)
                    ++out.dnSpecFree;
                else
                    ++out.dnNonspecFree;
                if (out.dnSpecFree > params_.specBufferFlits ||
                    out.dnNonspecFree > params_.centralBufferFlits) {
                    panic("router %u: actual credit overflow", id_);
                }
            }
        }
        if (out.virtualCreditIn) {
            while (auto c = out.virtualCreditIn->tryReceive(now)) {
                if (!acceptCredit(*c, observer_, id_, now,
                                  creditsDiscarded_))
                    continue;
                out.sched->onCreditReturn(c->departSlot);
            }
        }
    }
}

void
LoftDataRouter::receiveData(Cycle now)
{
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputPort &ip = inputs_[p];
        if (!ip.dataIn)
            continue;
        while (auto wf = ip.dataIn->tryReceive(now)) {
            const Flit &flit = wf->flit;
            if (wf->spec) {
                if (ip.specUsed >= params_.specBufferFlits)
                    panic("router %u: speculative buffer overflow", id_);
                ++ip.specUsed;
            } else {
                if (ip.nonspecUsed >= params_.centralBufferFlits)
                    panic("router %u: central buffer overflow "
                          "(scheduling anomaly)", id_);
                ++ip.nonspecUsed;
            }
            NOC_OBSERVE(observer_,
                        FlitArrived{id_, static_cast<Port>(p), flit,
                                    wf->spec, now});
            // Flits whose look-ahead still waits for a free input-table
            // entry are staged until it lands.
            ip.table.arrive(recordKey(flit.flow, flit.quantum),
                            InputReservationTable::BufferedFlit{flit,
                                                                wf->spec},
                            now, now + params_.lookaheadTimeout());
        }
    }
}

void
LoftDataRouter::forwardFlit(std::size_t in, RecordId id, std::size_t out,
                            Cycle now, bool emergent)
{
    InputPort &ip = inputs_[in];
    OutputPort &op = outputs_[out];
    QuantumRecord &rec = ip.table.record(id);

    // Decide the downstream buffer: a quantum switched starting at its
    // scheduled slot is in order and enters the non-speculative buffer,
    // whose occupancy the reservation tables track; a quantum forwarded
    // ahead of schedule is out of (time) order and must use the
    // speculative buffer (Section 4.3.1 - with spec size 0 all early
    // forwarding is disabled). The choice is made at the quantum's
    // first flit and is sticky (the quantum is the scheduling unit).
    if (rec.forwardedFlits == 0)
        rec.sendSpec = !emergent;
    const bool to_spec = rec.sendSpec;

    if (to_spec ? op.dnSpecFree == 0 : op.dnNonspecFree == 0)
        panic("router %u: forwardFlit without downstream space", id_);

    const InputReservationTable::BufferedFlit bf = ip.table.popFront(id);
    op.dataOut->send(now, DataWireFlit{bf.flit, to_spec});
    if (to_spec)
        --op.dnSpecFree;
    else
        --op.dnNonspecFree;

    // Free this router's buffer slot and tell upstream.
    if (bf.spec) {
        if (ip.specUsed == 0)
            panic("router %u: spec buffer underflow", id_);
        --ip.specUsed;
    } else {
        if (ip.nonspecUsed == 0)
            panic("router %u: central buffer underflow", id_);
        --ip.nonspecUsed;
    }
    if (ip.actualCreditOut)
        ip.actualCreditOut->send(now, ActualCreditMsg{bf.spec});

    ++rec.forwardedFlits;
    op.lastForward = now;
    ++op.flitsForwarded;
    NOC_OBSERVE(observer_,
                FlitForwarded{id_, static_cast<Port>(out), bf.flit,
                              to_spec, now});
    DPRINTF(Data, now, "router %u: flow %u flit %llu out %s (%s)",
            id_, bf.flit.flow,
            static_cast<unsigned long long>(bf.flit.flitNo),
            portName(static_cast<Port>(out)),
            emergent ? "emergent" : "speculative");
    if (emergent)
        ++emergentForwards_;
    else
        ++specForwards_;

    if (rec.forwardedFlits == rec.expectedFlits) {
        op.sched->clearBooking(rec.departSlot);
        ip.table.erase(id);
    }
}

void
LoftDataRouter::switchOutputs(Cycle now)
{
    const Slot now_slot = params_.slotOf(now);
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        if (!op.dataOut)
            continue;

        // Emergent candidate: the earliest due quantum (scheduled slot
        // arrived or already missed) that has data. Guaranteed to win
        // arbitration.
        {
            const QuantumRecord *due = nullptr;
            RecordId due_id = 0;
            std::size_t due_in = 0;
            bool due_dataless = false;
            for (std::size_t in = 0; in < kNumPorts; ++in) {
                const InputReservationTable &t = inputs_[in].table;
                for (const auto &d : t.departures(out)) {
                    if (d.slot > now_slot)
                        break;
                    if (t.buffered(d.rec) == 0) {
                        due_dataless = true; // late data upstream
                        continue;
                    }
                    const QuantumRecord &rec = t.record(d.rec);
                    if (!due || rec.departSlot < due->departSlot) {
                        due = &rec;
                        due_id = d.rec;
                        due_in = in;
                    }
                    break;
                }
            }
            if (due) {
                // A quantum that already started early stays in the
                // speculative lane; one starting at its slot uses the
                // tracked non-speculative buffer.
                const bool needs_spec =
                    due->forwardedFlits > 0 && due->sendSpec;
                if (needs_spec ? op.dnSpecFree > 0
                               : op.dnNonspecFree > 0) {
                    forwardFlit(due_in, due_id, out, now, true);
                    continue;
                }
                // Downstream has no space: the scheduled switching
                // time is missed (for the non-speculative buffer this
                // is only possible when the anomaly guard is disabled,
                // Section 4.2).
                ++missedSlots_;
                NOC_OBSERVE(observer_,
                            MissedSlot{id_, static_cast<Port>(out), now});
                continue;
            }
            if (due_dataless) {
                ++missedSlots_;
                NOC_OBSERVE(observer_,
                            MissedSlot{id_, static_cast<Port>(out), now});
            }
        }

        // Speculative switching: forward a ready flit ahead of its
        // scheduled time if the link is otherwise idle.
        if (!params_.speculativeSwitching)
            continue;
        if (op.dnSpecFree == 0)
            continue; // early forwards need speculative buffer space
        std::uint64_t req = 0;
        std::array<RecordId, kNumPorts> cand{};
        for (std::size_t in = 0; in < kNumPorts; ++in) {
            const InputReservationTable &t = inputs_[in].table;
            for (const auto &d : t.departures(out)) {
                if (d.slot <= now_slot)
                    continue; // due or overdue: emergent lane only
                if (t.buffered(d.rec) == 0)
                    continue;
                req |= std::uint64_t(1) << in;
                cand[in] = d.rec;
                break; // earliest ready record of this input port
            }
        }
        const std::size_t win = op.arb.arbitrate(req);
        if (win == RoundRobinArbiter::npos)
            continue;
        forwardFlit(win, cand[win], out, now, false);
    }
}

void
LoftDataRouter::maybeLocalReset(Cycle now)
{
    if (!params_.localStatusReset)
        return;
    for (std::size_t out = 0; out < kNumPorts; ++out) {
        OutputPort &op = outputs_[out];
        if (!op.dataOut)
            continue;
        if (!op.sched->dirty() || !op.sched->canLocalReset())
            continue;
        // Section 4.3.2: the downstream non-speculative buffer must be
        // empty (checked through the returned actual credits).
        if (op.dnNonspecFree != params_.centralBufferFlits)
            continue;
        op.sched->localReset(now);
        ++localResets_;
    }
}

void
LoftDataRouter::dropStagedQuantum(std::size_t in, std::size_t i, Cycle now)
{
    InputPort &ip = inputs_[in];
    for (const InputReservationTable::BufferedFlit &bf :
         ip.table.flits(ip.table.stagedAt(i))) {
        if (bf.spec) {
            if (ip.specUsed == 0)
                panic("router %u: spec buffer underflow (drop)", id_);
            --ip.specUsed;
        } else {
            if (ip.nonspecUsed == 0)
                panic("router %u: central buffer underflow (drop)", id_);
            --ip.nonspecUsed;
        }
        if (ip.actualCreditOut)
            ip.actualCreditOut->send(now, ActualCreditMsg{bf.spec});
        ++flitsDropped_;
        NOC_OBSERVE(observer_, FlitDropped{id_, bf.flit, now});
    }
    ip.table.dropStaged(i);
}

void
LoftDataRouter::recoverLostLookaheads(Cycle now)
{
    if (!params_.recovery.enabled)
        return;
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputReservationTable &t = inputs_[p].table;
        // Re-issue in key order: re-issues compete for output slots and
        // fire observer events. Handling one staged quantum never
        // changes another's eligibility; one that is dropped or
        // admitted leaves the index, so `i` then already names the
        // next one.
        for (std::size_t i = 0; i < t.stagedCount();) {
            const RecordId id = t.stagedAt(i);
            InputReservationTable::Staging &u = t.staging(id);
            if (now < u.nextReissueAt || t.buffered(id) == 0) {
                ++i;
                continue;
            }
            if (!u.detected) {
                // Timeout fired: the reservation for this data never
                // materialized — the look-ahead flit must be lost.
                u.detected = true;
                NOC_OBSERVE(observer_,
                            FaultDetected{FaultKind::LookaheadDrop,
                                          id_, u.firstArrival, now});
            }
            // Re-synthesize only once the quantum is complete; data
            // flits of one quantum arrive in order, so the tail marker
            // or a full quantum's worth of flits closes it. Waiting for
            // the rest of the quantum (e.g. behind a stalled link) does
            // not consume re-issue budget.
            const auto flits = t.flits(id);
            const Flit &first = flits.front().flit;
            const Flit &last = flits.back().flit;
            const bool complete =
                last.quantumLast || flits.size() >= params_.quantumFlits;
            if (!complete) {
                u.nextReissueAt =
                    now + params_.recovery.reissueBackoffCycles;
                ++i;
                continue;
            }
            if (u.reissues >= params_.recovery.maxReissues) {
                dropStagedQuantum(p, i, now);
                continue;
            }
            ++u.reissues;
            u.nextReissueAt =
                now + (params_.recovery.reissueBackoffCycles
                       << std::min<std::uint32_t>(u.reissues, 6));
            LookaheadFlit la;
            la.flow = first.flow;
            la.src = first.src;
            la.dst = first.dst;
            la.quantumNo = first.quantum;
            la.quantumFlits = static_cast<std::uint32_t>(flits.size());
            la.firstFlitNo = first.flitNo;
            la.packet = first.packet;
            la.createdAt = first.createdAt;
            la.leadsTail = last.isTail();
            // The data is already here: backdate the departure slot so
            // the arrival estimate is immediately satisfied.
            la.departureSlot = params_.slotOf(u.firstArrival);
            // admitLookahead claims the staged entry on success, which
            // also ends `u`; take what the observer needs by value.
            [[maybe_unused]] const Cycle firstArrival = u.firstArrival;
            if (admitLookahead(static_cast<Port>(p), la, now, now)) {
                ++laReissues_;
                NOC_OBSERVE(observer_,
                            FaultRecovered{FaultKind::LookaheadDrop,
                                           id_, firstArrival, now});
                continue;
            }
            ++i;
        }
    }
}

void
LoftDataRouter::scrubStaleRecords(Cycle now)
{
    const Cycle timeout = params_.scrubTimeout();
    for (std::size_t p = 0; p < kNumPorts; ++p) {
        InputReservationTable &t = inputs_[p].table;
        // Key order; erasing record i makes `i` name the next one.
        for (std::size_t i = 0; i < t.size();) {
            const RecordId id = t.recordAt(i);
            const QuantumRecord &rec = t.record(id);
            if (!rec.scheduled || t.buffered(id) != 0 ||
                rec.forwardedFlits >= rec.expectedFlits ||
                params_.slotStart(rec.departSlot) + timeout > now) {
                ++i;
                continue;
            }
            // The remaining data flits of this quantum never arrived
            // (dropped upstream): reclaim the output slot and the
            // input-table entry so the tables re-converge.
            outputs_[portIndex(rec.outPort)].sched->clearBooking(
                rec.departSlot);
            t.erase(id);
            ++quantaScrubbed_;
        }
    }
}

void
LoftDataRouter::tick(Cycle now)
{
    receiveCredits(now);
    for (auto &out : outputs_) {
        if (out.dataOut)
            out.sched->advanceTo(now);
    }
    receiveData(now);
    switchOutputs(now);
    maybeLocalReset(now);
    if (params_.recovery.enabled && now >= nextScrubAt_) {
        nextScrubAt_ = now + params_.scrubPeriod();
        scrubStaleRecords(now);
    }
}

bool
LoftDataRouter::quiescent() const
{
    // Inputs: no live or staged quanta, no buffered flits, and nothing
    // arriving on the data or credit wires.
    for (const InputPort &ip : inputs_) {
        if (!ip.table.empty() || ip.table.hasStaged())
            return false;
        if (ip.nonspecUsed != 0 || ip.specUsed != 0)
            return false;
        if (ip.dataIn && !ip.dataIn->empty())
            return false;
    }
    // Outputs: no incoming credits and every scheduler parked (no
    // bookings, no owed credits, reset done) so advanceTo may lag.
    for (const OutputPort &op : outputs_) {
        if (op.actualCreditIn && !op.actualCreditIn->empty())
            return false;
        if (op.virtualCreditIn && !op.virtualCreditIn->empty())
            return false;
        if (op.dataOut && !op.sched->quiescent())
            return false;
    }
    for (const auto &p : pending_)
        if (!p.empty())
            return false;
    return true;
}

std::uint64_t
LoftDataRouter::bufferedFlits() const
{
    std::uint64_t total = 0;
    for (const auto &ip : inputs_)
        total += ip.nonspecUsed + ip.specUsed;
    return total;
}

std::uint64_t
LoftDataRouter::anomalyViolations() const
{
    std::uint64_t total = 0;
    for (const auto &out : outputs_)
        total += out.sched->anomalyViolations();
    return total;
}

} // namespace noc
