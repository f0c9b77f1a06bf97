#include "core/loft_sink.hh"

#include "sim/logging.hh"

namespace noc
{

LoftSink::LoftSink(NodeId node, const LoftParams &params,
                   Channel<DataWireFlit> *in,
                   Channel<ActualCreditMsg> *actual_credit_out,
                   Channel<VirtualCreditMsg> *virtual_credit_out,
                   MetricsCollector *metrics)
    : node_(node), params_(params), in_(in),
      actualCreditOut_(actual_credit_out),
      virtualCreditOut_(virtual_credit_out), metrics_(metrics)
{
}

void
LoftSink::tick(Cycle now)
{
    auto wf = in_->tryReceive(now);
    if (!wf)
        return;
    const Flit &flit = wf->flit;
    if (flit.dst != node_)
        panic("loft-sink %u: flit for node %u", node_, flit.dst);

    if (flit.payload != flitPayload(flit.flow, flit.flitNo)) {
        // End-to-end payload check (the software CRC a real NI would
        // run). Header ECC kept the flit routable, so delivery still
        // completes — the damage is detected and accounted here.
        ++corruptedDeliveries_;
        [[maybe_unused]] const Cycle at =
            wf->corruptedAt ? wf->corruptedAt : now;
        NOC_OBSERVE(observer_,
                    FaultDetected{FaultKind::DataCorrupt, node_, at, now});
        NOC_OBSERVE(observer_,
                    FaultRecovered{FaultKind::DataCorrupt, node_, at, now});
    }

    actualCreditOut_->send(now, ActualCreditMsg{wf->spec});
    if (flit.quantumLast) {
        // The quantum is fully consumed: from this slot on its buffer
        // reservation is free again.
        virtualCreditOut_->send(
            now, VirtualCreditMsg{params_.slotOf(now)});
    }

    ++flitsEjected_;
    if (metrics_)
        metrics_->onFlitEjected(flit.flow);
    NOC_OBSERVE(observer_, FlitEjected{node_, flit, now});

    if (reassembly_.onFlit(flit, node_)) {
        if (metrics_)
            metrics_->onPacketEjected(flit.flow, flit.createdAt, now);
        NOC_OBSERVE(observer_,
                    PacketDelivered{node_, flit.flow, flit.packet, now});
    }
}

} // namespace noc
