#include "router/sink_unit.hh"

#include "sim/logging.hh"

namespace noc
{

SinkUnit::SinkUnit(NodeId node, Channel<WireFlit> *in,
                   Channel<Credit> *credit_return,
                   MetricsCollector *metrics)
    : node_(node), in_(in), creditReturn_(credit_return), metrics_(metrics)
{
}

void
SinkUnit::setOnEject(std::function<void(const Flit &, Cycle)> cb)
{
    onEject_ = std::move(cb);
}

void
SinkUnit::tick(Cycle now)
{
    // Constant ejection rate: at most one flit per cycle.
    auto wf = in_->tryReceive(now);
    if (!wf)
        return;
    const Flit &flit = wf->flit;
    if (flit.dst != node_)
        panic("sink %u received flit for node %u (flow %u)",
              node_, flit.dst, flit.flow);

    if (flit.payload != flitPayload(flit.flow, flit.flitNo)) {
        // End-to-end payload check (fault injection): header ECC kept
        // the flit routable, so it still arrives and is accounted here.
        ++corruptedDeliveries_;
        [[maybe_unused]] const Cycle at =
            wf->corruptedAt ? wf->corruptedAt : now;
        NOC_OBSERVE(observer_,
                    FaultDetected{FaultKind::DataCorrupt, node_, at, now});
        NOC_OBSERVE(observer_,
                    FaultRecovered{FaultKind::DataCorrupt, node_, at, now});
    }

    if (creditReturn_)
        creditReturn_->send(now, Credit{wf->vc});

    ++flitsEjected_;
    if (metrics_)
        metrics_->onFlitEjected(flit.flow);
    NOC_OBSERVE(observer_, FlitEjected{node_, flit, now});
    if (onEject_)
        onEject_(flit, now);

    if (reassembly_.onFlit(flit, node_)) {
        if (metrics_)
            metrics_->onPacketEjected(flit.flow, flit.createdAt, now);
        NOC_OBSERVE(observer_,
                    PacketDelivered{node_, flit.flow, flit.packet, now});
    }
}

} // namespace noc
