/**
 * @file
 * Ejection-side unit: drains the router's Local output port at the
 * constant rate of 1 flit/cycle (Section 5.1), returns credits, and
 * feeds the metrics collector. Handles out-of-order flit arrival within
 * a packet (possible under FRS speculative switching) by counting the
 * flits of each packet.
 */

#ifndef NOC_ROUTER_SINK_UNIT_HH
#define NOC_ROUTER_SINK_UNIT_HH

#include <functional>

#include "net/channel.hh"
#include "net/metrics.hh"
#include "net/reassembly.hh"
#include "router/wormhole_router.hh"
#include "sim/clocked.hh"

namespace noc
{

class SinkUnit final : public Clocked
{
  public:
    SinkUnit(NodeId node, Channel<WireFlit> *in,
             Channel<Credit> *credit_return, MetricsCollector *metrics);

    /** Optional per-flit callback (GSF uses it to update the barrier). */
    void setOnEject(std::function<void(const Flit &, Cycle)> cb);

    void tick(Cycle now) override;

    /** Idle whenever the ejection wire is empty. */
    bool quiescent() const override { return in_->empty(); }

    std::uint64_t flitsEjected() const { return flitsEjected_; }

    /** Flits whose payload failed the end-to-end check on ejection. */
    std::uint64_t corruptedDeliveries() const
    {
        return corruptedDeliveries_;
    }

    /** Attach an event observer. */
    void setObserver(NetObserver *obs) { observer_ = obs; }

  private:
    NodeId node_;
    Channel<WireFlit> *in_;
    Channel<Credit> *creditReturn_;
    // loft-tidy: deferred-endpoint(MetricsCollector::mergeDomains)
    MetricsCollector *metrics_;
    std::function<void(const Flit &, Cycle)> onEject_;
    ReassemblyTable reassembly_;
    std::uint64_t flitsEjected_ = 0;
    std::uint64_t corruptedDeliveries_ = 0;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_ROUTER_SINK_UNIT_HH
