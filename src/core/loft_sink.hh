/**
 * @file
 * LOFT ejection unit: consumes flits at 1 flit/cycle, feeds metrics,
 * and returns both actual credits (per flit) and virtual credits (per
 * quantum, stamped with the consumption slot) to the destination
 * router's Local output scheduler.
 */

#ifndef NOC_CORE_LOFT_SINK_HH
#define NOC_CORE_LOFT_SINK_HH

#include "core/loft_params.hh"
#include "core/messages.hh"
#include "net/channel.hh"
#include "net/instrument.hh"
#include "net/metrics.hh"
#include "net/reassembly.hh"
#include "sim/clocked.hh"

namespace noc
{

class LoftSink final : public Clocked
{
  public:
    LoftSink(NodeId node, const LoftParams &params,
             Channel<DataWireFlit> *in,
             Channel<ActualCreditMsg> *actual_credit_out,
             Channel<VirtualCreditMsg> *virtual_credit_out,
             MetricsCollector *metrics);

    void tick(Cycle now) override;

    /** Idle whenever the ejection wire is empty: per-packet pending
     *  counts change only on flit receipt. */
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
    LoftParams params_;
    Channel<DataWireFlit> *in_;
    Channel<ActualCreditMsg> *actualCreditOut_;
    Channel<VirtualCreditMsg> *virtualCreditOut_;
    // loft-tidy: deferred-endpoint(MetricsCollector::mergeDomains)
    MetricsCollector *metrics_;
    ReassemblyTable reassembly_;
    std::uint64_t flitsEjected_ = 0;
    std::uint64_t corruptedDeliveries_ = 0;
    // loft-tidy: deferred-endpoint(DeferredObserver)
    NetObserver *observer_ = nullptr;
};

} // namespace noc

#endif // NOC_CORE_LOFT_SINK_HH
