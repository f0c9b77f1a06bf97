/**
 * @file
 * Observer fan-out. A Network distributes exactly one `NetObserver *`
 * to its components (see Network::setObserver), which would make the
 * auditor and any other consumer mutually exclusive. ObserverMux is
 * the one installed observer and re-publishes every NetEvent, in
 * registration order, to any number of downstream observers (e.g. the
 * NetworkAuditor and the TelemetryCollector of the same run).
 *
 * The mux overrides only NetObserver::observe() and hands each target
 * the same `const NetEvent &`: no per-target copy, and no per-event-type
 * code that could fall out of step with the event list.
 *
 * The mux is as passive as its targets: it owns nothing, mutates no
 * network state, and with -DLOFT_AUDIT=OFF never receives an event
 * because the NOC_OBSERVE hook sites are compiled out.
 */

#ifndef NOC_NET_OBSERVER_MUX_HH
#define NOC_NET_OBSERVER_MUX_HH

#include <algorithm>
#include <vector>

#include "net/instrument.hh"

namespace noc
{

class ObserverMux : public NetObserver
{
  public:
    ObserverMux() = default;

    /** Append @p obs to the fan-out list (null is ignored). Events are
     *  delivered in registration order, deterministically. */
    void add(NetObserver *obs)
    {
        if (obs && std::find(targets_.begin(), targets_.end(), obs) ==
                       targets_.end())
            targets_.push_back(obs);
    }

    /** Remove @p obs from the fan-out list (no-op if absent). */
    void remove(NetObserver *obs)
    {
        targets_.erase(
            std::remove(targets_.begin(), targets_.end(), obs),
            targets_.end());
    }

    std::size_t numTargets() const { return targets_.size(); }

    /** Forward @p ev to every target, in registration order. */
    void
    observe(const NetEvent &ev) override
    {
        for (NetObserver *t : targets_)
            t->observe(ev);
    }

  private:
    std::vector<NetObserver *> targets_;
};

} // namespace noc

#endif // NOC_NET_OBSERVER_MUX_HH
