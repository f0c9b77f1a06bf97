// Known-good fixture for loft-observer-hook-parity.
//
// The collector overrides what it counts and consciously waives the
// rest.
//
// Expected: the check stays silent.

// loft-tidy: observer-base
class NetObserver
{
  public:
    virtual ~NetObserver() = default;
    virtual void onFlitArrived(int node, int flit) {}
    virtual void onFlitEjected(int node, int flit) {}
    virtual void onFaultDetected(int node, int cycle) {}
};

// loft-tidy: complete-observer
// loft-tidy: hook-ignored(onFaultDetected) — faults are counted by the
//     dedicated FaultMonitor, not this collector.
class Collector : public NetObserver
{
  public:
    void onFlitArrived(int node, int flit) override {}
    void onFlitEjected(int node, int flit) override {}
};
