// Known-bad fixture for loft-observer-hook-parity.
//
// The base gains a new hook (onFaultDetected) that the collector
// neither overrides nor waives. The collector also keeps a stale
// waiver for a hook it actually overrides.
//
// Expected: the check fires for the collector's missing hook and the
// stale waiver.

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
// loft-tidy: hook-ignored(onFlitEjected)
class Collector : public NetObserver
{
  public:
    void onFlitArrived(int node, int flit) override {}
    void onFlitEjected(int node, int flit) override {} // waiver stale
    // BUG: onFaultDetected neither overridden nor waived.
};
