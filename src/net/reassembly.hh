/**
 * @file
 * Packet reassembly at an ejection port, shared by the LOFT and the
 * wormhole/GSF sinks: received-flit counts of the partially received
 * packets. Flits may arrive out of order (speculative switching), so a
 * packet completes on its count. Only a handful are partial at once,
 * so the table is a small vector searched linearly.
 */

#ifndef NOC_NET_REASSEMBLY_HH
#define NOC_NET_REASSEMBLY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/flit.hh"
#include "sim/logging.hh"

namespace noc
{

class ReassemblyTable
{
  public:
    ReassemblyTable() { partial_.reserve(kReserve); }

    /** Count @p flit, ejected at @p node; true once its packet is
     *  complete. Panics on more flits than pktSize (flits of a packet
     *  that disagree on its size). */
    // loft-tidy: steady-state-hot
    bool
    onFlit(const Flit &flit, NodeId node)
    {
        auto it = std::ranges::find(partial_, flit.packet, &Partial::packet);
        if (it == partial_.end()) {
            // loft-tidy: pooled(kReserve in the ctor; plateaus in warm-up)
            partial_.push_back(Partial{flit.packet, 0});
            it = partial_.end() - 1;
        }
        ++it->received;
        if (it->received > flit.pktSize)
            panic("sink %u: packet %llu received more flits than its "
                  "size %u", node,
                  static_cast<unsigned long long>(flit.packet),
                  flit.pktSize);
        if (it->received < flit.pktSize)
            return false;
        *it = partial_.back();
        partial_.pop_back();
        return true;
    }

  private:
    struct Partial
    {
        PacketId packet;
        std::uint32_t received;
    };

    static constexpr std::size_t kReserve = 8;

    std::vector<Partial> partial_;
};

} // namespace noc

#endif // NOC_NET_REASSEMBLY_HH
