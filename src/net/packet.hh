/**
 * @file
 * Packet metadata. A packet is a fixed-size burst of data flits belonging
 * to one flow; LOFT further segments it into 2-flit quanta, each led by
 * one look-ahead flit.
 */

#ifndef NOC_NET_PACKET_HH
#define NOC_NET_PACKET_HH

#include "sim/types.hh"

namespace noc
{

/** Descriptor of one packet in flight. */
struct Packet
{
    PacketId id = 0;
    FlowId flow = kInvalidFlow;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Number of data flits in the packet. */
    std::uint32_t sizeFlits = 0;
    /** Cycle the packet was created by the traffic generator. */
    Cycle createdAt = 0;
    /** Cycle the packet entered the network interface queue. */
    Cycle enqueuedAt = 0;

    bool operator==(const Packet &) const = default;
};

} // namespace noc

#endif // NOC_NET_PACKET_HH
