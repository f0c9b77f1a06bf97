#include "traffic/generator.hh"

#include "sim/logging.hh"

namespace noc
{

TrafficGenerator::TrafficGenerator(Network &network,
                                   std::uint32_t packet_size_flits,
                                   std::uint64_t seed)
    : network_(network), packetSize_(packet_size_flits), rng_(seed)
{
    if (packet_size_flits == 0)
        fatal("TrafficGenerator: packet size must be positive");
}

void
TrafficGenerator::configure(const std::vector<FlowSpec> &flows,
                            const std::vector<FlowRate> &rates)
{
    if (flows.size() != rates.size())
        fatal("TrafficGenerator: flows/rates size mismatch (%zu vs %zu)",
              flows.size(), rates.size());
    flows_.clear();
    flows_.reserve(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
        FlowState fs;
        fs.spec = flows[i];
        fs.rate = rates[i];
        // A flow's first backlogged packet must not allocate mid-run;
        // deeper backlogs grow the ring during warm-up.
        fs.pending.reserve(8);
        flows_.push_back(std::move(fs));
    }
}

void
TrafficGenerator::setUniformRate(double flits_per_cycle)
{
    for (auto &fs : flows_)
        fs.rate.flitsPerCycle = flits_per_cycle;
}

Packet
TrafficGenerator::makePacket(FlowState &fs, Cycle now)
{
    Packet pkt;
    pkt.id = nextPacketId_++;
    pkt.flow = fs.spec.id;
    pkt.src = fs.spec.src;
    if (fs.spec.randomDst()) {
        // Uniform-random destination, excluding the source itself.
        const NodeId n = network_.mesh().numNodes();
        NodeId dst = static_cast<NodeId>(rng_.randRange(n - 1));
        if (dst >= pkt.src)
            ++dst;
        pkt.dst = dst;
    } else {
        pkt.dst = fs.spec.dst;
    }
    pkt.sizeFlits = packetSize_;
    pkt.createdAt = now;
    pkt.enqueuedAt = now;
    return pkt;
}

void
TrafficGenerator::tick(Cycle now)
{
    for (auto &fs : flows_) {
        const double pkt_rate = fs.rate.flitsPerCycle / packetSize_;
        bool create = false;
        switch (fs.rate.process) {
          case InjectionProcess::Bernoulli:
            create = rng_.chance(pkt_rate);
            break;
          case InjectionProcess::Periodic:
            fs.accumulator += pkt_rate;
            if (fs.accumulator >= 1.0) {
                fs.accumulator -= 1.0;
                create = true;
            }
            break;
        }
        if (create) {
            fs.pending.push_back(makePacket(fs, now));
            ++packetsOffered_;
            flitsOffered_ += packetSize_;
        }
        // Drain the pending queue into the NI, preserving flow order.
        // Latency is accounted from source-queue entry (enqueuedAt), as
        // in the paper: GSF's large source queues are charged to the
        // network, generator-side backlog beyond them is not.
        while (!fs.pending.empty()) {
            Packet pkt = fs.pending.front();
            pkt.enqueuedAt = now;
            if (!network_.inject(pkt))
                break;
            fs.pending.pop_front();
        }
    }
}

std::uint64_t
TrafficGenerator::packetsPending() const
{
    std::uint64_t n = 0;
    for (const auto &fs : flows_)
        n += fs.pending.size();
    return n;
}

} // namespace noc
