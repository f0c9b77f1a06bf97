#include "reference/ref_input_table.hh"

#include <algorithm>

namespace noc
{

namespace
{

std::vector<std::uint64_t>
sortedKeys(const auto &map)
{
    std::vector<std::uint64_t> keys;
    for (const auto &[key, value] : map)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

std::vector<std::uint64_t>
RefInputReservationTable::recordKeys() const
{
    return sortedKeys(records_);
}

std::vector<std::uint64_t>
RefInputReservationTable::stagedKeys() const
{
    return sortedKeys(unclaimed_);
}

RefInputReservationTable::RecordId
RefInputReservationTable::recordAt(std::size_t i) const
{
    return recordKeys().at(i);
}

RefInputReservationTable::RecordId
RefInputReservationTable::stagedAt(std::size_t i) const
{
    return stagedKeys().at(i);
}

RefInputReservationTable::RecordId
RefInputReservationTable::admit(std::uint64_t key, const Record &rec)
{
    QuantumRecord qr;
    qr.rec = rec;
    auto un = unclaimed_.find(key);
    if (un != unclaimed_.end()) {
        qr.buffered = std::move(un->second.flits);
        unclaimed_.erase(un);
    }
    records_.emplace(key, std::move(qr));
    return key;
}

void
RefInputReservationTable::erase(RecordId id)
{
    const Record &rec = records_.at(id).rec;
    if (rec.scheduled)
        schedIdx_[portIndex(rec.outPort)].erase(rec.departSlot);
    records_.erase(id);
}

void
RefInputReservationTable::arrive(std::uint64_t key, const BufferedFlit &bf,
                                 Cycle now, Cycle reissue_at)
{
    auto it = records_.find(key);
    if (it == records_.end()) {
        auto [un, staged] = unclaimed_.try_emplace(key);
        if (staged) {
            un->second.staging.firstArrival = now;
            un->second.staging.nextReissueAt = reissue_at;
        }
        un->second.flits.flits.push_back(bf);
        return;
    }
    it->second.buffered.flits.push_back(bf);
}

void
RefInputReservationTable::dropStaged(std::size_t i)
{
    unclaimed_.erase(stagedAt(i));
}

const RefInputReservationTable::FlitFifo &
RefInputReservationTable::fifo(RecordId id) const
{
    const auto it = records_.find(id);
    if (it != records_.end())
        return it->second.buffered;
    return unclaimed_.at(id).flits;
}

std::span<const RefInputReservationTable::BufferedFlit>
RefInputReservationTable::flits(RecordId id) const
{
    const FlitFifo &f = fifo(id);
    return {f.flits.data() + f.head, f.size()};
}

RefInputReservationTable::BufferedFlit
RefInputReservationTable::popFront(RecordId id)
{
    FlitFifo &f = records_.at(id).buffered;
    return f.flits[f.head++];
}

void
RefInputReservationTable::schedule(RecordId id, Slot slot)
{
    Record &rec = records_.at(id).rec;
    rec.departSlot = slot;
    rec.scheduled = true;
    schedIdx_[portIndex(rec.outPort)].emplace(slot, id);
}

std::vector<RefInputReservationTable::Departure>
RefInputReservationTable::departures(std::size_t out) const
{
    std::vector<Departure> deps;
    for (const auto &[slot, key] : schedIdx_[out])
        deps.push_back(Departure{slot, key});
    return deps;
}

} // namespace noc
