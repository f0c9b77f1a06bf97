#include "core/input_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace noc
{

InputReservationTable::InputReservationTable(std::uint32_t quantum_flits)
    : quantumFlits_(quantum_flits)
{
    grow();
}

void
InputReservationTable::grow()
{
    const std::size_t old_n = slab_.size();
    const std::size_t n = old_n ? 2 * old_n : kInitialEntries;
    slab_.resize(n);
    arena_.resize(n * quantumFlits_);
    free_.reserve(n);
    records_.reserve(n);
    staged_.reserve(n);
    departures_.reserve(n);
    for (std::size_t i = n; i-- > old_n;)
        free_.push_back(static_cast<RecordId>(i));
}

InputReservationTable::RecordId
InputReservationTable::allocate()
{
    if (free_.empty())
        grow();
    const RecordId id = free_.back();
    free_.pop_back();
    return id;
}

void
InputReservationTable::release(RecordId id)
{
    slab_[id].head = 0;
    slab_[id].tail = 0;
    free_.push_back(id);
}

bool
InputReservationTable::contains(std::uint64_t key) const
{
    return std::ranges::binary_search(records_, key, {}, &KeyRef::key);
}

// loft-tidy: steady-state-hot
InputReservationTable::RecordId
InputReservationTable::admit(std::uint64_t key, const Record &rec)
{
    RecordId id;
    const auto st = std::ranges::lower_bound(staged_, key, {}, &KeyRef::key);
    if (st != staged_.end() && st->key == key) {
        id = st->rec; // claim the staged flits in place
        staged_.erase(st);
    } else {
        id = allocate();
    }
    slab_[id].rec = rec;
    slab_[id].key = key;
    // loft-tidy: pooled(reserved to the slab's capacity in grow())
    records_.emplace(std::ranges::lower_bound(records_, key, {}, &KeyRef::key),
                     KeyRef{key, id});
    return id;
}

void
InputReservationTable::erase(RecordId id)
{
    const Entry &e = slab_[id];
    if (const auto [d, found] = departureAt(e.rec); e.rec.scheduled && found)
        departures_.erase(d);
    const auto it = std::ranges::lower_bound(records_, e.key, {}, &KeyRef::key);
    if (it != records_.end() && it->key == e.key)
        records_.erase(it);
    release(id);
}

// loft-tidy: steady-state-hot
void
InputReservationTable::arrive(std::uint64_t key, const BufferedFlit &bf,
                              Cycle now, Cycle reissue_at)
{
    RecordId id;
    const auto r = std::ranges::lower_bound(records_, key, {}, &KeyRef::key);
    if (r != records_.end() && r->key == key) {
        id = r->rec;
    } else {
        const auto st =
            std::ranges::lower_bound(staged_, key, {}, &KeyRef::key);
        if (st != staged_.end() && st->key == key) {
            id = st->rec;
        } else {
            const auto at = st - staged_.begin(); // allocate() may grow
            id = allocate();
            slab_[id].key = key;
            slab_[id].staging = Staging{now, 0, false, reissue_at};
            // loft-tidy: pooled(reserved to the slab's capacity in grow())
            staged_.emplace(staged_.begin() + at, KeyRef{key, id});
        }
    }
    Entry &e = slab_[id];
    if (e.tail == quantumFlits_)
        panic("input reservation table: flow %u quantum %llu buffers "
              "more than %u flits", bf.flit.flow,
              static_cast<unsigned long long>(bf.flit.quantum),
              quantumFlits_);
    arena_[std::size_t{id} * quantumFlits_ + e.tail++] = bf;
}

void
InputReservationTable::dropStaged(std::size_t i)
{
    const RecordId id = staged_[i].rec;
    staged_.erase(staged_.begin() + static_cast<std::ptrdiff_t>(i));
    release(id);
}

std::span<const InputReservationTable::BufferedFlit>
InputReservationTable::flits(RecordId id) const
{
    const Entry &e = slab_[id];
    return {arena_.data() + std::size_t{id} * quantumFlits_ + e.head,
            e.tail - e.head};
}

InputReservationTable::BufferedFlit
InputReservationTable::popFront(RecordId id)
{
    Entry &e = slab_[id];
    return arena_[std::size_t{id} * quantumFlits_ + e.head++];
}

void
InputReservationTable::schedule(RecordId id, Slot slot)
{
    Record &rec = slab_[id].rec;
    rec.departSlot = slot;
    rec.scheduled = true;
    if (const auto [d, found] = departureAt(rec); !found)
        departures_.insert(d, Departure{slot, id, rec.outPort});
}

std::pair<std::vector<InputReservationTable::Departure>::iterator, bool>
InputReservationTable::departureAt(const Record &rec)
{
    const auto at = std::pair(rec.outPort, rec.departSlot);
    const auto d = std::ranges::lower_bound(
        departures_, at, {},
        [](const Departure &e) { return std::pair(e.out, e.slot); });
    return {d, d != departures_.end() && d->out == at.first &&
                   d->slot == at.second};
}

std::span<const InputReservationTable::Departure>
InputReservationTable::departures(std::size_t out) const
{
    const auto [first, last] = std::ranges::equal_range(
        departures_, static_cast<Port>(out), {}, &Departure::out);
    return {first, last};
}

} // namespace noc
