/**
 * @file
 * Test-only reference: the LOFT input reservation table as the data
 * router kept it before the table moved to flat arrays: the admitted
 * records and the staged quanta in hash maps keyed by recordKey, each
 * quantum's buffered flits in its own vector with a consumed-head
 * index, and per output a slot-ordered map of scheduled keys. Key-order
 * walks sort the hash maps' keys, as the router's recovery and scrub
 * sweeps did. It exposes noc::InputReservationTable's API with the key
 * itself as the record id, so the differential fuzz in
 * test_input_table_fuzz.cc can drive both through the same operations.
 */

#ifndef NOC_TESTS_REF_INPUT_TABLE_HH
#define NOC_TESTS_REF_INPUT_TABLE_HH

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/input_table.hh"

namespace noc
{

class RefInputReservationTable
{
  public:
    using RecordId = std::uint64_t;
    using BufferedFlit = InputReservationTable::BufferedFlit;
    using Record = InputReservationTable::Record;
    using Staging = InputReservationTable::Staging;

    struct Departure
    {
        Slot slot;
        RecordId rec;
    };

    /** Admitted and staged keys, sorted (the sweeps' walk order). */
    std::vector<std::uint64_t> recordKeys() const;
    std::vector<std::uint64_t> stagedKeys() const;

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    bool contains(std::uint64_t key) const { return records_.count(key); }
    RecordId recordAt(std::size_t i) const;
    RecordId admit(std::uint64_t key, const Record &rec);
    void erase(RecordId id);

    Record &record(RecordId id) { return records_.at(id).rec; }
    std::uint64_t key(RecordId id) const { return id; }

    void arrive(std::uint64_t key, const BufferedFlit &bf, Cycle now,
                Cycle reissue_at);

    bool hasStaged() const { return !unclaimed_.empty(); }
    std::size_t stagedCount() const { return unclaimed_.size(); }
    RecordId stagedAt(std::size_t i) const;
    Staging &staging(RecordId id) { return unclaimed_.at(id).staging; }
    void dropStaged(std::size_t i);

    std::size_t buffered(RecordId id) const { return fifo(id).size(); }
    std::span<const BufferedFlit> flits(RecordId id) const;
    BufferedFlit popFront(RecordId id);

    void schedule(RecordId id, Slot slot);
    std::vector<Departure> departures(std::size_t out) const;

  private:
    /** One quantum's buffered flits with a consumed-head index. */
    struct FlitFifo
    {
        std::vector<BufferedFlit> flits;
        std::uint32_t head = 0;

        std::size_t size() const { return flits.size() - head; }
    };

    struct QuantumRecord
    {
        Record rec;
        FlitFifo buffered;
    };

    struct UnclaimedQuantum
    {
        FlitFifo flits;
        Staging staging;
    };

    const FlitFifo &fifo(RecordId id) const;

    std::unordered_map<std::uint64_t, QuantumRecord> records_;
    std::unordered_map<std::uint64_t, UnclaimedQuantum> unclaimed_;
    std::array<std::map<Slot, std::uint64_t>, kNumPorts> schedIdx_;
};

} // namespace noc

#endif // NOC_TESTS_REF_INPUT_TABLE_HH
