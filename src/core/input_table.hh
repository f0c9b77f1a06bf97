/**
 * @file
 * The LOFT input reservation table of one data-router input port: one
 * entry per quantum announced by a look-ahead flit, with its
 * reservation and its buffered data flits. Storage is flat:
 * a slab of entries with a free list, each owning quantumFlits slots
 * of one flit arena (a reused entry keeps its flit storage), plus
 * sorted indexes in the orders the router walks them: admitted
 * records and staged quanta (flits whose look-ahead is not admitted
 * yet; admission claims their entry in place) by key, and scheduled
 * records by (output, departure slot). An index holds at most one
 * element per slab entry, so growing the slab reserves every index
 * with it and no index grows on its own. The slab starts at a small
 * reserve and doubles to the port's high-water mark in warm-up;
 * pre-sizing to windowSlots() would cost ~0.9 GiB at 64x64, F = 256.
 */

#ifndef NOC_CORE_INPUT_TABLE_HH
#define NOC_CORE_INPUT_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "net/flit.hh"
#include "net/topology.hh"
#include "sim/types.hh"

namespace noc
{

class InputReservationTable
{
  public:
    using RecordId = std::uint32_t;

    /** A buffered data flit and which physical buffer holds it. */
    struct BufferedFlit
    {
        Flit flit;
        bool spec = false;

        bool operator==(const BufferedFlit &) const = default;
    };

    /** Reservation of one admitted quantum. */
    struct Record
    {
        /** The leading look-ahead flit (forwarded once scheduled). */
        LookaheadFlit la;
        std::uint32_t expectedFlits = 0;
        /** First cycle the look-ahead may request output scheduling
         *  (after the look-ahead router pipeline). */
        Cycle schedulableAt = 0;
        Port outPort = Port::Local;
        Slot arrivalSlot = 0;
        Slot departSlot = kNeverCycle;
        bool scheduled = false;
        std::uint32_t forwardedFlits = 0;
        /** Downstream buffer choice, sticky from the first flit:
         *  started at its slot -> non-speculative, early -> spec. */
        bool sendSpec = false;

        bool operator==(const Record &) const = default;
    };

    /** Recovery bookkeeping of a staged quantum: re-issue its
     *  look-ahead if it never shows up (lost to a fault). */
    struct Staging
    {
        Cycle firstArrival = 0;
        std::uint32_t reissues = 0;
        /** Timeout already reported as a detected look-ahead loss. */
        bool detected = false;
        /** Next recovery attempt (first: firstArrival + timeout). */
        Cycle nextReissueAt = kNeverCycle;

        bool operator==(const Staging &) const = default;
    };

    /** Departure-index entry of a scheduled record. */
    struct Departure
    {
        Slot slot;
        RecordId rec;
        Port out;
    };

    /** An empty table without storage (assign a sized one to use). */
    InputReservationTable() = default;
    explicit InputReservationTable(std::uint32_t quantum_flits);

    /// @name Admitted records, in key order
    /// @{
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    bool contains(std::uint64_t key) const;
    RecordId recordAt(std::size_t i) const { return records_[i].rec; }
    /** Admit @p rec under @p key (not admitted yet), claiming the
     *  flits staged under the key, if any. */
    RecordId admit(std::uint64_t key, const Record &rec);
    /** Release an admitted record, unscheduling it first. */
    void erase(RecordId id);
    /// @}

    Record &record(RecordId id) { return slab_[id].rec; }
    const Record &record(RecordId id) const { return slab_[id].rec; }
    std::uint64_t key(RecordId id) const { return slab_[id].key; }

    /**
     * A data flit arrived: buffer it with its admitted record, or stage
     * it under its key until the look-ahead is admitted. A newly staged
     * quantum starts its recovery timer at @p now / @p reissue_at.
     */
    void arrive(std::uint64_t key, const BufferedFlit &bf, Cycle now,
                Cycle reissue_at);

    /// @name Staged quanta, in key order
    /// @{
    bool hasStaged() const { return !staged_.empty(); }
    std::size_t stagedCount() const { return staged_.size(); }
    RecordId stagedAt(std::size_t i) const { return staged_[i].rec; }
    Staging &staging(RecordId id) { return slab_[id].staging; }
    /** Release the i-th staged quantum (its flits are discarded). */
    void dropStaged(std::size_t i);
    /// @}

    /// @name Buffered flits of a record or staged quantum
    /// @{
    std::size_t buffered(RecordId id) const
    {
        return slab_[id].tail - slab_[id].head;
    }
    /** Buffered flits, oldest first. */
    std::span<const BufferedFlit> flits(RecordId id) const;
    BufferedFlit popFront(RecordId id);
    /// @}

    /// @name Departure index
    /// @{
    /** Book admitted record @p id to depart at @p slot. */
    void schedule(RecordId id, Slot slot);
    /** Scheduled records leaving through output @p out, by slot. */
    std::span<const Departure> departures(std::size_t out) const;
    /// @}

  private:
    /** Sorted-index entry: a key and the slab entry holding it. */
    struct KeyRef
    {
        std::uint64_t key;
        RecordId rec;
    };

    struct Entry
    {
        Record rec;
        Staging staging;
        std::uint64_t key = 0;
        /** Buffered flits: arena segment positions [head, tail). */
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
    };

    /** Slab entries reserved at construction. */
    static constexpr std::uint32_t kInitialEntries = 16;

    RecordId allocate();
    void release(RecordId id);
    void grow();
    /** Position of @p rec's (output, departure slot) in departures_,
     *  and whether an entry for that slot is there already. */
    std::pair<std::vector<Departure>::iterator, bool>
    departureAt(const Record &rec);

    std::uint32_t quantumFlits_ = 0;
    std::vector<Entry> slab_;
    std::vector<RecordId> free_;
    /** quantumFlits_ flits per slab entry. */
    std::vector<BufferedFlit> arena_;
    std::vector<KeyRef> records_;
    std::vector<KeyRef> staged_;
    /** Sorted by (out, slot). */
    std::vector<Departure> departures_;
};

} // namespace noc

#endif // NOC_CORE_INPUT_TABLE_HH
