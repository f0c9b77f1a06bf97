/**
 * @file
 * Differential fuzz of the LOFT input reservation table against the
 * test-only reference (tests/reference/ref_input_table.*), the hash-map
 * table the data router kept before the flat rewrite.
 *
 * Each case plays one input port of a data router: look-ahead flits
 * are admitted (up to the windowSlots() capacity, with duplicates under
 * recovery), data flits arrive before and after their admission (up to
 * the central buffer depth), admitted records are scheduled (slots out
 * of order, sometimes repeated), the earliest ready departure
 * of an output forwards a flit and a completed quantum is erased, the
 * scrub erases stale scheduled records in key order, and under recovery
 * the sweep walks the staged quanta in key order, dropping some and
 * re-admitting others. Both tables see the same operations, and after
 * every one they must agree on sizes, the key order of records and
 * staged quanta, every record, staging entry and buffered flit, and
 * every output's departure order. Cases cover F, quantum size, buffer
 * depth and recovery on/off; seeds come from mixSeed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/input_table.hh"
#include "core/loft_params.hh"
#include "reference/ref_input_table.hh"
#include "sim/rng.hh"

namespace noc
{
namespace
{

using Table = InputReservationTable;
using RefTable = RefInputReservationTable;

std::uint64_t
recordKey(FlowId f, std::uint64_t q)
{
    return (static_cast<std::uint64_t>(f) << 32) | (q & 0xffffffffull);
}

struct FuzzCase
{
    std::uint32_t frameFlits;
    std::uint32_t quantumFlits;
    std::uint32_t bufferFrames; ///< central buffer = bufferFrames x F
    bool recovery;
    std::uint64_t seed;

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "F=" << frameFlits << " q=" << quantumFlits
           << " buffer=" << bufferFrames << "F recovery=" << recovery
           << " seed=" << seed;
        return os.str();
    }
};

/** One quantum of the driven traffic. */
struct Quantum
{
    FlowId flow;
    std::uint64_t quantumNo;
    std::uint32_t flits;
    std::uint32_t arrived = 0;
    /** Look-ahead admitted at least once (or given up on). */
    bool announced = false;
};

class Fuzzer
{
  public:
    explicit Fuzzer(const FuzzCase &c)
        : c_(c), table_(c.quantumFlits), rng_(c.seed)
    {
        LoftParams p;
        p.frameSizeFlits = c.frameFlits;
        p.quantumFlits = c.quantumFlits;
        capacity_ = p.windowSlots();
        bufferFlits_ = c.bufferFrames * c.frameFlits;
    }

    void
    run(std::size_t ops)
    {
        for (std::size_t i = 0; i < ops; ++i) {
            now_ += rng_.randRange(3);
            const std::uint64_t op = rng_.randRange(c_.recovery ? 9 : 7);
            switch (op) {
              case 0: newQuantum(); break;
              case 1: admitWaiting(); break;
              case 2:
              case 3: arrive(); break;
              case 4: schedule(); break;
              case 5: forward(); break;
              case 6: scrub(); break;
              case 7: duplicate(); break;
              default: recoverySweep(); break;
            }
            SCOPED_TRACE(testing::Message() << "op " << i << " kind " << op);
            compare();
            if (testing::Test::HasFailure())
                return;
        }
    }

  private:
    Table::Record
    makeRecord(const Quantum &q, std::uint32_t flits)
    {
        Table::Record rec;
        rec.la.flow = q.flow;
        rec.la.quantumNo = q.quantumNo;
        rec.la.quantumFlits = flits;
        rec.la.departureSlot = now_ / c_.quantumFlits;
        rec.expectedFlits = flits;
        rec.schedulableAt = now_ + rng_.randRange(4);
        rec.outPort = static_cast<Port>(rng_.randRange(kNumPorts));
        rec.arrivalSlot = rec.la.departureSlot + 1;
        return rec;
    }

    void
    admit(const Quantum &q, std::uint32_t flits)
    {
        const std::uint64_t key = recordKey(q.flow, q.quantumNo);
        const Table::Record rec = makeRecord(q, flits);
        table_.admit(key, rec);
        ref_.admit(key, rec);
    }

    /** A new quantum whose look-ahead arrives now. */
    void
    newQuantum()
    {
        const auto flow = static_cast<FlowId>(rng_.randRange(kFlows));
        Quantum q{flow, nextQuantum_[flow]++,
                  1 + static_cast<std::uint32_t>(
                          rng_.randRange(c_.quantumFlits))};
        quanta_.push_back(q);
        admitWaiting();
    }

    /** Admit the oldest look-ahead still waiting for table space. */
    void
    admitWaiting()
    {
        for (Quantum &q : quanta_) {
            if (q.announced)
                continue;
            if (table_.size() >= capacity_)
                return; // full table back-pressures the look-ahead
            const std::uint64_t key = recordKey(q.flow, q.quantumNo);
            ASSERT_EQ(table_.contains(key), ref_.contains(key));
            if (!table_.contains(key))
                admit(q, q.flits);
            q.announced = true;
            return;
        }
    }

    /** Under recovery, a look-ahead raced its re-issue. */
    void
    duplicate()
    {
        if (table_.empty())
            return;
        const std::size_t i = rng_.randRange(table_.size());
        const std::uint64_t key = table_.key(table_.recordAt(i));
        ASSERT_TRUE(table_.contains(key));
        ASSERT_TRUE(ref_.contains(key));
    }

    void
    arrive()
    {
        if (quanta_.empty() || buffered_ >= bufferFlits_)
            return;
        Quantum &q = quanta_[rng_.randRange(quanta_.size())];
        if (q.arrived == q.flits)
            return;
        Table::BufferedFlit bf;
        bf.flit.flow = q.flow;
        bf.flit.quantum = q.quantumNo;
        bf.flit.flitNo = q.quantumNo * c_.quantumFlits + q.arrived;
        bf.flit.quantumLast = q.arrived + 1 == q.flits;
        bf.flit.type = bf.flit.quantumLast ? FlitType::Tail : FlitType::Body;
        bf.spec = rng_.chance(0.25);
        ++q.arrived;
        ++buffered_;
        const std::uint64_t key = recordKey(q.flow, q.quantumNo);
        const Cycle reissue_at = now_ + 16;
        table_.arrive(key, bf, now_, reissue_at);
        ref_.arrive(key, bf, now_, reissue_at);
    }

    void
    schedule()
    {
        std::vector<Table::RecordId> waiting;
        for (std::size_t i = 0; i < table_.size(); ++i)
            if (!table_.record(table_.recordAt(i)).scheduled)
                waiting.push_back(table_.recordAt(i));
        if (waiting.empty())
            return;
        const Table::RecordId id = waiting[rng_.randRange(waiting.size())];
        // Grants land anywhere in a sliding window, so they arrive out
        // of slot order, and a repeat exercises the index's
        // one-entry-per-slot rule.
        nextSlot_ += rng_.randRange(3);
        const Slot slot = nextSlot_ + rng_.randRange(16);
        table_.schedule(id, slot);
        ref_.schedule(table_.key(id), slot);
    }

    /** The earliest departure of a random output with data sends one
     *  flit; a quantum whose last flit left is erased. */
    void
    forward()
    {
        const std::size_t out = rng_.randRange(kNumPorts);
        for (const Table::Departure &d : table_.departures(out)) {
            if (table_.buffered(d.rec) == 0)
                continue;
            const std::uint64_t key = table_.key(d.rec);
            const Table::BufferedFlit a = table_.popFront(d.rec);
            const Table::BufferedFlit b = ref_.popFront(key);
            ASSERT_EQ(a, b);
            --buffered_;
            Table::Record &rec = table_.record(d.rec);
            Table::Record &ref_rec = ref_.record(key);
            if (rec.forwardedFlits == 0)
                rec.sendSpec = ref_rec.sendSpec = a.spec;
            ++rec.forwardedFlits;
            ++ref_rec.forwardedFlits;
            if (rec.forwardedFlits == rec.expectedFlits) {
                const Table::RecordId id = d.rec;
                table_.erase(id);
                ref_.erase(key);
            }
            return;
        }
    }

    /** Erase scheduled records without data, in key order. */
    void
    scrub()
    {
        for (std::size_t i = 0; i < table_.size();) {
            const Table::RecordId id = table_.recordAt(i);
            const std::uint64_t key = table_.key(id);
            ASSERT_EQ(key, ref_.recordAt(i));
            const Table::Record &rec = table_.record(id);
            const bool stale = rec.scheduled && table_.buffered(id) == 0 &&
                               rec.forwardedFlits < rec.expectedFlits &&
                               rng_.chance(0.5);
            if (!stale) {
                ++i;
                continue;
            }
            table_.erase(id);
            ref_.erase(key);
        }
    }

    /** Walk the staged quanta in key order: drop, re-admit or back off. */
    void
    recoverySweep()
    {
        for (std::size_t i = 0; i < table_.stagedCount();) {
            const Table::RecordId id = table_.stagedAt(i);
            const std::uint64_t key = table_.key(id);
            ASSERT_EQ(key, ref_.stagedAt(i));
            const auto flits = table_.flits(id);
            const bool complete = flits.back().flit.quantumLast ||
                                  flits.size() >= c_.quantumFlits;
            const std::uint64_t choice = rng_.randRange(3);
            if (complete && choice == 0) {
                buffered_ -= flits.size();
                table_.dropStaged(i);
                ref_.dropStaged(i);
                continue;
            }
            if (complete && choice == 1 && table_.size() < capacity_) {
                const Quantum q{static_cast<FlowId>(key >> 32),
                                flits.front().flit.quantum,
                                static_cast<std::uint32_t>(flits.size())};
                admit(q, q.flits);
                continue;
            }
            Table::Staging &s = table_.staging(id);
            Table::Staging &r = ref_.staging(key);
            s.detected = r.detected = true;
            ++s.reissues;
            ++r.reissues;
            s.nextReissueAt = r.nextReissueAt = now_ + 8;
            ++i;
        }
    }

    void
    compare()
    {
        ASSERT_EQ(table_.size(), ref_.size());
        ASSERT_EQ(table_.empty(), ref_.empty());
        ASSERT_EQ(table_.stagedCount(), ref_.stagedCount());
        ASSERT_EQ(table_.hasStaged(), ref_.hasStaged());

        const std::vector<std::uint64_t> keys = ref_.recordKeys();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const Table::RecordId id = table_.recordAt(i);
            ASSERT_EQ(table_.key(id), keys[i]) << "record " << i;
            ASSERT_EQ(table_.record(id), ref_.record(keys[i]));
            expectSameFlits(id, keys[i]);
        }
        const std::vector<std::uint64_t> staged = ref_.stagedKeys();
        for (std::size_t i = 0; i < staged.size(); ++i) {
            const Table::RecordId id = table_.stagedAt(i);
            ASSERT_EQ(table_.key(id), staged[i]) << "staged " << i;
            ASSERT_EQ(table_.staging(id), ref_.staging(staged[i]));
            expectSameFlits(id, staged[i]);
        }
        for (std::size_t out = 0; out < kNumPorts; ++out) {
            const auto a = table_.departures(out);
            const auto b = ref_.departures(out);
            ASSERT_EQ(a.size(), b.size()) << "output " << out;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].slot, b[i].slot) << "output " << out;
                ASSERT_EQ(table_.key(a[i].rec), b[i].rec)
                    << "output " << out;
            }
        }
    }

    void
    expectSameFlits(Table::RecordId id, std::uint64_t key)
    {
        ASSERT_EQ(table_.buffered(id), ref_.buffered(key));
        const auto a = table_.flits(id);
        const auto b = ref_.flits(key);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "flit " << i;
    }

    static constexpr std::uint64_t kFlows = 4;

    FuzzCase c_;
    Table table_;
    RefTable ref_;
    Rng rng_;
    std::uint32_t capacity_ = 0;
    std::uint64_t bufferFlits_ = 0;
    std::uint64_t buffered_ = 0;
    Cycle now_ = 0;
    Slot nextSlot_ = 0;
    std::uint64_t nextQuantum_[kFlows] = {};
    std::vector<Quantum> quanta_;
};

using Param = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, bool>;

class InputTableFuzz : public testing::TestWithParam<Param>
{
};

TEST_P(InputTableFuzz, MatchesReference)
{
    const auto [frame, quantum, buffer, recovery] = GetParam();
    const FuzzCase c{frame, quantum, buffer, recovery,
                     mixSeed(0x1a7b1eull + frame,
                             quantum * 16 + buffer * 2 + recovery)};
    SCOPED_TRACE(c.describe());
    Fuzzer(c).run(4000);
}

INSTANTIATE_TEST_SUITE_P(
    Tables, InputTableFuzz,
    testing::Combine(testing::Values(8u, 32u, 256u),
                     testing::Values(1u, 2u, 4u), testing::Values(1u, 2u),
                     testing::Bool()),
    [](const testing::TestParamInfo<Param> &info) {
        std::ostringstream os;
        os << "F" << std::get<0>(info.param) << "_Q"
           << std::get<1>(info.param) << "_B" << std::get<2>(info.param)
           << (std::get<3>(info.param) ? "_Recovery" : "_NoRecovery");
        return os.str();
    });

TEST(InputTable, StagedFlitsAreClaimedInPlace)
{
    Table t(2);
    Table::BufferedFlit bf;
    bf.flit.flow = 3;
    bf.flit.quantum = 7;
    t.arrive(recordKey(3, 7), bf, 10, 42);
    ASSERT_EQ(t.stagedCount(), 1u);
    const Table::RecordId staged = t.stagedAt(0);
    EXPECT_EQ(t.staging(staged).firstArrival, 10u);
    EXPECT_EQ(t.staging(staged).nextReissueAt, 42u);

    const Table::RecordId id = t.admit(recordKey(3, 7), Table::Record{});
    EXPECT_EQ(id, staged);
    EXPECT_FALSE(t.hasStaged());
    EXPECT_EQ(t.size(), 1u);
    ASSERT_EQ(t.buffered(id), 1u);
    EXPECT_EQ(t.popFront(id), bf);
}

TEST(InputTableDeathTest, QuantumOverflowPanics)
{
    Table t(2);
    Table::BufferedFlit bf;
    bf.flit.flow = 1;
    bf.flit.quantum = 5;
    t.arrive(recordKey(1, 5), bf, 0, 0);
    t.arrive(recordKey(1, 5), bf, 0, 0);
    EXPECT_DEATH(t.arrive(recordKey(1, 5), bf, 0, 0),
                 "buffers more than 2 flits");
}

} // namespace
} // namespace noc
