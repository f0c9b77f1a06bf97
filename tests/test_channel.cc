/**
 * @file
 * Unit tests for the pipelined channel.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/channel.hh"

namespace noc
{
namespace
{

TEST(Channel, NotReadyBeforeLatency)
{
    Channel<int> ch(3);
    ch.send(10, 42);
    EXPECT_FALSE(ch.ready(10));
    EXPECT_FALSE(ch.ready(12));
    EXPECT_TRUE(ch.ready(13));
    EXPECT_EQ(ch.receive(13), 42);
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, FifoOrder)
{
    Channel<int> ch(1);
    ch.send(0, 1);
    ch.send(1, 2);
    ch.send(2, 3);
    EXPECT_EQ(ch.receive(5), 1);
    EXPECT_EQ(ch.receive(5), 2);
    EXPECT_EQ(ch.receive(5), 3);
}

TEST(Channel, TryReceiveReturnsNulloptWhenEmpty)
{
    Channel<int> ch(1);
    EXPECT_FALSE(ch.tryReceive(100).has_value());
    ch.send(100, 7);
    EXPECT_FALSE(ch.tryReceive(100).has_value());
    auto v = ch.tryReceive(101);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
}

TEST(Channel, PeekDoesNotConsume)
{
    Channel<int> ch(1);
    ch.send(0, 5);
    EXPECT_EQ(ch.peek(1), 5);
    EXPECT_EQ(ch.peek(1), 5);
    EXPECT_EQ(ch.receive(1), 5);
}

TEST(Channel, InFlightCount)
{
    Channel<int> ch(4);
    EXPECT_EQ(ch.inFlightCount(), 0u);
    ch.send(0, 1);
    ch.send(0, 2);
    EXPECT_EQ(ch.inFlightCount(), 2u);
    (void)ch.receive(4);
    EXPECT_EQ(ch.inFlightCount(), 1u);
}

TEST(Channel, MinimumLatencyIsOne)
{
    // A same-cycle channel would break the tick-order independence
    // guarantee; the constructor must reject it.
    EXPECT_DEATH(Channel<int>(0), "latency");
}

#if LOFT_AUDIT_ENABLED

TEST(Channel, DeferredFlushKeepsDeliveryOrder)
{
    // A fault re-delivery due far ahead is already in flight when
    // earlier-due values are flushed: the barrier flush must insert
    // them by delivery time, same-time values in send order.
    Channel<int> ch(1);
    std::vector<PendingPort *> dirty;
    par::ctx().dirty = &dirty;
    ch.setConcurrent(true);
    ch.deliverAt(60, 1); // cycle 10: the resync horizon
    ch.send(10, 2);      // due 11
    ch.flushPending();
    ch.send(11, 3);      // due 12
    ch.deliverAt(12, 4); // due 12, after 3
    ch.flushPending();
    par::ctx().dirty = nullptr;
    ch.setConcurrent(false);

    EXPECT_EQ(ch.tryReceive(11), std::optional<int>(2));
    EXPECT_EQ(ch.tryReceive(12), std::optional<int>(3));
    EXPECT_EQ(ch.tryReceive(12), std::optional<int>(4));
    EXPECT_FALSE(ch.ready(59));
    EXPECT_EQ(ch.tryReceive(60), std::optional<int>(1));
}

#endif // LOFT_AUDIT_ENABLED

TEST(Channel, ReceiveWithoutReadyPanics)
{
    Channel<int> ch(2);
    ch.send(0, 9);
    EXPECT_DEATH((void)ch.receive(1), "nothing deliverable");
}

} // namespace
} // namespace noc
