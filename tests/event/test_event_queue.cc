/** @file Unit tests for the discrete-event simulation core. */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "event/event_queue.h"

namespace astra {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30.0, [&] { order.push_back(3); });
    eq.schedule(10.0, [&] { order.push_back(1); });
    eq.schedule(20.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 30.0);
}

TEST(EventQueue, StableForEqualTimestamps)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5.0, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<double> times;
    eq.schedule(1.0, [&] {
        times.push_back(eq.now());
        eq.schedule(2.0, [&] {
            times.push_back(eq.now());
            eq.schedule(3.0, [&] { times.push_back(eq.now()); });
        });
    });
    eq.run();
    ASSERT_EQ(times.size(), 3u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 3.0);
    EXPECT_DOUBLE_EQ(times[2], 6.0);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10.0, [&] { ++fired; });
    eq.schedule(20.0, [&] { ++fired; });
    eq.schedule(30.0, [&] { ++fired; });
    eq.runUntil(20.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(eq.now(), 20.0);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1.0, [&] { ++fired; });
    eq.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ZeroDelayFiresAtCurrentTime)
{
    EventQueue eq;
    eq.schedule(5.0, [&] {
        eq.schedule(0.0, [&] { EXPECT_DOUBLE_EQ(eq.now(), 5.0); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(double(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 42u);
}

TEST(EventQueue, ScheduleIntoGapAfterRunUntil)
{
    // runUntil() stopping inside a gap must not prevent later events
    // from being scheduled between `until` and the next pending event
    // (the bucket window has already advanced to the far event).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10.0, [&] { order.push_back(0); });
    eq.scheduleAt(1e9, [&] { order.push_back(3); });
    eq.runUntil(1000.0);
    EXPECT_DOUBLE_EQ(eq.now(), 1000.0);
    // Both inside the gap, one far beyond the original window.
    eq.scheduleAt(2000.0, [&] { order.push_back(1); });
    eq.scheduleAt(5e8, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 1e9);
}

TEST(EventQueue, ReserveDoesNotDisturbPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(3.0, [&] { ++fired; });
    eq.reserve(4096);
    eq.schedule(1.0, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10.0, [] {});
    eq.run();
    eq.reset();
    EXPECT_DOUBLE_EQ(eq.now(), 0.0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, ResetQueueReplaysInIdenticalOrder)
{
    // A queue reused via reset() (pooled chunks and capacities kept
    // from a first run) must execute a workload in the identical
    // order to a fresh queue.
    auto trace = [](bool reuse) {
        EventQueue eq;
        if (reuse) {
            for (int i = 0; i < 2048; ++i)
                eq.scheduleAt(700.0 * (i + 1), [] {});
            eq.run();
            eq.reset();
        }
        std::vector<int> order;
        for (int i = 0; i < 512; ++i) {
            TimeNs when = double((i * 7919) % 500) * 13.0;
            eq.scheduleAt(when, [&order, i] { order.push_back(i); });
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(trace(false), trace(true));
}

TEST(EventQueue, ReservedSuccessorDueNowLeadsTheEqualTimeRun)
{
    // The equal-time run at t = 100 is popped straight from the active
    // tick; a reserved successor due now must still precede the rest
    // of the run and everything scheduled at now, exactly where eager
    // scheduling (seq first + 1) would have put it.
    EventQueue eq;
    std::vector<int> order;
    const uint64_t first = eq.reserveSeqs(2);
    eq.scheduleReserved(100.0, first, [&] {
        order.push_back(0);
        eq.scheduleAt(eq.now(), [&] { order.push_back(4); });
        eq.scheduleReserved(eq.now(), first + 1,
                            [&] { order.push_back(1); });
    });
    eq.scheduleAt(100.0, [&] { order.push_back(2); });
    eq.scheduleAt(100.0, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/** The FatalError message scheduling `when` raises, or "" if none. */
std::string
rejection(EventQueue &eq, TimeNs when, bool reserved = false)
{
    try {
        if (reserved)
            eq.scheduleReserved(when, eq.reserveSeqs(1), [] {});
        else
            eq.scheduleAt(when, [] {});
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(EventQueue, RejectsTimesBeyondTheCalendarRange)
{
    // Past ~5.9e20 ns the tick cast overflows int64 (undefined
    // behaviour), so such times, infinity and NaN are user errors that
    // name the time and the limit, not a panic about the window.
    EventQueue eq;
    const std::string limit = "2.95148e+20";
    std::string msg = rejection(eq, 1e21);
    EXPECT_NE(msg.find("1e+21"), std::string::npos) << msg;
    EXPECT_NE(msg.find(limit), std::string::npos) << msg;
    msg = rejection(eq, std::numeric_limits<double>::infinity());
    EXPECT_NE(msg.find("inf"), std::string::npos) << msg;
    msg = rejection(eq, std::nan(""));
    EXPECT_NE(msg.find("nan"), std::string::npos) << msg;
    EXPECT_NE(rejection(eq, EventQueue::kMaxTimeNs), "");
    EXPECT_NE(rejection(eq, 1e25, true), "");
    EXPECT_THROW(eq.schedule(EventQueue::kMaxTimeNs, [] {}), FatalError);
    EXPECT_THROW(eq.schedule(std::nan(""), [] {}), FatalError);
    EXPECT_TRUE(eq.empty());

    // The largest time below the limit is still an ordinary event.
    bool fired = false;
    const TimeNs last = std::nextafter(EventQueue::kMaxTimeNs, 0.0);
    eq.scheduleAt(last, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_DOUBLE_EQ(eq.now(), last);
}

} // namespace
} // namespace astra
