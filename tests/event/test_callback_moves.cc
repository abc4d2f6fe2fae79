/**
 * @file
 * Move-count regression test for the event core's callback hand-off
 * (docs/eventcore.md, "Callback ownership").
 *
 * A closure whose move constructor counts is scheduled through every
 * tier the calendar queue has, and through a network send. Each case
 * asserts the exact number of times the closure was relocated between
 * being built and being invoked, so a by-value sink reintroduced on
 * the per-event path shows up as a failing count rather than as a few
 * percent of wall time. Copies (the closure is built from an lvalue,
 * which copies it into the InlineEvent) are not counted.
 *
 * The counts depend on the standard library's vector and heap
 * algorithms only where a case says so (the overflow heap).
 */
#include <gtest/gtest.h>

#include <utility>

#include "event/event_queue.h"
#include "network/analytical.h"

namespace astra {
namespace {

/** Closure that counts its move constructions and its invocations. */
struct CountingClosure
{
    int *moves;
    int *calls;

    CountingClosure(int *m, int *c) : moves(m), calls(c) {}
    CountingClosure(const CountingClosure &) = default;
    CountingClosure(CountingClosure &&o) noexcept
        : moves(o.moves), calls(o.calls)
    {
        ++*moves;
    }

    void operator()() { ++*calls; }
};

/** Moves of one callback scheduled `delay` ns ahead on a fresh queue,
 *  from the schedule() call to its invocation. */
int
movesForDelay(TimeNs delay)
{
    int moves = 0;
    int calls = 0;
    EventQueue eq;
    eq.reserve(16); // no FIFO growth inside the measurement.
    CountingClosure closure(&moves, &calls);
    eq.schedule(delay, closure);
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(eq.now(), delay);
    return moves;
}

constexpr TimeNs kBlockNs =
    EventQueue::kBucketWidthNs * double(EventQueue::kNumBuckets);
constexpr TimeNs kWindowNs = kBlockNs * double(EventQueue::kNumBlocks);

TEST(CallbackMoves, AtNow)
{
    // schedule() -> now-FIFO -> dispatch. With by-value sinks: 3.
    EXPECT_EQ(movesForDelay(0.0), 2);
}

TEST(CallbackMoves, InsideCurrentBlock)
{
    // schedule() -> fine bucket -> active vector -> dispatch. With
    // by-value sinks, an Entry temporary and the now-FIFO hop: 6.
    EXPECT_EQ(movesForDelay(100.0), 3);
}

TEST(CallbackMoves, LaterBlock)
{
    // schedule() -> coarse bucket -> fine bucket (block pour) ->
    // active vector -> dispatch. With by-value sinks: 7.
    EXPECT_EQ(movesForDelay(3.0 * kBlockNs + 100.0), 4);
}

TEST(CallbackMoves, BeyondCoarseWindow)
{
    // schedule() -> overflow heap (emplace, then libstdc++ push_heap's
    // three moves through its hole, even for one element) ->
    // migration out of the heap -> fine bucket -> active vector ->
    // dispatch. With by-value sinks: 11.
    EXPECT_EQ(movesForDelay(2.0 * kWindowNs + 100.0), 7);
}

TEST(CallbackMoves, AnalyticalSend)
{
    // SendHandlers -> simSend -> scheduleDelivery -> scheduleAt ->
    // fine bucket -> active vector -> dispatch. With by-value sinks (a
    // move plus a destroy at every level): 8.
    int moves = 0;
    int calls = 0;
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    AnalyticalNetwork net(eq, topo);
    CountingClosure closure(&moves, &calls);
    SendHandlers h;
    h.onDelivered = closure;
    net.simSend(0, 1, 1000.0, 0, kNoTag, std::move(h));
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(moves, 3);
}

} // namespace
} // namespace astra
