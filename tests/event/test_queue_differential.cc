/**
 * @file
 * Differential test of the event queue against a reference order.
 *
 * A seeded generator drives an EventQueue through every tier at once:
 * zero-delay (now-FIFO) events, equal timestamps, sorted inserts into
 * the active tick, the fine ring, the coarse ring and the overflow
 * heap beyond it. runUntil() gaps are interleaved with schedules from
 * outside the run into the gap and into every tier, and scenarios end
 * in a full drain, a reset() or destruction with entries pending.
 *
 * Chains under reserved sequence numbers are mixed in: a chain takes
 * a block of seqs when it starts, and each of its events schedules
 * its successor (scheduleReserved) only when it fires. Successors land
 * at exactly the current time, inside the active tick (the late run
 * or heap) or in any later tier.
 *
 * Every scheduled event is also recorded with its effective time and
 * its schedule index (a chain records all of its events, with
 * consecutive indices, when it starts). The queue must dispatch
 * exactly in the order a stable sort on (time, index) gives: the
 * executed events are always a prefix of that order. Pooled
 * (over-budget) captures are mixed in so CallbackPool::outstanding()
 * returning to 0 proves that reset() and destruction release every
 * pending callback.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "event/event_queue.h"

namespace astra {
namespace {

constexpr TimeNs kTick = EventQueue::kBucketWidthNs;
constexpr TimeNs kFineSpan = kTick * EventQueue::kNumBuckets;
constexpr TimeNs kCoarseSpan = kFineSpan * EventQueue::kNumBlocks;

class Harness
{
  public:
    Harness(EventQueue &eq, uint64_t seed, int budget)
        : eq_(eq), rng_(seed), budget_(budget)
    {
    }

    /** Schedule one event with a delay drawn from a random tier. */
    void
    scheduleRandom()
    {
        const TimeNs now = eq_.now();
        switch (rng_.uniformInt(0, 7)) {
          case 0: add(now); break; // zero delay
          case 1: // a shared 500 ns grid: many equal timestamps
            add(std::floor(now / 500.0 + double(rng_.uniformInt(1, 4))) *
                500.0);
            break;
          case 2:
            if (rng_.uniformInt(0, 1) == 0)
                add(now + rng_.uniform(0.0, kTick));
            else // a shared 16 ns grid: ties inside the active tick
                add(std::floor(now / 16.0 + double(rng_.uniformInt(1, 4))) *
                    16.0);
            break;
          case 3: add(now + rng_.uniform(0.0, kFineSpan)); break;
          case 4: add(now + rng_.uniform(kFineSpan, kCoarseSpan)); break;
          case 5:
            add(now + rng_.uniform(kCoarseSpan, 40.0 * kCoarseSpan));
            break;
          case 6: add(now + rng_.uniform(0.0, 8.0 * kCoarseSpan)); break;
          default: startChain(); break;
        }
    }

    /**
     * Start a chain of events under reserved seqs. Its head lies
     * strictly after now, within a tick or up to two blocks ahead.
     * Each successor follows its predecessor by zero (due at the
     * predecessor's firing time), by less than a tick (on or off the
     * 16 ns grid that ordinary events also use, so they tie), or by up
     * to a block or more.
     */
    void
    startChain()
    {
        const TimeNs now = eq_.now();
        Chain c;
        const size_t n = static_cast<size_t>(rng_.uniformInt(2, 24));
        TimeNs t = now + (rng_.uniformInt(0, 1) == 0
                              ? rng_.uniform(1.0, kTick)
                              : rng_.uniform(1.0, 2.0 * kFineSpan));
        for (size_t i = 0; i < n; ++i) {
            c.times.push_back(t);
            switch (rng_.uniformInt(0, 5)) {
              case 0:
              case 1: break; // equal time: the now-FIFO head
              case 2: t = std::floor(t / 16.0 + 1.0) * 16.0; break;
              case 3: t += rng_.uniform(0.0, kTick / 4.0); break;
              case 4: t += rng_.uniform(0.0, kFineSpan); break;
              default: t += rng_.uniform(0.0, 2.0 * kCoarseSpan); break;
            }
        }
        c.firstLabel = ref_.size();
        for (TimeNs when : c.times)
            ref_.push_back({when, ref_.size()});
        c.firstSeq = eq_.reserveSeqs(n);
        chains_.push_back(std::move(c));
        arm(chains_.size() - 1, 0);
    }

    /** Schedule event `k` of chain `id` under its reserved seq. */
    void
    arm(size_t id, size_t k)
    {
        const Chain &c = chains_[id];
        const TimeNs when = c.times[k];
        const uint64_t seq = c.firstSeq + k;
        if (rng_.uniformInt(0, 3) == 0) {
            std::array<uint64_t, 8> pad{};
            pad[6] = id;
            pad[7] = k;
            eq_.scheduleReserved(when, seq,
                                 [this, pad] { fireChain(pad[6], pad[7]); });
        } else {
            eq_.scheduleReserved(when, seq,
                                 [this, id, k] { fireChain(id, k); });
        }
    }

    /** Schedule at absolute `when`, recording the reference entry. */
    void
    add(TimeNs when)
    {
        const uint64_t label = ref_.size();
        ref_.push_back({std::max(when, eq_.now()), label});
        if (rng_.uniformInt(0, 3) == 0) {
            // Over the 48-byte inline budget: a pooled capture.
            std::array<uint64_t, 8> pad{};
            pad[7] = label;
            eq_.scheduleAt(when, [this, pad] { fire(pad[7]); });
        } else {
            eq_.scheduleAt(when, [this, label] { fire(label); });
        }
    }

    /** Executed labels must be a prefix of the reference order. */
    void
    expectPrefixOrder() const
    {
        std::vector<Ref> order = ref_;
        std::stable_sort(order.begin(), order.end(),
                         [](const Ref &a, const Ref &b) {
                             return a.when < b.when;
                         });
        ASSERT_LE(fired_.size(), order.size());
        for (size_t i = 0; i < fired_.size(); ++i)
            ASSERT_EQ(fired_[i], order[i].label) << "dispatch #" << i;
        for (size_t i = 0; i < fired_.size(); ++i)
            ASSERT_EQ(firedAt_[i], order[i].when) << "dispatch #" << i;
    }

    size_t scheduled() const { return ref_.size(); }
    size_t fired() const { return fired_.size(); }

  private:
    struct Ref
    {
        TimeNs when;
        uint64_t label;
    };

    struct Chain
    {
        std::vector<TimeNs> times;
        uint64_t firstLabel = 0;
        uint64_t firstSeq = 0;
    };

    /** Event `k` of chain `id` fires: arm its successor before or
     *  after the fan-out, which must not matter. */
    void
    fireChain(size_t id, size_t k)
    {
        const bool armFirst = rng_.uniformInt(0, 1) == 0;
        const bool last = k + 1 == chains_[id].times.size();
        if (armFirst && !last)
            arm(id, k + 1);
        fire(chains_[id].firstLabel + k);
        if (!armFirst && !last)
            arm(id, k + 1);
    }

    void
    fire(uint64_t label)
    {
        fired_.push_back(label);
        firedAt_.push_back(eq_.now());
        int fanout = static_cast<int>(rng_.uniformInt(0, 2));
        for (int i = 0; i < fanout && budget_ > 0; ++i, --budget_)
            scheduleRandom();
    }

    EventQueue &eq_;
    Rng rng_;
    int budget_;
    std::vector<Ref> ref_;
    std::deque<Chain> chains_;
    std::vector<uint64_t> fired_;
    std::vector<TimeNs> firedAt_;
};

/** Populate every tier, then advance through runUntil() gaps of every
 *  scale, scheduling into each gap (just after `until`, before the
 *  next pending event: the window must not have run ahead of the
 *  clock) and across all tiers in between. */
void
runGaps(EventQueue &eq, Harness &h, Rng &rng, int gaps)
{
    for (int i = 0; i < 256; ++i)
        h.scheduleRandom();
    const TimeNs steps[] = {3.0 * kTick, 0.7 * kFineSpan, 3.0 * kFineSpan,
                            0.4 * kCoarseSpan, 2.5 * kCoarseSpan};
    for (int g = 0; g < gaps; ++g) {
        const TimeNs until =
            eq.now() + steps[rng.uniformInt(0, 4)] * rng.uniform(0.5, 1.5);
        eq.runUntil(until);
        ASSERT_EQ(eq.now(), until);
        h.expectPrefixOrder();
        h.add(until + 0.5 * kTick);
        h.add(until + 0.5 * kTick); // equal timestamps in the gap
        for (int i = 0; i < 16; ++i)
            h.scheduleRandom();
    }
}

TEST(EventQueueDifferential, MatchesStableSortAcrossTiers)
{
    ASSERT_EQ(CallbackPool::outstanding(), 0u);
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        auto eq = std::make_unique<EventQueue>();
        Rng rng(seed * 7919);
        {
            Harness h(*eq, seed, 6000);
            runGaps(*eq, h, rng, 12);
            if (HasFatalFailure())
                return;
            switch (seed % 3) {
              case 0: // drain fully
                eq->run();
                h.expectPrefixOrder();
                EXPECT_EQ(h.fired(), h.scheduled());
                EXPECT_EQ(eq->executedEvents(), h.fired());
                EXPECT_TRUE(eq->empty());
                break;
              case 1: // reset with entries in every tier
                ASSERT_GT(eq->pending(), 0u);
                eq->reset();
                EXPECT_TRUE(eq->empty());
                EXPECT_EQ(CallbackPool::outstanding(), 0u);
                break;
              default: // destroy with entries in every tier
                ASSERT_GT(eq->pending(), 0u);
                eq.reset();
                EXPECT_EQ(CallbackPool::outstanding(), 0u);
                break;
            }
        }
        if (!eq)
            continue;
        // The queue (reset or drained) is reused: pooled chunks from
        // the first scenario must serve the second one correctly.
        eq->reset();
        Harness h(*eq, seed + 1000, 6000);
        runGaps(*eq, h, rng, 6);
        if (HasFatalFailure())
            return;
        eq->run();
        h.expectPrefixOrder();
        EXPECT_EQ(h.fired(), h.scheduled());
        EXPECT_EQ(CallbackPool::outstanding(), 0u);
    }
}

/** A reserved chain that re-arms itself every 8 ns: each successor
 *  lands in the active tick's late run or in the next tick. */
class Train
{
  public:
    Train(EventQueue &eq, TimeNs start, int length)
        : eq_(eq), seq_(eq.reserveSeqs(static_cast<size_t>(length))),
          left_(length)
    {
        arm(start);
    }

  private:
    void
    arm(TimeNs when)
    {
        --left_;
        eq_.scheduleReserved(when, seq_++, [this, when] {
            if (left_ > 0)
                arm(when + 8.0);
        });
    }

    EventQueue &eq_;
    uint64_t seq_;
    int left_;
};

TEST(EventQueueDifferential, FootprintFollowsLiveEvents)
{
    // Each round schedules a burst of kBurst events concentrated in a
    // different handful of fine or coarse buckets, then drains it.
    // Buckets that each kept their peak capacity would grow the
    // footprint round after round; pooled chunks keep it at the live
    // peak plus one partly filled chunk per bucket, plus the single
    // active vector (at most twice the largest bucket). Reserved-seq
    // trains run through every burst: they hold one pending event
    // each, so the late run they feed stays small.
    constexpr size_t kBurst = 16384;
    constexpr int kRounds = 24;
    constexpr int kTrains = 64;
    constexpr int kTrainLength = 256;
    const size_t entry_bytes = sizeof(TimeNs) + sizeof(uint64_t) +
                               sizeof(InlineEvent);
    const size_t chunk_bytes =
        EventQueue::kChunkEntries * entry_bytes + 2 * sizeof(void *);

    EventQueue eq;
    Rng rng(42);
    for (int r = 0; r < kRounds; ++r) {
        const bool coarse = r % 2 == 1;
        const TimeNs base = eq.now() +
                            (coarse ? kFineSpan * double(2 + r)
                                    : kTick * double(1 + 37 * r % 900));
        const TimeNs width = kTick * double(1 + r % 4);
        for (size_t i = 0; i < kBurst; ++i)
            eq.scheduleAt(base + rng.uniform(0.0, width), [] {});
        std::vector<std::unique_ptr<Train>> trains;
        for (int t = 0; t < kTrains; ++t)
            trains.push_back(std::make_unique<Train>(
                eq, base + rng.uniform(0.0, width), kTrainLength));
        eq.run();
    }
    const size_t bound = 3 * kBurst * entry_bytes +
                         (EventQueue::kNumBuckets + EventQueue::kNumBlocks) *
                             chunk_bytes;
    EXPECT_LE(eq.bytesInUse(), bound);
    EXPECT_EQ(eq.executedEvents(),
              (kBurst + kTrains * kTrainLength) * kRounds);
}

} // namespace
} // namespace astra
