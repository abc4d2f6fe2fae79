/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue instance drives a simulation: components
 * schedule callbacks at absolute or relative simulated times and the
 * queue executes them in (time, insertion-order) order. This is the
 * substrate below the network backends, the memory models, and the
 * graph-based execution engine, mirroring the event queue in the
 * original ASTRA-sim system layer (Fig. 1(c)).
 *
 * Implementation (see docs/eventcore.md for the design note): a
 * two-level calendar queue instead of a binary heap. Time is cut into
 * fixed 64 ns ticks, and ticks into aligned blocks of kNumBuckets
 * ticks.
 *
 *  - A "now FIFO" holds events scheduled at exactly the current time.
 *    Zero-delay scheduling (deferred completions, loopback sends, the
 *    simRecv eager path) is the hottest pattern in the simulator and
 *    costs O(1) push/pop with no ordering work at all, because FIFO
 *    order *is* (time, insertion-order) order for equal timestamps.
 *  - The fine ring has one bucket per tick of the current block.
 *    Scheduling into it is an O(1) append; a bucket is moved into one
 *    contiguous vector and sorted once when the clock reaches it.
 *    Events scheduled into that active tick afterwards are appended
 *    to a run beside it while they come in (time, seq) order, and go
 *    to a small min-heap otherwise; pops merge the three.
 *  - The coarse ring has one bucket per block for the next
 *    kNumBlocks - 1 blocks (~67 ms). Scheduling into it is an O(1)
 *    append; a block's bucket is poured into the fine ring once, when
 *    the clock enters the block.
 *  - Events beyond the coarse ring land in an overflow min-heap and
 *    migrate into the rings as blocks are entered.
 *
 * Every fine and coarse bucket is a list of fixed-size chunks drawn
 * from one free list shared by both rings, so the queue's footprint
 * follows the live event count rather than the sum of per-bucket
 * peaks. Occupancy bitmaps let the clock skip empty buckets a word at
 * a time.
 *
 * Determinism guarantee: events fire in strictly nondecreasing time,
 * and events with equal timestamps fire in insertion order, exactly as
 * the old binary-heap implementation documented. Which tier an event
 * waits in can never reorder events, because the queue always drains
 * the lowest tick fully ordered by (time, seq) before touching later
 * ticks, and tick order is consistent with time order.
 *
 * Reserved sequence numbers (reserveSeqs() / scheduleReserved()) let
 * a component claim the seqs of a chain of future events up front and
 * insert each one only when its predecessor fires: the chain then
 * dispatches exactly where eager scheduling would have put it, while
 * only one of its events is pending at a time.
 */
#ifndef ASTRA_EVENT_EVENT_QUEUE_H_
#define ASTRA_EVENT_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "event/inline_event.h"

namespace astra {

namespace telemetry { class Monitor; }

/** Callback executed when an event fires. */
using EventCallback = InlineEvent;

/**
 * Optional self-profiling sink for an EventQueue (introspection layer,
 * docs/trace.md). When attached via setProfile(), the queue samples
 * its own shape while running:
 *
 *  - `depthHist[b]` counts samples (taken every kDepthSampleEvery
 *    executed events) whose pending-event count had bit-width b —
 *    i.e. a log2 histogram of queue depth over the run.
 *  - `bucketHist[b]` is a log2 histogram of active-bucket sizes at
 *    sort time (one entry per bucket activation): the per-activation
 *    sort cost the 64 ns tick keeps small.
 *  - When `timeCallbacks` is set, every kCallbackSampleEvery-th
 *    callback is wall-clocked and the total is extrapolated into
 *    `callbackWallSeconds` (sampled attribution: dispatch overhead
 *    stays bounded whatever the event rate).
 *
 * Both histograms are pure functions of the simulated event sequence
 * (deterministic); the wall figures are host measurements. Profiling
 * never alters scheduling order, so results are bit-identical with or
 * without a profile attached.
 */
struct QueueProfile
{
    static constexpr uint64_t kDepthSampleEvery = 1024;
    static constexpr uint64_t kCallbackSampleEvery = 64;

    std::array<uint64_t, 32> depthHist{};
    std::array<uint64_t, 32> bucketHist{};
    uint64_t depthSamples = 0;
    uint64_t bucketActivations = 0;
    bool timeCallbacks = false;
    double callbackWallSeconds = 0.0;
    uint64_t callbackSamples = 0;
};

/**
 * Two-level calendar discrete-event scheduler with pooled buckets.
 *
 * Events at equal timestamps fire in insertion order (stable), which
 * keeps simulations deterministic.
 */
class EventQueue
{
  public:
    /** Tick width. One tick should be comfortably below the typical
     *  event spacing created by link latencies (hundreds of ns), so
     *  that most dependent events land in later buckets; the rest go
     *  to the active tick's late parts. A power of two, so tick
     *  arithmetic is exact. */
    static constexpr TimeNs kBucketWidthNs = 64.0;

    /** Fine-ring buckets, i.e. ticks per block (power of two): one
     *  block spans ~65 us of simulated time. */
    static constexpr size_t kNumBuckets = 1024;

    /** Coarse-ring buckets (power of two): the rings together reach
     *  kNumBuckets * kNumBlocks ticks (~67 ms) ahead. */
    static constexpr size_t kNumBlocks = 1024;

    /** Entries per pooled chunk. */
    static constexpr size_t kChunkEntries = 32;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in nanoseconds. */
    TimeNs now() const { return now_; }

    /** Latest schedulable time, exclusive (2^68 ns, ~9,000 years):
     *  the calendar's tick arithmetic is exact below it. */
    static constexpr TimeNs kMaxTimeNs = kBucketWidthNs * 0x1p62;

    /** Schedule `cb` to fire `delay` ns after now; delay must be >= 0.
     *  Like every scheduling call, takes ownership of `cb` (moves from
     *  it) and throws FatalError for a time that is not finite or not
     *  below kMaxTimeNs. */
    void schedule(TimeNs delay, EventCallback &&cb);

    /** Schedule `cb` at absolute time `when` (>= now - kTimeEpsNs;
     *  earlier times within the tolerance clamp to now). */
    void scheduleAt(TimeNs when, EventCallback &&cb);

    /**
     * Reserve `n` consecutive sequence numbers for events that will be
     * scheduled later through scheduleReserved(); returns the first.
     * The block takes the place in (time, seq) order that `n` timed
     * scheduleAt() calls made right now would have taken.
     */
    uint64_t
    reserveSeqs(size_t n)
    {
        const uint64_t first = seq_;
        seq_ += n;
        return first;
    }

    /**
     * Schedule `cb` at absolute `when` (>= now - kTimeEpsNs) under a
     * sequence number from reserveSeqs(), each used once. An event due
     * at now() goes to the head of the now-FIFO, so it must precede
     * every other pending event at now(): it must be scheduled by the
     * running event's callback as that event's successor (seq + 1),
     * the only way a reserved chain reaches the current time.
     */
    void scheduleReserved(TimeNs when, uint64_t seq, EventCallback &&cb);

    /** Number of pending events. */
    size_t pending() const { return pending_; }

    /** True if no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Execute events until the queue drains; returns final time. */
    TimeNs run();

    /**
     * Execute events with time <= `until`; events beyond stay queued.
     * Returns the time of the last executed event (or `until`).
     */
    TimeNs runUntil(TimeNs until);

    /** Execute exactly one event if present; returns false when empty. */
    bool step();

    /** Total number of events executed so far (for speed reporting). */
    uint64_t executedEvents() const { return executed_; }

    /**
     * Drop all pending events (destroying their callbacks) and reset
     * the clock. Pooled chunks and container capacities are kept, so
     * a reused queue schedules without reallocating.
     */
    void reset();

    /** Pre-size the now-FIFO and the chunk pool for ~`events`
     *  pending events. */
    void reserve(size_t events);

    /** Attach (or detach, with nullptr) a self-profiling sink; the
     *  caller keeps ownership and the profile must outlive the runs
     *  it observes. Purely observational — see QueueProfile. */
    void setProfile(QueueProfile *profile) { prof_ = profile; }

    /**
     * Attach (or detach, with nullptr) a telemetry heartbeat monitor
     * (docs/observability.md). The dispatch loop decrements a
     * countdown per executed event and calls Monitor::poll() when it
     * hits zero, re-arming with the returned value — so the detached
     * cost is one null check and the attached cost one decrement.
     * Purely observational: polling never schedules events or alters
     * dispatch order.
     */
    void setMonitor(telemetry::Monitor *monitor);

    /**
     * Heap bytes held by the queue's containers, the late parts
     * included (telemetry footprint protocol, docs/observability.md):
     * capacity-based, so it is a deterministic function of the event
     * sequence, not of malloc. Pooled chunks count whether live or
     * free, so after a burst the figure stays at the burst's chunk
     * high-water mark.
     */
    size_t bytesInUse() const;

  private:
    struct Entry
    {
        TimeNs when = 0.0;
        uint64_t seq = 0;
        InlineEvent cb;
    };

    /** Pooled storage unit of a bucket: slots [0, size) are live. */
    struct Chunk
    {
        Chunk *next = nullptr;
        size_t size = 0;
        std::array<Entry, kChunkEntries> entries;
    };

    /** Append-only chunk list; empty when head is null. */
    struct Bucket
    {
        Chunk *head = nullptr;
        Chunk *tail = nullptr;
    };

    /** One occupancy bit per bucket of a ring. */
    template <size_t N> using Bitmap = std::array<uint64_t, N / 64>;

    static constexpr int64_t kRingTicks =
        static_cast<int64_t>(kNumBuckets);
    static constexpr int64_t kRingBlocks =
        static_cast<int64_t>(kNumBlocks);

    static int64_t
    tickOf(TimeNs when)
    {
        return static_cast<int64_t>(when * (1.0 / kBucketWidthNs));
    }

    /** tickOf() clamped to the int64 range (for runUntil bounds). */
    static int64_t tickLimitOf(TimeNs until);

    static int64_t blockOf(int64_t tick) { return tick / kRingTicks; }

    /** Queue a timed event (when > now_): into the late run or heap
     *  if it falls in the live active tick, else through place(). */
    void insertTimed(TimeNs when, uint64_t seq, InlineEvent &&cb);

    /** Write a timed event straight into its slot: the fine ring, the
     *  coarse ring or the overflow heap, by its block. Serves both
     *  scheduling and the block pour; never touches the active tick. */
    void place(TimeNs when, uint64_t seq, InlineEvent &&cb);

    /** The free slot at the end of `bucket`, taking a pooled chunk
     *  when the tail one is full. */
    Entry &appendSlot(Bucket &bucket);

    /** Hand every entry of `bucket` to `sink` (as Entry &) and return
     *  its chunks to the pool, leaving the bucket empty. The sink
     *  moves the callback out; the slot keeps the empty shell. */
    template <typename Sink> void drain(Bucket &bucket, Sink &&sink);

    /** Throw the FatalError for a time scheduleAt() cannot hold. */
    [[noreturn]] static void rejectTime(TimeNs when);

    /** Establish the next event source without activating any tick
     *  beyond `limit`: returns false when empty (or only events past
     *  `limit` remain), otherwise either the now-FIFO is non-empty or
     *  the active vector's head is the globally earliest entry. */
    bool ensureNext(int64_t limit);

    /** Time of the next event; call only after ensureNext() == true. */
    TimeNs nextTime();

    /** A part of the live active tick (see active_ below). */
    enum class Source { None, Active, LateRun, LateHeap };

    /** The part whose head is the active tick's earliest entry. */
    Source earliestSource() const;

    /** The head entry of a non-empty part. */
    Entry &headOf(Source src);

    /** Make fine-ring `tick` the active tick: move its bucket into the
     *  active vector and sort it (the late parts are empty then). */
    void activate(int64_t tick);

    /** Move the clock into `block` (its fine ring must be empty):
     *  pour its coarse bucket into the fine ring and migrate overflow
     *  entries that the advanced coarse window now covers. */
    void enterBlock(int64_t block);

    /** Pop the next callback in (time, seq) order, advancing now_. */
    InlineEvent popNext();

    /** step() tail with a profile attached (out of line to keep the
     *  unprofiled dispatch loop tight). */
    void profiledDispatch(InlineEvent &cb);

    static bool
    keyBefore(TimeNs a_when, uint64_t a_seq, TimeNs b_when, uint64_t b_seq)
    {
        return a_when != b_when ? a_when < b_when : a_seq < b_seq;
    }
    static bool entryBefore(const Entry &a, const Entry &b);
    static bool entryAfter(const Entry &a, const Entry &b);

    // Events at exactly now_ in insertion order (head index pops).
    // Positions [0, runEnd_) stand for the equal-time run popped
    // straight from active_ (empty placeholders here).
    std::vector<InlineEvent> nowFifo_;
    size_t nowHead_ = 0;
    size_t runEnd_ = 0;

    // The active tick baseTick_ (in block curBlock_), in three parts,
    // each ordered by (when, seq) and popped from its head:
    //  - active_: its bucket, sorted at activation;
    //  - lateRun_: entries scheduled into the tick after activation,
    //    as long as each comes after the previous one;
    //  - lateHeap_: the other late entries, a min-heap.
    // activeSorted_ holds while any part has entries not yet taken
    // into a run; while it is false the tick's entries (if any) still
    // sit in its fine bucket. With no late entries, the run at now_ is
    // popped straight from active_ (see runEnd_); otherwise it is
    // merged into the FIFO. active_ is cleared at activation, so a
    // popped run entry's slot stays valid until then.
    std::vector<Entry> active_;
    size_t activeHead_ = 0;
    std::vector<Entry> lateRun_;
    size_t lateHead_ = 0;
    std::vector<Entry> lateHeap_;
    bool activeSorted_ = false;
    int64_t baseTick_ = 0;
    int64_t curBlock_ = 0;

    // Fine ring: ticks of block curBlock_ at or after baseTick_,
    // indexed by tick % kNumBuckets. Coarse ring: blocks in
    // (curBlock_, curBlock_ + kNumBlocks), indexed by
    // block % kNumBlocks. Buckets are unsorted.
    std::array<Bucket, kNumBuckets> fine_{};
    std::array<Bucket, kNumBlocks> coarse_{};
    Bitmap<kNumBuckets> fineBits_{};
    Bitmap<kNumBlocks> coarseBits_{};

    // Chunk pool shared by both rings: chunks_ owns every chunk ever
    // allocated, freeChunks_ links the unused ones.
    std::vector<std::unique_ptr<Chunk>> chunks_;
    Chunk *freeChunks_ = nullptr;

    // Events beyond the coarse ring: min-heap by (when, seq).
    std::vector<Entry> overflow_;

    TimeNs now_ = 0.0;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
    size_t pending_ = 0;

    QueueProfile *prof_ = nullptr;

    // Telemetry heartbeat hook (null = detached). The countdown is
    // decremented per executed event only while monitor_ is set.
    telemetry::Monitor *monitor_ = nullptr;
    uint64_t monitorCountdown_ = 0;
};

} // namespace astra

#endif // ASTRA_EVENT_EVENT_QUEUE_H_
