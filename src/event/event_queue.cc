#include "event/event_queue.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace astra {

namespace {

/** Histogram slot for a count: its bit-width, clamped to the array. */
inline size_t
log2Slot(size_t n)
{
    size_t w = std::bit_width(n);
    return w < 31 ? w : 31;
}

template <size_t W>
inline void
setBit(std::array<uint64_t, W> &bits, size_t i)
{
    bits[i / 64] |= uint64_t{1} << (i % 64);
}

template <size_t W>
inline void
clearBit(std::array<uint64_t, W> &bits, size_t i)
{
    bits[i / 64] &= ~(uint64_t{1} << (i % 64));
}

/** Index of the first set bit at or after `from`, or -1 if none. */
template <size_t W>
inline int64_t
findFrom(const std::array<uint64_t, W> &bits, size_t from)
{
    size_t w = from / 64;
    if (w >= W)
        return -1;
    uint64_t word = bits[w] & (~uint64_t{0} << (from % 64));
    while (word == 0) {
        if (++w == W)
            return -1;
        word = bits[w];
    }
    return static_cast<int64_t>(w * 64 + std::countr_zero(word));
}

} // namespace

bool
EventQueue::entryBefore(const Entry &a, const Entry &b)
{
    return keyBefore(a.when, a.seq, b.when, b.seq);
}

bool
EventQueue::entryAfter(const Entry &a, const Entry &b)
{
    return entryBefore(b, a);
}

int64_t
EventQueue::tickLimitOf(TimeNs until)
{
    // Beyond ~2^62 ticks every schedulable event is within the limit.
    constexpr TimeNs kMaxTicks = 4.0e18;
    TimeNs ticks = until * (1.0 / kBucketWidthNs);
    return ticks < kMaxTicks ? static_cast<int64_t>(ticks)
                             : std::numeric_limits<int64_t>::max();
}

void
EventQueue::rejectTime(TimeNs when)
{
    fatal("event time %g ns is not finite or not below the calendar's "
          "limit of %g ns",
          when, kMaxTimeNs);
}

inline void
EventQueue::insertTimed(TimeNs when, uint64_t seq, InlineEvent &&cb)
{
    // when > now_ >= the active tick's start, because the clock never
    // moves the active tick past now_ (runUntil() bounds how far
    // ensureNext() may advance), so no entry lands behind the window.
    if (activeSorted_ && tickOf(when) == baseTick_) {
        // The live active tick. Re-arming chains schedule in (when,
        // seq) order, so most entries just extend the late run; the
        // rest take O(log n) in the late heap. Neither is an O(n)
        // sorted insert into the active vector.
        if (lateRun_.empty() ||
            !keyBefore(when, seq, lateRun_.back().when,
                       lateRun_.back().seq)) {
            lateRun_.emplace_back(when, seq, std::move(cb));
        } else {
            lateHeap_.emplace_back(when, seq, std::move(cb));
            std::push_heap(lateHeap_.begin(), lateHeap_.end(), entryAfter);
        }
        return;
    }
    place(when, seq, std::move(cb));
}

void
EventQueue::schedule(TimeNs delay, EventCallback &&cb)
{
    // NaN passes on to scheduleAt(), which rejects it by name.
    ASTRA_ASSERT(!(delay < 0.0), "negative event delay %g", delay);
    scheduleAt(now_ + delay, std::move(cb));
}

void
EventQueue::scheduleAt(TimeNs when, EventCallback &&cb)
{
    // One comparison rejects NaN, infinity and times whose tick would
    // overflow the calendar's integer arithmetic.
    if (!(when < kMaxTimeNs)) [[unlikely]]
        rejectTime(when);
    ASTRA_ASSERT(timeNotBefore(when, now_),
                 "event scheduled in the past (when=%g now=%g)", when, now_);
    ++pending_;
    if (when <= now_) {
        // At (or within tolerance of) the current time: FIFO order is
        // (time, insertion) order for equal timestamps. O(1), and by
        // far the hottest scheduling path (zero-delay deferrals).
        nowFifo_.push_back(std::move(cb));
        return;
    }
    insertTimed(when, seq_++, std::move(cb));
}

void
EventQueue::scheduleReserved(TimeNs when, uint64_t seq, EventCallback &&cb)
{
    if (!(when < kMaxTimeNs)) [[unlikely]]
        rejectTime(when);
    ASTRA_ASSERT(timeNotBefore(when, now_),
                 "event scheduled in the past (when=%g now=%g)", when, now_);
    ASTRA_ASSERT(seq < seq_, "sequence number %llu was never reserved",
                 static_cast<unsigned long long>(seq));
    ++pending_;
    if (when <= now_) {
        // Due now and (by contract) the running event's successor, so
        // ahead of every other event at now: the running event's own,
        // already popped FIFO position. If that position stands for an
        // entry of the equal-time run, the successor takes the entry's
        // slot in the active vector instead.
        ASTRA_ASSERT(nowHead_ > 0,
                     "reserved event due now outside a dispatch");
        if (nowHead_ > runEnd_) {
            nowFifo_[--nowHead_] = std::move(cb);
            return;
        }
        --nowHead_;
        Entry &slot = active_[--activeHead_];
        slot.when = now_;
        slot.seq = seq;
        slot.cb = std::move(cb);
        return;
    }
    insertTimed(when, seq, std::move(cb));
}

void
EventQueue::place(TimeNs when, uint64_t seq, InlineEvent &&cb)
{
    const int64_t tick = tickOf(when);
    const int64_t ahead = blockOf(tick) - curBlock_;
    ASTRA_ASSERT(tick >= baseTick_ && ahead >= 0,
                 "event behind the calendar window (when=%g)", when);
    Entry *slot;
    if (ahead == 0) {
        const size_t i = static_cast<size_t>(tick % kRingTicks);
        slot = &appendSlot(fine_[i]);
        setBit(fineBits_, i);
    } else if (ahead < kRingBlocks) {
        const size_t i = static_cast<size_t>(blockOf(tick) % kRingBlocks);
        slot = &appendSlot(coarse_[i]);
        setBit(coarseBits_, i);
    } else {
        overflow_.emplace_back(when, seq, std::move(cb));
        std::push_heap(overflow_.begin(), overflow_.end(), entryAfter);
        return;
    }
    slot->when = when;
    slot->seq = seq;
    slot->cb = std::move(cb);
}

EventQueue::Entry &
EventQueue::appendSlot(Bucket &bucket)
{
    Chunk *chunk = bucket.tail;
    if (chunk == nullptr || chunk->size == kChunkEntries) {
        if (freeChunks_ == nullptr) {
            chunks_.push_back(std::make_unique<Chunk>());
            freeChunks_ = chunks_.back().get();
        }
        Chunk *fresh = freeChunks_;
        freeChunks_ = fresh->next;
        fresh->next = nullptr;
        (chunk != nullptr ? chunk->next : bucket.head) = fresh;
        bucket.tail = fresh;
        chunk = fresh;
    }
    return chunk->entries[chunk->size++];
}

template <typename Sink>
void
EventQueue::drain(Bucket &bucket, Sink &&sink)
{
    Chunk *chunk = bucket.head;
    while (chunk != nullptr) {
        for (size_t i = 0; i < chunk->size; ++i)
            sink(chunk->entries[i]);
        Chunk *next = chunk->next;
        chunk->size = 0;
        chunk->next = freeChunks_;
        freeChunks_ = chunk;
        chunk = next;
    }
    bucket = Bucket{};
}

void
EventQueue::activate(int64_t tick)
{
    baseTick_ = tick;
    const size_t slot = static_cast<size_t>(tick % kRingTicks);
    clearBit(fineBits_, slot);
    active_.clear(); // the previous tick's popped shells.
    drain(fine_[slot], [this](Entry &e) { active_.push_back(std::move(e)); });
    // Appends mostly carry increasing seq, so a bucket filled in
    // nondecreasing time order — the common case: synchronized
    // completion waves put hundreds of equal-timestamp events in one
    // bucket — is already in (when, seq) order. Detect that in one
    // early-exit pass instead of paying the full sort. A bucket that
    // is two such runs (entries poured in when the block was entered,
    // then entries appended since: packet trains do this) is merged in
    // O(n); a genuinely shuffled one is sorted.
    const auto mid =
        std::is_sorted_until(active_.begin(), active_.end(), entryBefore);
    if (mid != active_.end()) {
        if (std::is_sorted(mid, active_.end(), entryBefore)) {
            // The late run is empty at activation: borrow it to hold
            // the first run while merging back into the vector.
            std::vector<Entry> &first = lateRun_;
            first.assign(std::make_move_iterator(active_.begin()),
                         std::make_move_iterator(mid));
            size_t i = 0;
            size_t j = first.size();
            size_t k = 0;
            while (i < first.size()) {
                if (j < active_.size() && entryBefore(active_[j], first[i]))
                    active_[k++] = std::move(active_[j++]);
                else
                    active_[k++] = std::move(first[i++]);
            }
            first.clear();
        } else {
            std::sort(active_.begin(), active_.end(), entryBefore);
        }
    }
    activeHead_ = 0;
    activeSorted_ = true;
    if (prof_) {
        ++prof_->bucketActivations;
        ++prof_->bucketHist[log2Slot(active_.size())];
    }
}

void
EventQueue::enterBlock(int64_t block)
{
    curBlock_ = block;
    baseTick_ = block * kRingTicks;
    const size_t slot = static_cast<size_t>(block % kRingBlocks);
    clearBit(coarseBits_, slot);
    drain(coarse_[slot], [this](Entry &e) {
        place(e.when, e.seq, std::move(e.cb));
    });
    // The coarse window now reaches kNumBlocks - 1 blocks past
    // `block`: overflow entries it covers migrate into the rings, so
    // the heap again holds only blocks beyond the window.
    while (!overflow_.empty() &&
           blockOf(tickOf(overflow_.front().when)) - block < kRingBlocks) {
        std::pop_heap(overflow_.begin(), overflow_.end(), entryAfter);
        // A covered entry goes to a ring, never back into this heap.
        Entry &e = overflow_.back();
        place(e.when, e.seq, std::move(e.cb));
        overflow_.pop_back();
    }
}

bool
EventQueue::ensureNext(int64_t limit)
{
    if (nowHead_ < nowFifo_.size())
        return true;
    if (nowHead_ != 0) {
        nowFifo_.clear();
        nowHead_ = 0;
        runEnd_ = 0;
    }
    if (pending_ == 0)
        return false;
    if (activeSorted_)
        return true; // popNext() clears it when all parts drain.

    // Lowest live tick: the fine ring first (it holds the current
    // block), then the next occupied block of the coarse ring, then
    // the overflow heap (whose blocks lie beyond the coarse window).
    for (;;) {
        int64_t slot = findFrom(
            fineBits_, static_cast<size_t>(baseTick_ % kRingTicks));
        if (slot >= 0) {
            const int64_t tick = curBlock_ * kRingTicks + slot;
            if (tick > limit)
                return false;
            activate(tick);
            return true;
        }
        int64_t block;
        slot = findFrom(coarseBits_,
                        static_cast<size_t>((curBlock_ + 1) % kRingBlocks));
        if (slot < 0)
            slot = findFrom(coarseBits_, 0);
        if (slot >= 0) {
            block = curBlock_ + ((slot - curBlock_) & (kRingBlocks - 1));
        } else {
            ASTRA_ASSERT(!overflow_.empty(), "pending events lost");
            block = blockOf(tickOf(overflow_.front().when));
        }
        // Entering a block moves the window start to the block's first
        // tick; never past `limit`, so runUntil() leaves room for the
        // caller to schedule anywhere after `until`.
        if (block * kRingTicks > limit)
            return false;
        enterBlock(block);
    }
}

inline EventQueue::Source
EventQueue::earliestSource() const
{
    const Entry *best = nullptr;
    Source src = Source::None;
    if (activeHead_ < active_.size()) {
        best = &active_[activeHead_];
        src = Source::Active;
    }
    if (lateHead_ < lateRun_.size() &&
        (best == nullptr || entryBefore(lateRun_[lateHead_], *best))) {
        best = &lateRun_[lateHead_];
        src = Source::LateRun;
    }
    if (!lateHeap_.empty() &&
        (best == nullptr || entryBefore(lateHeap_.front(), *best)))
        src = Source::LateHeap;
    return src;
}

inline EventQueue::Entry &
EventQueue::headOf(Source src)
{
    switch (src) {
      case Source::Active: return active_[activeHead_];
      case Source::LateRun: return lateRun_[lateHead_];
      default: return lateHeap_.front();
    }
}

inline TimeNs
EventQueue::nextTime()
{
    if (nowHead_ < nowFifo_.size())
        return now_;
    return headOf(earliestSource()).when;
}

InlineEvent
EventQueue::popNext()
{
    if (nowHead_ < nowFifo_.size()) {
        // FIFO positions below runEnd_ stand for the equal-time run,
        // whose callbacks stay in the active vector.
        if (nowHead_++ < runEnd_)
            return std::move(active_[activeHead_++].cb);
        return std::move(nowFifo_[nowHead_ - 1]);
    }

    const TimeNs t = nextTime();
    now_ = t;
    if (lateRun_.empty() && lateHeap_.empty()) {
        // Without late entries, the common case, the run is a prefix of
        // the active vector. It takes the FIFO's first positions, but
        // its callbacks are popped straight from the vector: a move
        // per event saved, while the FIFO's length (hence footprint)
        // stays what moving them there would give.
        size_t end = activeHead_ + 1;
        while (end < active_.size() && active_[end].when == t)
            ++end;
        activeSorted_ = end < active_.size();
        runEnd_ = end - activeHead_;
        // One placeholder at a time: the FIFO grows exactly as it did
        // when the run's callbacks were pushed into it.
        for (size_t i = 0; i < runEnd_; ++i)
            nowFifo_.emplace_back();
        nowHead_ = 1;
        return std::move(active_[activeHead_++].cb);
    }
    // Otherwise move the whole equal-time run into the FIFO, merging
    // the active tick's three parts by (when, seq): entries scheduled
    // *during* its execution at time t (strictly higher seq) then
    // naturally queue behind it, preserving (time, seq) order.
    for (Source src; (src = earliestSource()) != Source::None;) {
        Entry &e = headOf(src);
        if (e.when != t)
            break;
        nowFifo_.push_back(std::move(e.cb));
        if (src == Source::Active) {
            ++activeHead_;
        } else if (src == Source::LateRun) {
            ++lateHead_;
        } else {
            std::pop_heap(lateHeap_.begin(), lateHeap_.end(), entryAfter);
            lateHeap_.pop_back();
        }
    }
    if (activeHead_ == active_.size()) {
        active_.clear();
        activeHead_ = 0;
    }
    if (lateHead_ == lateRun_.size()) {
        lateRun_.clear();
        lateHead_ = 0;
    }
    activeSorted_ = !active_.empty() || !lateRun_.empty() ||
                    !lateHeap_.empty();
    return std::move(nowFifo_[nowHead_++]);
}

TimeNs
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

TimeNs
EventQueue::runUntil(TimeNs until)
{
    const int64_t limit = tickLimitOf(until);
    while (ensureNext(limit) && nextTime() <= until)
        step();
    if (now_ < until)
        now_ = until;
    return now_;
}

bool
EventQueue::step()
{
    if (!ensureNext(std::numeric_limits<int64_t>::max()))
        return false;
    InlineEvent cb = popNext();
    --pending_;
    ++executed_;
    if (monitor_ != nullptr && --monitorCountdown_ == 0)
        monitorCountdown_ = monitor_->poll(now_, executed_, pending_);
    if (prof_) {
        profiledDispatch(cb);
        return true;
    }
    if (cb)
        cb();
    return true;
}

void
EventQueue::profiledDispatch(InlineEvent &cb)
{
    if (executed_ % QueueProfile::kDepthSampleEvery == 0) {
        ++prof_->depthSamples;
        ++prof_->depthHist[log2Slot(pending_)];
    }
    if (!cb)
        return;
    if (prof_->timeCallbacks &&
        executed_ % QueueProfile::kCallbackSampleEvery == 0) {
        auto t0 = std::chrono::steady_clock::now();
        cb();
        auto t1 = std::chrono::steady_clock::now();
        ++prof_->callbackSamples;
        prof_->callbackWallSeconds +=
            std::chrono::duration<double>(t1 - t0).count() *
            double(QueueProfile::kCallbackSampleEvery);
        return;
    }
    cb();
}

void
EventQueue::setMonitor(telemetry::Monitor *monitor)
{
    monitor_ = monitor;
    monitorCountdown_ = monitor ? monitor->initialCountdown() : 0;
}

size_t
EventQueue::bytesInUse() const
{
    return nowFifo_.capacity() * sizeof(InlineEvent) +
           (active_.capacity() + lateRun_.capacity() +
            lateHeap_.capacity() + overflow_.capacity()) *
               sizeof(Entry) +
           chunks_.size() * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
}

void
EventQueue::reset()
{
    // No per-event ordering work: pending callbacks are destroyed in
    // place and their chunks go back to the pool. Capacities are
    // retained for reuse.
    nowFifo_.clear();
    nowHead_ = 0;
    active_.clear();
    activeHead_ = 0;
    runEnd_ = 0;
    lateRun_.clear();
    lateHead_ = 0;
    lateHeap_.clear();
    activeSorted_ = false;
    auto discard = [](Entry &e) { e.cb = nullptr; };
    for (Bucket &bucket : fine_)
        drain(bucket, discard);
    for (Bucket &bucket : coarse_)
        drain(bucket, discard);
    fineBits_ = {};
    coarseBits_ = {};
    overflow_.clear();
    baseTick_ = 0;
    curBlock_ = 0;
    now_ = 0.0;
    seq_ = 0;
    executed_ = 0;
    pending_ = 0;
}

void
EventQueue::reserve(size_t events)
{
    nowFifo_.reserve(events);
    const size_t chunks = (events + kChunkEntries - 1) / kChunkEntries;
    while (chunks_.size() < chunks) {
        chunks_.push_back(std::make_unique<Chunk>());
        chunks_.back()->next = freeChunks_;
        freeChunks_ = chunks_.back().get();
    }
}

} // namespace astra
