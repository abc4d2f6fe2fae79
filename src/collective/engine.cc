#include "collective/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

CollectiveEngine::CollectiveEngine(NetworkApi &net)
    : net_(net), topo_(net.topology()), scheduler_(net.topology())
{
    sent_.assign(static_cast<size_t>(topo_.numDims()), 0.0);
}

NpuId
CollectiveEngine::groupBase(NpuId npu,
                            const std::vector<GroupDim> &groups) const
{
    NpuId base = npu;
    for (const GroupDim &g : groups)
        base = topo_.zeroGroup(base, g);
    return base;
}

int
CollectiveEngine::rankOf(const Instance &inst, NpuId npu) const
{
    int rank = 0;
    int mult = 1;
    for (const GroupDim &g : inst.groups) {
        rank += topo_.posInGroup(npu, g) * mult;
        mult *= g.size;
    }
    return rank;
}

uint64_t
CollectiveEngine::allocInstance()
{
    uint64_t id = instances_.claim();
    instances_.get(id).id = id;
    return id;
}

CollectiveEngine::Instance *
CollectiveEngine::findInstance(uint64_t id)
{
    return instances_.find(id);
}

void
CollectiveEngine::releaseInstance(Instance &inst)
{
    ++completedInstances_;
    if (tracer_ && inst.traceSpan != trace::Tracer::kNoSpan) {
        tracer_->endSpan(inst.traceSpan, net_.now());
        inst.traceSpan = trace::Tracer::kNoSpan;
    }
    uint64_t id = inst.id;
    inst.id = 0;
    // Clears keep the top-level capacities (and the per-member nested
    // vectors) alive for the next instance in this slot — SlotPool
    // recycles the object in place.
    inst.chunkPhases.clear();
    inst.chunkPhaseMult.clear();
    instances_.release(id);
}

size_t
CollectiveEngine::bytesInUse() const
{
    constexpr size_t kHashNode = sizeof(void *);
    size_t bytes = instances_.bytesInUse() +
                   sent_.capacity() * sizeof(double) +
                   kickScratch_.capacity() * sizeof(int);
    bytes += rendezvous_.bucket_count() * sizeof(void *) +
             rendezvous_.size() *
                 (sizeof(RendezvousKey) + sizeof(uint64_t) + kHashNode);
    // Nested per-instance vectors survive recycling (releaseInstance
    // clears, never shrinks), so walk every slot — live or free.
    for (uint32_t s = 0; s < instances_.slots(); ++s) {
        const Instance &inst = instances_.at(s);
        bytes += inst.groups.capacity() * sizeof(GroupDim) +
                 inst.npuOfRank.capacity() * sizeof(NpuId) +
                 inst.chunkPhases.capacity() * sizeof(std::vector<Phase>) +
                 inst.chunkPhaseMult.capacity() *
                     sizeof(std::vector<int>) +
                 inst.members.capacity() * sizeof(MemberState);
        for (const std::vector<Phase> &phases : inst.chunkPhases)
            bytes += phases.capacity() * sizeof(Phase);
        for (const std::vector<int> &mult : inst.chunkPhaseMult)
            bytes += mult.capacity() * sizeof(int);
        for (const MemberState &m : inst.members) {
            bytes += m.chunks.capacity() * sizeof(ChunkState);
            for (const ChunkState &c : m.chunks)
                bytes += c.early.capacity() * sizeof(int);
        }
    }
    return bytes;
}

void
CollectiveEngine::join(uint64_t key, NpuId npu, const CollectiveRequest &req,
                       EventCallback &&on_complete)
{
    ASTRA_ASSERT(!cancelled_,
                 "join on a cancelled collective engine (the workload "
                 "engine of an abandoned incarnation must be cancelled "
                 "first)");
    ASTRA_USER_CHECK(req.bytes >= 0.0, "collective with negative size");
    ASTRA_USER_CHECK(req.chunks >= 1, "collective needs chunks >= 1");

    std::vector<GroupDim> groups = normalizedGroups(topo_, req);

    NpuId base = groupBase(npu, groups);
    auto [it, inserted] =
        rendezvous_.try_emplace(RendezvousKey{key, base}, 0);
    if (inserted) {
        it->second = allocInstance();
        Instance &created = *findInstance(it->second);
        created.req = req;
        created.groups = std::move(groups);
        created.groupSize = 1;
        for (const GroupDim &g : created.groups)
            created.groupSize *= g.size;
        created.joinedMembers = 0;
        created.completedMembers = 0;
        created.members.resize(static_cast<size_t>(created.groupSize));
        for (MemberState &m : created.members) {
            m.joined = false;
            m.chunksDone = 0;
        }
        created.npuOfRank.assign(static_cast<size_t>(created.groupSize),
                                 -1);
    }
    Instance &inst = *findInstance(it->second);

    size_t rank = static_cast<size_t>(rankOf(inst, npu));
    MemberState &member = inst.members[rank];
    ASTRA_ASSERT(!member.joined, "NPU %d joined collective %llu twice",
                 npu, static_cast<unsigned long long>(key));
    member.joined = true;
    member.onComplete = std::move(on_complete);
    member.chunks.assign(static_cast<size_t>(req.chunks), ChunkState{});
    inst.npuOfRank[rank] = npu;

    if (++inst.joinedMembers == inst.groupSize) {
        // Last member arrived: the group is synchronized; release the
        // rendezvous key (allowing the same key to be reused) and go.
        rendezvous_.erase(it);
        start(inst);
    }
}

void
CollectiveEngine::start(Instance &inst)
{
    // Build per-chunk phase lists. The scheduler picks each chunk's
    // group order (computed once, so all members' state machines stay
    // consistent).
    Bytes chunk_bytes = inst.req.bytes / double(inst.req.chunks);
    inst.chunkPhases.reserve(static_cast<size_t>(inst.req.chunks));
    for (int c = 0; c < inst.req.chunks; ++c) {
        std::vector<GroupDim> order = scheduler_.nextOrder(
            inst.groups, inst.req.type, chunk_bytes, inst.req.policy);
        inst.chunkPhases.push_back(
            buildPhases(topo_, inst.req.type, chunk_bytes, order,
                        inst.req.treeAllReduce));
    }

    // Precompute each phase's rank-space multiplier (the radix weight
    // of its group factor within `groups`): advance() turns a rank
    // into its phase position with it once per phase entry, and
    // sendStep() turns a position delta into a rank delta.
    inst.chunkPhaseMult.resize(inst.chunkPhases.size());
    for (size_t c = 0; c < inst.chunkPhases.size(); ++c) {
        const std::vector<Phase> &phases = inst.chunkPhases[c];
        std::vector<int> &mults = inst.chunkPhaseMult[c];
        mults.assign(phases.size(), 1);
        for (size_t p = 0; p < phases.size(); ++p) {
            const GroupDim &pg = phases[p].group;
            int mult = 1;
            bool found = false;
            for (const GroupDim &g : inst.groups) {
                if (g.dim == pg.dim && g.size == pg.size &&
                    g.stride == pg.stride) {
                    found = true;
                    break;
                }
                mult *= g.size;
            }
            ASTRA_ASSERT(found, "phase group is not an instance factor");
            mults[p] = mult;
        }
    }

    // Size the early-arrival buffers now that phase lists exist.
    for (MemberState &member : inst.members) {
        for (int c = 0; c < inst.req.chunks; ++c) {
            member.chunks[static_cast<size_t>(c)].early.assign(
                inst.chunkPhases[static_cast<size_t>(c)].size(), 0);
        }
    }

    uint64_t ordinal = startedInstances_++;
    if (tracer_) {
        // The " #<ordinal>" suffix gives instance spans a stable
        // identity for cross-run alignment: SlotPool track slots are
        // reused in backend-timing order, but the issue order of
        // collectives is a property of the workload alone.
        inst.traceSpan = tracer_->beginSpan(
            tracePid_,
            trace::Tracer::kCollTidBase +
                static_cast<int32_t>(SlotPool<Instance>::slotOf(inst.id)),
            "coll",
            detail::formatV("%s %.0fB x%d chunks=%d #%llu",
                            collectiveName(inst.req.type), inst.req.bytes,
                            inst.groupSize, inst.req.chunks,
                            static_cast<unsigned long long>(ordinal)),
            net_.now());
    } else {
        inst.traceSpan = trace::Tracer::kNoSpan;
    }

    // Kick every (member, chunk) state machine in ascending NPU-id
    // order. Chunks all enter their first phase now; pipelining across
    // phases emerges from transmit port serialization in the backend.
    uint64_t id = inst.id;
    kickScratch_.resize(inst.npuOfRank.size());
    for (size_t r = 0; r < kickScratch_.size(); ++r)
        kickScratch_[r] = static_cast<int>(r);
    std::sort(kickScratch_.begin(), kickScratch_.end(),
              [&inst](int a, int b) {
                  return inst.npuOfRank[static_cast<size_t>(a)] <
                         inst.npuOfRank[static_cast<size_t>(b)];
              });
    int kick = inst.req.serializeChunks ? 1 : inst.req.chunks;
    for (int rank : kickScratch_) {
        for (int c = 0; c < kick; ++c) {
            Instance *live = findInstance(id);
            if (live == nullptr)
                return; // degenerate instance completed synchronously.
            advance(*live, rank, c);
        }
    }
}

int
CollectiveEngine::treeChildren(int pos, int k)
{
    int children = 0;
    if (2 * pos + 1 < k)
        ++children;
    if (2 * pos + 2 < k)
        ++children;
    return children;
}

int
CollectiveEngine::expectedRecvs(const Phase &ph, int pos) const
{
    int k = ph.group.size;
    switch (ph.algorithm) {
      case PhaseAlgorithm::Ring:
      case PhaseAlgorithm::Direct:
        return k - 1;
      case PhaseAlgorithm::HalvingDoubling:
        // log2(k) exchange steps (k is a power of two), as
        // phaseSteps() counts them.
        return std::bit_width(static_cast<unsigned>(k)) - 1;
      case PhaseAlgorithm::TreeReduce:
        return treeChildren(pos, k);
      case PhaseAlgorithm::TreeBroadcast:
        return pos > 0 ? 1 : 0;
    }
    return 0;
}

int
CollectiveEngine::totalSends(const Phase &ph, int pos) const
{
    switch (ph.algorithm) {
      case PhaseAlgorithm::TreeReduce:
        return pos > 0 ? 1 : 0;
      case PhaseAlgorithm::TreeBroadcast:
        return treeChildren(pos, ph.group.size);
      default:
        // Symmetric exchange: as many sends as receives.
        return expectedRecvs(ph, pos);
    }
}

void
CollectiveEngine::advance(Instance &inst, int rank, int chunk)
{
    // `pos` rides in the padding after `started` (LP64), so caching it
    // costs no footprint.
    static_assert(sizeof(void *) != 8 || sizeof(ChunkState) == 56,
                  "ChunkState outgrew 56 bytes — every collectives "
                  "footprint (telemetry.footprint.collectives_mb) "
                  "moves");
    MemberState &member = inst.members[static_cast<size_t>(rank)];
    ChunkState &st = member.chunks[static_cast<size_t>(chunk)];
    st.started = true;
    const std::vector<Phase> &phases =
        inst.chunkPhases[static_cast<size_t>(chunk)];

    if (st.phase >= phases.size()) {
        ++member.chunksDone;
        if (inst.req.serializeChunks &&
            member.chunksDone < inst.req.chunks) {
            // Conservative scheduler: the member's next chunk enters
            // the pipeline only now.
            advance(inst, rank, member.chunksDone);
            return;
        }
        if (member.chunksDone == inst.req.chunks) {
            if (member.onComplete) {
                // Deferred through the queue: the callback may join the
                // NPU to its next collective, which would otherwise
                // mutate the instance table under our feet.
                net_.simSchedule(0.0, std::move(member.onComplete));
            }
            ++inst.completedMembers;
            if (inst.completedMembers == inst.groupSize)
                releaseInstance(inst);
        }
        return;
    }
    // The only division on the collective path: once per (member,
    // chunk, phase), not per message.
    const Phase &ph = phases[st.phase];
    st.pos = (rank / inst.chunkPhaseMult[static_cast<size_t>(chunk)]
                                         [st.phase]) %
             ph.group.size;
    st.sent = 0;
    st.recvd = st.early[st.phase];
    if (tracer_ && tracer_->full())
        st.phaseEnteredAt = net_.now();
    pump(inst, rank, chunk);
}

void
CollectiveEngine::pump(Instance &inst, int rank, int chunk)
{
    MemberState &member = inst.members[static_cast<size_t>(rank)];
    ChunkState &st = member.chunks[static_cast<size_t>(chunk)];
    const Phase &ph =
        inst.chunkPhases[static_cast<size_t>(chunk)][st.phase];

    int pos = st.pos;
    int sends = totalSends(ph, pos);
    switch (ph.algorithm) {
      case PhaseAlgorithm::Ring:
      case PhaseAlgorithm::HalvingDoubling:
        // Step s may go out once step s-1's message has arrived.
        while (st.sent < sends && st.sent <= st.recvd) {
            sendStep(inst, rank, chunk, ph, pos, st.sent);
            ++st.sent;
        }
        break;
      case PhaseAlgorithm::Direct:
        // One-shot: fire all peer messages; the transmit port
        // serializes them at the dimension's aggregate bandwidth.
        while (st.sent < sends) {
            sendStep(inst, rank, chunk, ph, pos, st.sent);
            ++st.sent;
        }
        break;
      case PhaseAlgorithm::TreeReduce:
      case PhaseAlgorithm::TreeBroadcast:
        // Forward only once the whole subtree/parent input arrived.
        if (st.recvd == expectedRecvs(ph, pos)) {
            while (st.sent < sends) {
                sendStep(inst, rank, chunk, ph, pos, st.sent);
                ++st.sent;
            }
        }
        break;
    }

    if (st.recvd == expectedRecvs(ph, pos) && st.sent == sends) {
        if (tracer_ && tracer_->full())
            tracer_->span(tracePid_,
                          inst.npuOfRank[static_cast<size_t>(rank)],
                          "coll", "c%lld p%lld d%lld", st.phaseEnteredAt,
                          net_.now() - st.phaseEnteredAt,
                          static_cast<long long>(chunk),
                          static_cast<long long>(st.phase),
                          static_cast<long long>(ph.group.dim));
        ++st.phase;
        advance(inst, rank, chunk);
    }
}

void
CollectiveEngine::sendStep(Instance &inst, int rank, int chunk,
                           const Phase &ph, int pos, int step)
{
    int k = ph.group.size;
    int peer_pos = pos;
    Bytes bytes = 0.0;

    // Ring/Direct peers wrap by one subtraction: pos < k and
    // step < k - 1, so pos + step + 1 < 2k.
    switch (ph.algorithm) {
      case PhaseAlgorithm::Ring:
        peer_pos = pos + 1;
        if (peer_pos >= k)
            peer_pos -= k;
        bytes = ph.tensorBytes / double(k);
        break;
      case PhaseAlgorithm::Direct:
        peer_pos = pos + step + 1;
        if (peer_pos >= k)
            peer_pos -= k;
        bytes = ph.tensorBytes / double(k);
        break;
      case PhaseAlgorithm::HalvingDoubling:
        if (ph.op == PhaseOp::AllGather) {
            // Recursive doubling: distances 1, 2, ..., k/2 with
            // message sizes tensor/k, 2*tensor/k, ..., tensor/2.
            peer_pos = pos ^ (1 << step);
            bytes = ph.tensorBytes * double(1 << step) / double(k);
        } else {
            // Recursive halving: distances k/2, ..., 1 with message
            // sizes tensor/2, tensor/4, ..., tensor/k.
            peer_pos = pos ^ (k >> (step + 1));
            bytes = ph.tensorBytes / double(2 << step);
        }
        break;
      case PhaseAlgorithm::TreeReduce:
        // Full partial sums travel up to the parent.
        peer_pos = (pos - 1) / 2;
        bytes = ph.tensorBytes;
        break;
      case PhaseAlgorithm::TreeBroadcast:
        peer_pos = 2 * pos + 1 + step;
        bytes = ph.tensorBytes;
        break;
    }

    size_t phase_idx = inst.members[static_cast<size_t>(rank)]
                           .chunks[static_cast<size_t>(chunk)]
                           .phase;
    int mult =
        inst.chunkPhaseMult[static_cast<size_t>(chunk)][phase_idx];
    int dst_rank = rank + (peer_pos - pos) * mult;
    NpuId src = inst.npuOfRank[static_cast<size_t>(rank)];
    NpuId dst = inst.npuOfRank[static_cast<size_t>(dst_rank)];

    sent_[static_cast<size_t>(ph.group.dim)] += bytes;
    uint64_t inst_id = inst.id;
    SendHandlers handlers;
    // [this, 2 ids, 2 ints]: fits InlineEvent's inline buffer, so the
    // per-message delivery closure never allocates; capturing the
    // destination *rank* makes delivery a pure array walk.
    handlers.onDelivered = [this, inst_id, dst_rank, chunk, phase_idx]() {
        onMessage(inst_id, dst_rank, chunk, phase_idx);
    };
    net_.simSend(src, dst, bytes, ph.group.dim, kNoTag,
                 std::move(handlers));
}

void
CollectiveEngine::onMessage(uint64_t inst_id, int rank, int chunk,
                            size_t phase_idx)
{
    if (cancelled_)
        return; // abandoned incarnation: drop, don't pump.
    Instance *found = findInstance(inst_id);
    ASTRA_ASSERT(found != nullptr,
                 "message for retired collective instance");
    Instance &inst = *found;
    MemberState &member = inst.members[static_cast<size_t>(rank)];
    ChunkState &st = member.chunks[static_cast<size_t>(chunk)];
    if (!st.started || phase_idx != st.phase) {
        // The sender's rail ran ahead of this member (possibly into a
        // chunk this member has not opened yet under serialized
        // chunking); hold the message until the member enters that
        // phase.
        ASTRA_ASSERT(!st.started || phase_idx > st.phase,
                     "collective message for an already-finished phase");
        ++st.early[phase_idx];
        return;
    }
    ++st.recvd;
    pump(inst, rank, chunk);
}

CollectiveRunResult
runCollective(CollectiveEngine &engine, const CollectiveRequest &req)
{
    // Atomic so concurrent standalone runs on worker threads (sweep
    // batches, parallel benches) never share a rendezvous key.
    static std::atomic<uint64_t> run_key{0xC011EC71FE000000ULL};
    uint64_t key = ++run_key;

    NetworkApi &net = engine.network();
    const Topology &topo = net.topology();
    std::vector<double> sent_before = engine.sentBytesPerDim();

    CollectiveRunResult result;
    int remaining = topo.npus();
    for (NpuId npu = 0; npu < topo.npus(); ++npu) {
        engine.join(key, npu, req, [&result, &net, &remaining]() {
            --remaining;
            result.finish = std::max(result.finish, net.now());
        });
    }
    net.eventQueue().run();
    ASTRA_ASSERT(remaining == 0, "collective did not complete (%d left)",
                 remaining);

    result.sentPerDim = engine.sentBytesPerDim();
    for (size_t d = 0; d < result.sentPerDim.size(); ++d)
        result.sentPerDim[d] -= sent_before[d];
    return result;
}

} // namespace astra
