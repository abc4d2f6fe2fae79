#include "network/detailed/packet_network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

PacketNetwork::PacketNetwork(EventQueue &eq, const Topology &topo,
                             Bytes packet_bytes, Bytes header_bytes,
                             TimeNs message_overhead)
    : NetworkApi(eq, topo), graph_(topo), packetBytes_(packet_bytes),
      headerBytes_(header_bytes), messageOverhead_(message_overhead)
{
    ASTRA_USER_CHECK(packet_bytes > 0.0, "packet size must be positive");
    ASTRA_USER_CHECK(header_bytes >= 0.0 && message_overhead >= 0.0,
                     "packet overheads must be non-negative");
    ports_.assign(graph_.linkCount(), PortState{});
    portScale_.assign(graph_.linkCount(), 1.0);
    portUp_.assign(graph_.linkCount(), 1);
    stats_.linksPerDim = graph_.linksPerDim();
}

void
PacketNetwork::simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                       uint64_t tag, SendHandlers &&handlers)
{
    if (src == dst) {
        deliverLoopback(src, tag, std::move(handlers));
        return;
    }

    const std::vector<LinkId> *path = graph_.pathFor(src, dst, dim);
    int packets =
        std::max(1, static_cast<int>(std::ceil(bytes / packetBytes_)));
    account(accountDim(src, dst, dim), bytes);

    EventCallback on_injected = std::move(handlers.onInjected);

    uint64_t id = messages_.claim();
    Message &msg = messages_.get(id);
    msg.src = src;
    msg.dst = dst;
    msg.tag = tag;
    msg.dim = dim;
    msg.packetsRemaining = packets;
    msg.traceStart = eq_.now();
    msg.handlers.onDelivered = std::move(handlers.onDelivered);
    msg.owner = sendOwner_;

    if (messageOverhead_ > 0.0) {
        // Software/NIC launch cost before the first packet enters the
        // network.
        eq_.schedule(messageOverhead_,
                     [this, id, path, bytes, packets,
                      on_injected = std::move(on_injected)]() mutable {
                         launchMessage(id, path, bytes, packets,
                                       std::move(on_injected));
                     });
    } else {
        launchMessage(id, path, bytes, packets, std::move(on_injected));
    }
}

void
PacketNetwork::launchMessage(uint64_t msg_id,
                             const std::vector<LinkId> *path,
                             Bytes bytes, int packets,
                             EventCallback &&on_injected)
{
    // A first hop that is up is claimed for every packet now, in packet
    // order, and only packet 0's arrival is queued: it takes the next
    // seq and its successors the block reserved right behind it, the
    // seqs eager per-packet scheduling would have given them. A first
    // hop that is down parks every packet on its own instead, and
    // setLinkUp(true) re-issues them one by one.
    const LinkId first = (*path)[0];
    const bool train = portUp_[first] != 0;
    Bytes remaining = bytes;
    TimeNs head_done = 0.0;
    for (int p = 0; p < packets; ++p) {
        Bytes pkt = std::min(packetBytes_, remaining);
        remaining -= pkt;
        if (!train) {
            forwardPacket(msg_id, path, 0, pkt); // parks it
            continue;
        }
        TimeNs tx_done = claimLink(first, msg_id, pkt);
        if (p == 0)
            head_done = tx_done;
    }
    if (train) {
        const LinkGraph::Link &link = graph_.link(first);
        // Only a zero-byte message on a zero-latency link arrives at
        // now, where scheduleAt() takes no seq.
        ASTRA_ASSERT(packets == 1 || head_done + link.latency > eq_.now(),
                     "packet train head due at now");
        const Bytes head_bytes = std::min(packetBytes_, bytes);
        Message &msg = messages_.get(msg_id);
        msg.path = path;
        msg.trainTxDone = head_done;
        msg.trainBytes = head_bytes;
        msg.trainRemaining = bytes - head_bytes;
        msg.trainBandwidth = link.bandwidth * portScale_[first];
        msg.trainLeft = packets - 1;
        eq_.scheduleAt(head_done + link.latency,
                       [this, msg_id]() { trainArrived(msg_id); });
        msg.trainSeq = eq_.reserveSeqs(static_cast<size_t>(packets - 1));
    }

    if (on_injected) {
        // Injection completes when the last packet clears the first
        // link. The max() only matters when the first hop is down and
        // its freeAt is stale: the packets are parked, and injection
        // reports complete now (async NIC, unbounded egress queue).
        eq_.scheduleAt(std::max(eq_.now(), ports_[(*path)[0]].freeAt),
                       std::move(on_injected));
    }
}

TimeNs
PacketNetwork::claimLink(LinkId lid, uint64_t msg_id, Bytes pkt_bytes)
{
    const LinkGraph::Link &link = graph_.link(lid);
    PortState &port = ports_[lid];
    TimeNs start = std::max(eq_.now(), port.freeAt);
    TimeNs tx = txTime(pkt_bytes + headerBytes_,
                       link.bandwidth * portScale_[lid]);
    TimeNs tx_done = start + tx;
    port.freeAt = tx_done;
    port.busyNs += tx;
    accountBusy(link.dim, tx, port.busyNs);
    if (tracer_)
        tracer_->linkBusy(lid, start, tx_done);
    if (Message *msg = messages_.find(msg_id); msg && msg->owner)
        (*msg->owner)[static_cast<size_t>(link.dim)] += tx;
    return tx_done;
}

void
PacketNetwork::trainArrived(uint64_t msg_id)
{
    // Read the slot before forwarding: delivery may claim new messages
    // and grow (reallocate) the pool.
    Message &msg = messages_.get(msg_id);
    const std::vector<LinkId> *path = msg.path;
    const Bytes pkt_bytes = msg.trainBytes;
    if (msg.trainLeft > 0) {
        // The launch loop's arithmetic: the port was free again at the
        // previous packet's end (>= launch time), so this packet's
        // transmission starts exactly there, at the launch bandwidth.
        --msg.trainLeft;
        Bytes next = std::min(packetBytes_, msg.trainRemaining);
        msg.trainRemaining -= next;
        msg.trainBytes = next;
        msg.trainTxDone += txTime(next + headerBytes_, msg.trainBandwidth);
        const TimeNs when =
            msg.trainTxDone + graph_.link((*path)[0]).latency;
        eq_.scheduleReserved(when, msg.trainSeq++,
                             [this, msg_id]() { trainArrived(msg_id); });
    }
    forwardPacket(msg_id, path, 1, pkt_bytes);
}

void
PacketNetwork::forwardPacket(uint64_t msg_id,
                             const std::vector<LinkId> *path,
                             size_t hop, Bytes pkt_bytes)
{
    if (hop >= path->size()) {
        packetArrived(msg_id);
        return;
    }
    LinkId lid = (*path)[hop];
    if (!portUp_[lid]) {
        // Down link: park in FIFO order; setLinkUp(true) re-issues.
        parked_[lid].push_back(ParkedPacket{msg_id, path, hop, pkt_bytes});
        return;
    }
    TimeNs tx_done = claimLink(lid, msg_id, pkt_bytes);
    // [this, id, ptr, 2 words]: inline in InlineEvent — the per-hop
    // closure chain performs no allocation at all.
    eq_.scheduleAt(tx_done + graph_.link(lid).latency,
                   [this, msg_id, path, hop, pkt_bytes]() {
                       forwardPacket(msg_id, path, hop + 1, pkt_bytes);
                   });
}

void
PacketNetwork::setLinkCapacityScale(NpuId src, NpuId dst, int dim,
                                    double scale)
{
    ASTRA_USER_CHECK(scale > 0.0 && std::isfinite(scale),
                     "link capacity scale must be > 0 and finite "
                     "(take the link down for a full outage)");
    for (LinkId l : graph_.faultLinks(src, dst, dim))
        portScale_[l] = scale;
}

void
PacketNetwork::setLinkUp(NpuId src, NpuId dst, int dim, bool up)
{
    std::vector<LinkId> links = graph_.faultLinks(src, dst, dim);
    for (LinkId l : links)
        portUp_[l] = up ? 1 : 0;
    if (!up)
        return;
    // Release each restored link's parking lot in FIFO order (links
    // themselves in selector order — deterministic either way, since
    // re-issue serializes per port from `now`).
    for (LinkId l : links) {
        auto it = parked_.find(l);
        if (it == parked_.end())
            continue;
        std::vector<ParkedPacket> lot = std::move(it->second);
        parked_.erase(it);
        for (const ParkedPacket &p : lot)
            forwardPacket(p.msgId, p.path, p.hop, p.bytes);
    }
}

void
PacketNetwork::packetArrived(uint64_t msg_id)
{
    Message &msg = messages_.get(msg_id);
    ASTRA_ASSERT(msg.packetsRemaining > 0, "arrival on idle message slot");
    if (--msg.packetsRemaining > 0)
        return;
    // Pull the completion handler out before recycling the slot: the
    // deliver() chain may send again and reuse it immediately.
    NpuId src = msg.src;
    NpuId dst = msg.dst;
    uint64_t tag = msg.tag;
    if (tracer_ && tracer_->full())
        tracer_->span(0, int32_t(src), "net", "msg %lld->%lld d%d",
                      msg.traceStart, eq_.now() - msg.traceStart,
                      (long long)src, (long long)dst, msg.dim);
    EventCallback on_delivered = std::move(msg.handlers.onDelivered);
    msg.handlers = SendHandlers{};
    messages_.release(msg_id);
    deliver(src, dst, tag, std::move(on_delivered));
}

size_t
PacketNetwork::bytesInUse() const
{
    constexpr size_t kNodeOverhead = 4 * sizeof(void *);
    size_t bytes = NetworkApi::bytesInUse() + graph_.bytesInUse() +
                   messages_.bytesInUse() +
                   ports_.capacity() * sizeof(PortState) +
                   portScale_.capacity() * sizeof(double) +
                   portUp_.capacity() * sizeof(uint8_t);
    for (const auto &[link, lot] : parked_) {
        (void)link;
        bytes += sizeof(LinkId) + kNodeOverhead +
                 lot.capacity() * sizeof(ParkedPacket);
    }
    return bytes;
}

void
PacketNetwork::setTracer(trace::Tracer *tracer)
{
    NetworkApi::setTracer(tracer);
    if (!tracer)
        return;
    for (LinkId l = 0; l < graph_.linkCount(); ++l) {
        const LinkGraph::Link &link = graph_.link(l);
        tracer->registerLink(l, detail::formatV("d%d %d->%d", link.dim,
                                                link.from, link.to));
    }
}

} // namespace astra
