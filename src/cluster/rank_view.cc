#include "cluster/rank_view.h"

#include <utility>

#include "common/logging.h"

namespace astra {
namespace cluster {

RankViewNetwork::RankViewNetwork(NetworkApi &fabric,
                                 const Topology &job_topo,
                                 const JobPlacement &placement,
                                 uint64_t tag_salt)
    : NetworkApi(fabric.eventQueue(), job_topo), fabric_(fabric),
      placement_(placement), tagSalt_(tag_salt)
{
    ASTRA_ASSERT(job_topo.npus() == placement.size(),
                 "job topology (%d NPUs) does not match placement (%d)",
                 job_topo.npus(), placement.size());
    // Per-job traffic stats live in *cluster* dimension space so job
    // reports are comparable with fabric-level (and plain-Simulator)
    // reports; re-size the base-class arrays accordingly.
    const Topology &cluster = fabric_.topology();
    stats_.bytesPerDim.assign(static_cast<size_t>(cluster.numDims()),
                              0.0);
    stats_.busyTimePerDim.assign(
        static_cast<size_t>(cluster.numDims()), 0.0);
    stats_.linksPerDim.assign(static_cast<size_t>(cluster.numDims()), 0);
    ownBusy_.assign(static_cast<size_t>(cluster.numDims()), 0.0);
}

uint64_t
RankViewNetwork::xlatTag(uint64_t tag) const
{
    if (tag == kNoTag)
        return tag; // callback-only traffic skips matching entirely.
    uint64_t salted = tag ^ tagSalt_;
    // A user tag crafted to collide with the sentinel after salting
    // would silently skip simRecv matching — reject it loudly.
    ASTRA_USER_CHECK(salted != kNoTag,
                     "job tag %llu collides with the reserved no-tag "
                     "sentinel under this job's tag namespace",
                     static_cast<unsigned long long>(tag));
    return salted;
}

NpuId
RankViewNetwork::globalOf(NpuId local) const
{
    ASTRA_ASSERT(local >= 0 && local < static_cast<NpuId>(
                                           placement_.globalOf.size()),
                 "job-local NPU %d out of range", local);
    return placement_.globalOf[static_cast<size_t>(local)];
}

void
RankViewNetwork::simSend(NpuId src, NpuId dst, Bytes bytes, int dim,
                         uint64_t tag, SendHandlers &&handlers)
{
    NpuId gsrc = globalOf(src);
    NpuId gdst = globalOf(dst);

    int cluster_dim = kAutoRoute;
    if (dim != kAutoRoute) {
        ASTRA_ASSERT(dim >= 0 && dim < topo_.numDims(),
                     "simSend: bad job dimension %d", dim);
        // Explicit placements carry no dimension map (dimMap empty):
        // every send falls back to dimension-ordered routing.
        if (static_cast<size_t>(dim) < placement_.dimMap.size())
            cluster_dim = placement_.dimMap[static_cast<size_t>(dim)];
    }

    if (gsrc != gdst) {
        // Per-job traffic accounting in cluster dimension space
        // (loopbacks are not network traffic, matching the backends).
        // kAutoRoute payload goes to the first dimension the
        // dimension-ordered path crosses.
        ++stats_.messages;
        int acct = cluster_dim;
        if (acct == kAutoRoute) {
            const Topology &cluster = fabric_.topology();
            for (int d = 0; d < cluster.numDims(); ++d) {
                if (cluster.coordInDim(gsrc, d) !=
                    cluster.coordInDim(gdst, d)) {
                    acct = d;
                    break;
                }
            }
        }
        if (acct >= 0)
            stats_.bytesPerDim[static_cast<size_t>(acct)] += bytes;
    }

    // Submit under this job's busy accumulator. The backends latch
    // the owner pointer per flow/message at submission (and charge it
    // as serialization accrues), so clearing it immediately after the
    // synchronous dispatch cannot leak attribution across tenants.
    fabric_.setSendOwner(&ownBusy_);
    fabric_.simSend(gsrc, gdst, bytes, cluster_dim, xlatTag(tag),
                    std::move(handlers));
    fabric_.setSendOwner(nullptr);
}

void
RankViewNetwork::simRecv(NpuId dst, NpuId src, uint64_t tag,
                         EventCallback &&cb)
{
    // Deliveries happen in the fabric's matching tables (simSend is
    // forwarded), so receives must be posted there too.
    fabric_.simRecv(globalOf(dst), globalOf(src), xlatTag(tag),
                    std::move(cb));
}

} // namespace cluster
} // namespace astra
