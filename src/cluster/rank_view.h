/**
 * @file
 * Rank-translation network view for multi-tenant co-execution
 * (docs/cluster.md).
 *
 * A RankViewNetwork is the NetworkApi a *job* sees: it presents the
 * job's private sliced topology (so the collective engine derives
 * rings/trees/groups in job-local id space) and forwards every
 * simSend/simRecv to the cluster's real backend with local ids
 * translated to cluster NPUs and job dimensions translated to cluster
 * dimensions. All traffic of all jobs therefore shares one link graph
 * and one event queue — inter-job contention emerges from the backend
 * (max-min fair sharing under `flow`, store-and-forward queueing under
 * `packet`) rather than from any cluster-level model.
 *
 * Translation rules:
 *  - ids: local -> JobPlacement::globalOf[local].
 *  - dims: job dim d -> dimMap[d] when aligned (sliced placements;
 *    the translated pair then differs in exactly that cluster
 *    dimension), else kAutoRoute (explicit placements).
 *  - tags are salted with a per-job namespace in the high bits.
 *    Disjoint placements keep *concurrent* tenants from colliding in
 *    the fabric's (src, dst, tag) matching space, but NPUs are
 *    *reused over time*: a finished job's still-unmatched delivery
 *    (a send whose receiver never posted) must not satisfy a
 *    successor tenant's simRecv on the same global ids. The salt
 *    keeps every job's matching keys private across reuse; kNoTag
 *    (callback-only traffic) passes through untouched.
 *
 * The view keeps per-job traffic stats in *cluster* dimension space
 * (messages + payload bytes, attributed to the mapped dimension or
 * the first dimension a dimension-ordered path crosses). Link busy
 * time is not separable per job on a shared fabric — the cluster
 * simulator reports fabric-level busy deltas over the job's
 * residency instead (see ClusterSimulator).
 *
 * The view adds zero events and zero timing of its own, which is what
 * makes a single-job cluster run byte-identical to a plain Simulator
 * run (the equivalence the cluster tests pin down).
 */
#ifndef ASTRA_CLUSTER_RANK_VIEW_H_
#define ASTRA_CLUSTER_RANK_VIEW_H_

#include "cluster/placement.h"
#include "network/network_api.h"

namespace astra {
namespace cluster {

/** See file comment. */
class RankViewNetwork : public NetworkApi
{
  public:
    /**
     * @param fabric     the cluster's shared backend (borrowed).
     * @param job_topo   the job's sliced topology (borrowed; must
     *                   outlive the view — owned by the job runtime).
     * @param placement  local->global mapping (borrowed likewise).
     * @param tag_salt   per-job tag namespace XORed into every
     *                   non-kNoTag tag (high bits; see file comment).
     */
    RankViewNetwork(NetworkApi &fabric, const Topology &job_topo,
                    const JobPlacement &placement, uint64_t tag_salt);

    void simSend(NpuId src, NpuId dst, Bytes bytes, int dim, uint64_t tag,
                 SendHandlers &&handlers) override;

    void simRecv(NpuId dst, NpuId src, uint64_t tag,
                 EventCallback &&cb) override;

    NpuId globalOf(NpuId local) const;

    const JobPlacement &placement() const { return placement_; }
    NetworkApi &fabric() { return fabric_; }

    /**
     * This job's own link-busy time per *cluster* dimension: the
     * serialization time of this job's packets/flows/sends on fabric
     * links, attributed via the backend's send-owner channel
     * (NetworkApi::setSendOwner). Unlike the fabric-level busy deltas
     * in the cluster report (which include all co-tenants), this is
     * separable per job: each view installs its own accumulator for
     * the duration of its forwarded simSend calls, and the backends
     * charge serialization to whichever accumulator the send was
     * submitted under. Grows monotonically while the job's traffic
     * drains; read at finalize time.
     */
    const std::vector<double> &ownBusy() const { return ownBusy_; }

  private:
    uint64_t xlatTag(uint64_t tag) const;

    NetworkApi &fabric_;
    const JobPlacement &placement_;
    uint64_t tagSalt_;
    std::vector<double> ownBusy_;
};

} // namespace cluster
} // namespace astra

#endif // ASTRA_CLUSTER_RANK_VIEW_H_
