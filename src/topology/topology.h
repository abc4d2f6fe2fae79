/**
 * @file
 * Multi-dimensional hierarchical network topology representation
 * (paper §IV-B, Fig. 3).
 *
 * A topology is an ordered stack of building blocks. Dimension 1 (index
 * 0 here) is the innermost/fastest dimension (e.g., on-wafer or NVLink),
 * the last dimension is the outermost scale-out network (e.g., NIC).
 * NPU ids map to mixed-radix coordinates with dimension 0 varying
 * fastest, exactly like the `R(4)_SW(2)` notation in the paper: NPU id
 * = c0 + k0*(c1 + k1*(c2 + ...)).
 */
#ifndef ASTRA_TOPOLOGY_TOPOLOGY_H_
#define ASTRA_TOPOLOGY_TOPOLOGY_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/units.h"

namespace astra {

/** NPU identifier (dense, 0-based). */
using NpuId = int;

/** The three hierarchical building blocks of Fig. 3(a). */
enum class BlockType {
    Ring,           //!< Ring(k): two neighbours per NPU.
    FullyConnected, //!< FullyConnected(k): all-to-all links.
    Switch,         //!< Switch(k): external switch fabric.
};

/** Short and long printable names ("R"/"Ring"). */
const char *blockShortName(BlockType t);
const char *blockLongName(BlockType t);

/**
 * A collective group factor within one topology dimension.
 *
 * Most collectives span whole dimensions (`size == dimension size`,
 * `stride == 1`). Parallelization strategies mapped onto flat (e.g.,
 * wafer-scale) topologies need sub-groups of a dimension: `size`
 * members spaced `stride` apart in the dimension's coordinate space.
 * E.g., on Switch(512), model-parallel groups of 16 are
 * {dim=0, size=16, stride=1} and the matching data-parallel groups of
 * 32 are {dim=0, size=32, stride=16}.
 */
struct GroupDim
{
    int dim = 0;    //!< topology dimension index.
    int size = 0;   //!< members per group (0 = whole dimension).
    int stride = 1; //!< coordinate spacing between members.
};

/**
 * One network dimension: a building block plus its link parameters.
 *
 * `bandwidth` is the per-NPU aggregate bandwidth available in this
 * dimension (the BW/NPU figures of Table II). `latency` is the per-hop
 * link latency.
 */
struct Dimension
{
    BlockType type = BlockType::Ring;
    int size = 1;             //!< k: NPUs per instance of this block.
    GBps bandwidth = 100.0;   //!< per-NPU aggregate bandwidth, GB/s.
    TimeNs latency = 500.0;   //!< per-hop link latency, ns.
};

/**
 * An N-dimensional hierarchical topology assembled from building
 * blocks (the "multi-dimensional topology assembler" of Fig. 3(b)).
 */
class Topology
{
  public:
    /** Build from explicit dimensions; fatal() on invalid sizes. */
    explicit Topology(std::vector<Dimension> dims);

    int numDims() const { return static_cast<int>(dims_.size()); }

    const Dimension &
    dim(int d) const
    {
        if (static_cast<unsigned>(d) >= dims_.size())
            badDim(d);
        return dims_[static_cast<size_t>(d)];
    }
    const std::vector<Dimension> &dims() const { return dims_; }

    /** Total number of NPUs (product of dimension sizes). */
    int npus() const { return npus_; }

    /** Mixed-radix coordinates of `id`, dimension 0 first. */
    std::vector<int> coordsOf(NpuId id) const;

    /** Inverse of coordsOf(). */
    NpuId idOf(const std::vector<int> &coords) const;

    /** Coordinate of `id` within dimension `d`: one load from the
     *  coordinate table built by the constructor. */
    int
    coordInDim(NpuId id, int d) const
    {
        if (static_cast<unsigned>(id) >= static_cast<unsigned>(npus_))
            badNpu(id);
        if (static_cast<unsigned>(d) >= dims_.size())
            badDim(d);
        return coords_[static_cast<size_t>(id) * dims_.size() +
                       static_cast<size_t>(d)];
    }

    /** NPU-id delta corresponding to one step along dimension `d`. */
    int strideOf(int d) const;

    /**
     * The NPUs forming `id`'s collective group in dimension `d`: all
     * NPUs sharing every coordinate except dimension `d`, ordered by
     * their dim-`d` coordinate (so group[i] has coordinate i).
     */
    std::vector<NpuId> groupInDim(NpuId id, int d) const;

    /** Peer reached by moving `offset` steps along dimension `d`
     *  (wrapping modulo the dimension size). */
    NpuId peerInDim(NpuId id, int d, int offset) const;

    /**
     * Hop count between two NPUs in dimension `d` under the block's
     * native routing: Ring = minimal ring distance, FullyConnected = 1,
     * Switch = 2 (NPU-switch-NPU). Returns 0 for the same coordinate.
     * Both coordinates must lie in [0, dim(d).size).
     */
    int
    hopsInDim(int coord_a, int coord_b, int d) const
    {
        if (coord_a == coord_b)
            return 0;
        const Dimension &block = dim(d);
        switch (block.type) {
          case BlockType::Ring: {
            // Both coordinates lie in [0, k), so one conditional add
            // gives the forward distance.
            int fwd = coord_b - coord_a;
            if (fwd < 0)
                fwd += block.size;
            return std::min(fwd, block.size - fwd);
          }
          case BlockType::FullyConnected:
            return 1;
          case BlockType::Switch:
            return 2;
        }
        return 0;
    }

    /**
     * Total hop count of dimension-ordered routing between two NPUs
     * (sum of per-dimension hops).
     */
    int hopsBetween(NpuId a, NpuId b) const;

    /** Normalize and validate a group factor; fatal() on user error
     *  (size/stride must tile the dimension). size==0 expands to the
     *  whole dimension. */
    GroupDim normalizeGroup(const GroupDim &g) const;

    /** Position of `id` within its group under factor `g`. */
    int posInGroup(NpuId id, const GroupDim &g) const;

    /** Member of `id`'s group `offset` positions away (wrapping). */
    NpuId peerInGroup(NpuId id, const GroupDim &g, int offset) const;

    /** `id` with its position under `g` zeroed (group's canonical
     *  representative; equal for all members of the same group). */
    NpuId zeroGroup(NpuId id, const GroupDim &g) const;

    /** Shape string, e.g. "2_8_8_4". */
    std::string shapeString() const;

    /** Full notation, e.g. "Ring(2)_FullyConnected(8)_Switch(4)". */
    std::string notation() const;

    /** Aggregate per-NPU injection bandwidth (sum over dimensions). */
    GBps totalBandwidthPerNpu() const;

  private:
    /** panic() with the out-of-range NPU id or dimension (kept out of
     *  line so the inline lookups stay small). */
    [[noreturn]] void badNpu(NpuId id) const;
    [[noreturn]] void badDim(int d) const;

    std::vector<Dimension> dims_;
    std::vector<int> stride_; //!< stride_[d]: id delta per unit of dim d.
    /** coords_[id * numDims() + d]: coordinate of `id` in dim `d`. */
    std::vector<int> coords_;
    int npus_ = 1;
};

} // namespace astra

#endif // ASTRA_TOPOLOGY_TOPOLOGY_H_
