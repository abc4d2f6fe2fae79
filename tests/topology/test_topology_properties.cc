/**
 * @file
 * Property tests over random topologies: coordinate bijectivity,
 * group-factor tiling, hop-count symmetry, and every per-NPU query
 * against its mixed-radix / modular definition.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "topology/topology.h"

namespace astra {
namespace {

Topology
randomTopology(Rng &rng)
{
    int ndims = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<Dimension> dims;
    for (int d = 0; d < ndims; ++d) {
        Dimension dim;
        int types = static_cast<int>(rng.uniformInt(0, 2));
        dim.type = types == 0   ? BlockType::Ring
                   : types == 1 ? BlockType::FullyConnected
                                : BlockType::Switch;
        dim.size = static_cast<int>(rng.uniformInt(1, 8));
        dim.bandwidth = rng.uniform(10.0, 500.0);
        dim.latency = rng.uniform(0.0, 1000.0);
        dims.push_back(dim);
    }
    return Topology(std::move(dims));
}

TEST(TopologyProperty, CoordinateBijection)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        Topology topo = randomTopology(rng);
        std::set<std::vector<int>> seen;
        for (NpuId id = 0; id < topo.npus(); ++id) {
            std::vector<int> coords = topo.coordsOf(id);
            EXPECT_TRUE(seen.insert(coords).second);
            EXPECT_EQ(topo.idOf(coords), id);
            for (int d = 0; d < topo.numDims(); ++d)
                EXPECT_EQ(coords[size_t(d)], topo.coordInDim(id, d));
        }
    }
}

TEST(TopologyProperty, GroupsPartitionTheMachine)
{
    Rng rng(43);
    for (int trial = 0; trial < 50; ++trial) {
        Topology topo = randomTopology(rng);
        for (int d = 0; d < topo.numDims(); ++d) {
            std::set<NpuId> covered;
            for (NpuId id = 0; id < topo.npus(); ++id) {
                std::vector<NpuId> group = topo.groupInDim(id, d);
                EXPECT_EQ(group.size(), size_t(topo.dim(d).size));
                // The member with coordinate i sits at position i.
                for (size_t i = 0; i < group.size(); ++i)
                    EXPECT_EQ(topo.coordInDim(group[i], d), int(i));
                if (topo.coordInDim(id, d) == 0)
                    covered.insert(group.begin(), group.end());
            }
            EXPECT_EQ(covered.size(), size_t(topo.npus()));
        }
    }
}

TEST(TopologyProperty, StridedFactorsTile)
{
    // Any valid (size, stride) factor partitions the dimension into
    // equally-sized groups covering every NPU exactly once.
    Topology topo({{BlockType::Switch, 64, 100.0, 100.0}});
    for (int size : {2, 4, 8, 16, 32, 64}) {
        for (int stride : {1, 2, 4, 8}) {
            if (size * stride > 64 || 64 % (size * stride) != 0)
                continue;
            GroupDim g = topo.normalizeGroup(GroupDim{0, size, stride});
            std::map<NpuId, int> member_count;
            for (NpuId id = 0; id < 64; ++id) {
                NpuId base = topo.zeroGroup(id, g);
                EXPECT_EQ(topo.posInGroup(base, g), 0);
                // Walking size steps returns home.
                EXPECT_EQ(topo.peerInGroup(id, g, size), id);
                ++member_count[base];
            }
            for (const auto &[base, count] : member_count)
                EXPECT_EQ(count, size) << "size=" << size
                                       << " stride=" << stride;
        }
    }
}

TEST(TopologyProperty, HopsAreSymmetricAndBounded)
{
    Rng rng(44);
    for (int trial = 0; trial < 30; ++trial) {
        Topology topo = randomTopology(rng);
        int max_hops = 0;
        for (int d = 0; d < topo.numDims(); ++d) {
            switch (topo.dim(d).type) {
              case BlockType::Ring:
                max_hops += topo.dim(d).size / 2;
                break;
              case BlockType::FullyConnected:
                max_hops += 1;
                break;
              case BlockType::Switch:
                max_hops += 2;
                break;
            }
        }
        for (int trial2 = 0; trial2 < 20; ++trial2) {
            NpuId a = static_cast<NpuId>(
                rng.uniformInt(0, topo.npus() - 1));
            NpuId b = static_cast<NpuId>(
                rng.uniformInt(0, topo.npus() - 1));
            EXPECT_EQ(topo.hopsBetween(a, b), topo.hopsBetween(b, a));
            EXPECT_LE(topo.hopsBetween(a, b), max_hops);
            EXPECT_EQ(topo.hopsBetween(a, a), 0);
        }
    }
}

TEST(TopologyProperty, PeerWalksAreCyclic)
{
    Rng rng(45);
    for (int trial = 0; trial < 30; ++trial) {
        Topology topo = randomTopology(rng);
        for (int d = 0; d < topo.numDims(); ++d) {
            NpuId id = static_cast<NpuId>(
                rng.uniformInt(0, topo.npus() - 1));
            NpuId cur = id;
            for (int s = 0; s < topo.dim(d).size; ++s)
                cur = topo.peerInDim(cur, d, 1);
            EXPECT_EQ(cur, id);
        }
    }
}

/** Mixed-radix digits of `id` by repeated division (dim 0 fastest),
 *  independent of Topology's own tables. */
std::vector<int>
digitsOf(const std::vector<int> &sizes, int id)
{
    std::vector<int> digits;
    for (int k : sizes) {
        digits.push_back(id % k);
        id /= k;
    }
    return digits;
}

int
idOfDigits(const std::vector<int> &sizes, const std::vector<int> &digits)
{
    int id = 0;
    for (size_t d = sizes.size(); d-- > 0;)
        id = id * sizes[d] + digits[d];
    return id;
}

int
modulo(int a, int k)
{
    return ((a % k) + k) % k;
}

/** Native hop count of one dimension, from the block definitions. */
int
definedHops(BlockType type, int k, int a, int b)
{
    if (a == b)
        return 0;
    switch (type) {
      case BlockType::Ring:
        return std::min(modulo(b - a, k), modulo(a - b, k));
      case BlockType::FullyConnected:
        return 1;
      case BlockType::Switch:
        return 2;
    }
    return -1;
}

TEST(TopologyProperty, QueriesMatchMixedRadixDefinitions)
{
    // Shapes of 1-4 dims with sizes 1-9 over every block type; the
    // coverage counters below prove size-1 dims and all three types
    // were exercised.
    Rng rng(46);
    std::set<BlockType> types_seen;
    int size_one_dims = 0;
    int pair_checked_shapes = 0;
    for (int trial = 0; trial < 120; ++trial) {
        int ndims = static_cast<int>(rng.uniformInt(1, 4));
        std::vector<Dimension> dims;
        std::vector<int> sizes;
        for (int d = 0; d < ndims; ++d) {
            Dimension dim;
            dim.type = static_cast<BlockType>(rng.uniformInt(0, 2));
            dim.size = static_cast<int>(rng.uniformInt(1, 9));
            types_seen.insert(dim.type);
            size_one_dims += dim.size == 1 ? 1 : 0;
            sizes.push_back(dim.size);
            dims.push_back(dim);
        }
        Topology topo(dims);

        // Every tiling group factor of every dimension, plus the
        // whole-dimension shorthand (size 0).
        std::vector<GroupDim> factors;
        for (int d = 0; d < ndims; ++d) {
            int k = sizes[size_t(d)];
            factors.push_back(topo.normalizeGroup(GroupDim{d, 0, 1}));
            for (int size = 1; size <= k; ++size)
                for (int stride = 1; size * stride <= k; ++stride)
                    if (k % (size * stride) == 0)
                        factors.push_back(
                            topo.normalizeGroup(GroupDim{d, size, stride}));
        }

        for (NpuId id = 0; id < topo.npus(); ++id) {
            std::vector<int> digits = digitsOf(sizes, id);
            for (int d = 0; d < ndims; ++d) {
                int k = sizes[size_t(d)];
                ASSERT_EQ(topo.coordInDim(id, d), digits[size_t(d)])
                    << topo.notation() << " id " << id << " dim " << d;
                for (int offset : {-k - 1, -1, 0, 1, 2, k, 2 * k + 1}) {
                    std::vector<int> peer = digits;
                    peer[size_t(d)] = modulo(digits[size_t(d)] + offset, k);
                    ASSERT_EQ(topo.peerInDim(id, d, offset),
                              idOfDigits(sizes, peer))
                        << topo.notation() << " id " << id << " dim " << d
                        << " offset " << offset;
                }
            }
            for (const GroupDim &g : factors) {
                int coord = digits[size_t(g.dim)];
                int pos = (coord / g.stride) % g.size;
                ASSERT_EQ(topo.posInGroup(id, g), pos)
                    << topo.notation() << " id " << id << " group {"
                    << g.dim << "," << g.size << "," << g.stride << "}";
                std::vector<int> base = digits;
                base[size_t(g.dim)] = coord - pos * g.stride;
                ASSERT_EQ(topo.zeroGroup(id, g), idOfDigits(sizes, base));
                for (int offset : {-1, 1, g.size + 1}) {
                    std::vector<int> peer = digits;
                    peer[size_t(g.dim)] =
                        coord +
                        (modulo(pos + offset, g.size) - pos) * g.stride;
                    ASSERT_EQ(topo.peerInGroup(id, g, offset),
                              idOfDigits(sizes, peer));
                }
            }
        }

        if (topo.npus() > 64)
            continue;
        ++pair_checked_shapes;
        for (NpuId a = 0; a < topo.npus(); ++a) {
            std::vector<int> da = digitsOf(sizes, a);
            for (NpuId b = 0; b < topo.npus(); ++b) {
                std::vector<int> db = digitsOf(sizes, b);
                int total = 0;
                for (int d = 0; d < ndims; ++d) {
                    int hops = definedHops(dims[size_t(d)].type,
                                           sizes[size_t(d)],
                                           da[size_t(d)], db[size_t(d)]);
                    ASSERT_EQ(topo.hopsInDim(da[size_t(d)], db[size_t(d)],
                                             d),
                              hops)
                        << topo.notation() << " dim " << d;
                    total += hops;
                }
                ASSERT_EQ(topo.hopsBetween(a, b), total)
                    << topo.notation() << " " << a << " -> " << b;
            }
        }
    }
    EXPECT_EQ(types_seen.size(), 3u);
    EXPECT_GT(size_one_dims, 0);
    EXPECT_GT(pair_checked_shapes, 10);
}

TEST(TopologyProperty, OutOfRangeQueriesPanic)
{
    // The inline lookups keep their range checks: a bad id or
    // dimension aborts with a message instead of reading past the
    // coordinate table.
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 100.0}});
    EXPECT_DEATH((void)topo.coordInDim(-1, 0), "NPU id -1 out of range");
    EXPECT_DEATH((void)topo.coordInDim(8, 0), "NPU id 8 out of range");
    EXPECT_DEATH((void)topo.coordInDim(0, -1),
                 "dimension index -1 out of range");
    EXPECT_DEATH((void)topo.coordInDim(0, 2),
                 "dimension index 2 out of range");
    EXPECT_DEATH((void)topo.dim(2), "dimension index 2 out of range");
    EXPECT_DEATH((void)topo.hopsInDim(0, 1, 2),
                 "dimension index 2 out of range");
}

} // namespace
} // namespace astra
