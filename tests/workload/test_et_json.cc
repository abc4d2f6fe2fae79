/** @file Unit tests for ET JSON (de)serialization. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "workload/builders.h"
#include "workload/et_json.h"

namespace astra {
namespace {

Workload
richWorkload()
{
    Workload wl;
    wl.name = "rich";
    for (NpuId n = 0; n < 2; ++n) {
        EtGraph g;
        g.npu = n;

        EtNode c;
        c.id = 0;
        c.type = NodeType::Compute;
        c.name = "fwd";
        c.flops = 1.5e9;
        c.tensorBytes = 3e6;

        EtNode m;
        m.id = 1;
        m.type = NodeType::Memory;
        m.location = MemLocation::Remote;
        m.memOp = MemOp::Store;
        m.memBytes = 2e6;
        m.fused = true;
        m.deps = {0};

        EtNode coll;
        coll.id = 2;
        coll.type = NodeType::CommColl;
        coll.coll = CollectiveType::ReduceScatter;
        coll.commBytes = 8e6;
        coll.commKey = 991;
        coll.groups = {GroupDim{0, 2, 1}};
        coll.deps = {0, 1};

        EtNode send;
        send.id = 3;
        send.type = NodeType::CommSend;
        send.peer = 1 - n;
        send.p2pBytes = 5e5;
        send.tag = 17;
        send.deps = {2};

        EtNode recv;
        recv.id = 4;
        recv.type = NodeType::CommRecv;
        recv.peer = 1 - n;
        recv.tag = 17;
        recv.deps = {2};

        g.nodes = {c, m, coll, send, recv};
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

TEST(EtJson, RoundTripPreservesEverything)
{
    Workload wl = richWorkload();
    Workload back = workloadFromJson(workloadToJson(wl).dump());
    ASSERT_EQ(back.graphs.size(), wl.graphs.size());
    EXPECT_EQ(back.name, wl.name);
    for (size_t g = 0; g < wl.graphs.size(); ++g) {
        ASSERT_EQ(back.graphs[g].nodes.size(), wl.graphs[g].nodes.size());
        for (size_t i = 0; i < wl.graphs[g].nodes.size(); ++i) {
            const EtNode &a = wl.graphs[g].nodes[i];
            const EtNode &b = back.graphs[g].nodes[i];
            EXPECT_EQ(a.id, b.id);
            EXPECT_EQ(a.type, b.type);
            EXPECT_EQ(a.deps, b.deps);
            EXPECT_DOUBLE_EQ(a.flops, b.flops);
            EXPECT_DOUBLE_EQ(a.tensorBytes, b.tensorBytes);
            EXPECT_EQ(a.location, b.location);
            EXPECT_EQ(a.memOp, b.memOp);
            EXPECT_DOUBLE_EQ(a.memBytes, b.memBytes);
            EXPECT_EQ(a.fused, b.fused);
            EXPECT_EQ(a.coll, b.coll);
            EXPECT_DOUBLE_EQ(a.commBytes, b.commBytes);
            EXPECT_EQ(a.commKey, b.commKey);
            ASSERT_EQ(a.groups.size(), b.groups.size());
            for (size_t k = 0; k < a.groups.size(); ++k) {
                EXPECT_EQ(a.groups[k].dim, b.groups[k].dim);
                EXPECT_EQ(a.groups[k].size, b.groups[k].size);
                EXPECT_EQ(a.groups[k].stride, b.groups[k].stride);
            }
            EXPECT_EQ(a.peer, b.peer);
            EXPECT_DOUBLE_EQ(a.p2pBytes, b.p2pBytes);
            EXPECT_EQ(a.tag, b.tag);
        }
    }
}

TEST(EtJson, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/astra_et_test.json";
    Workload wl = richWorkload();
    saveWorkload(path, wl);
    Workload back = loadWorkload(path);
    EXPECT_EQ(workloadToJson(back).dump(), workloadToJson(wl).dump());
}

TEST(EtJson, BuilderWorkloadsRoundTrip)
{
    Topology topo({{BlockType::Ring, 2, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 2;
    Workload wl =
        buildHybridTransformer(topo, gpt3(), opts);
    Workload back = workloadFromJson(workloadToJson(wl).dump());
    EXPECT_EQ(workloadToJson(back).dump(), workloadToJson(wl).dump());
    EXPECT_NO_THROW(validateWorkload(back, topo.npus()));
}

TEST(EtJson, RejectsWrongSchema)
{
    EXPECT_THROW(workloadFromJson(R"({"schema":"pytorch-et"})"),
                 FatalError);
    EXPECT_THROW(workloadFromJson(R"({"schema":"astra-sim-et-v2","npus":2,
                                      "graphs":[]})"),
                 FatalError);
}

TEST(EtJson, KeysMayComeInAnyOrder)
{
    // Header, graph and node keys in reverse of the writer's sorted
    // order, so `type` is read first and `schema` last.
    Workload wl = workloadFromJson(R"({
        "graphs": [{"nodes": [
            {"type": "comm_send", "tag": 9, "peer": 1, "id": 0, "bytes": 64},
            {"type": "compute", "tensor_bytes": 2, "id": 1, "flops": 5,
             "deps": [0]}], "npu": 0}],
        "npus": 1, "name": "order", "schema": "astra-sim-et-v2"})");
    ASSERT_EQ(wl.graphs.size(), 1u);
    const EtNode &send = wl.graphs[0].nodes[0];
    EXPECT_EQ(send.type, NodeType::CommSend);
    EXPECT_EQ(send.tag, 9u);
    EXPECT_EQ(send.peer, 1);
    EXPECT_DOUBLE_EQ(send.p2pBytes, 64.0);
    const EtNode &comp = wl.graphs[0].nodes[1];
    EXPECT_DOUBLE_EQ(comp.flops, 5.0);
    EXPECT_EQ(comp.deps, std::vector<int>{0});
    EXPECT_EQ(wl.name, "order");
}

/** A one-NPU document holding @p node as its only node. */
std::string
oneNodeDoc(const std::string &node)
{
    return R"({"schema":"astra-sim-et-v2","npus":1,"graphs":[{"npu":0,)"
           R"("nodes":[)" + node + "]}]}";
}

std::string
decodeError(const std::string &doc)
{
    try {
        workloadFromJson(doc);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(EtJson, OutOfRangeIntegersAreFatalAndNamed)
{
    struct Case
    {
        const char *node;
        const char *key;
    };
    // Casting such doubles to the field's integer type was undefined.
    const Case cases[] = {
        {R"({"id":0,"type":"comm_send","peer":1,"tag":-1})", "'tag'"},
        {R"({"id":0,"type":"comm_recv","peer":1,"tag":1e300})", "'tag'"},
        {R"({"id":0,"type":"comm_send","peer":1,"tag":9007199254740994})",
         "'tag'"},
        {R"({"id":0,"type":"comm_coll","coll":"all_reduce","key":-1})",
         "'key'"},
        {R"({"id":0,"type":"comm_coll","coll":"all_reduce","key":1e20})",
         "'key'"},
        {R"({"id":3e9,"type":"compute"})", "'id'"},
        {R"({"id":0,"type":"comm_send","peer":-3e9,"tag":1})", "'peer'"},
        {R"({"id":0,"type":"compute","deps":[1e10]})", "'deps'"},
        {R"({"id":0,"type":"comm_coll","coll":"all_reduce",
             "groups":[{"dim":1e10}]})", "'dim'"},
        {R"({"id":0,"type":"comm_coll","coll":"all_reduce",
             "groups":[{"dim":0,"size":-1e12}]})", "'size'"},
        {R"({"id":0,"type":"comm_coll","coll":"all_reduce",
             "groups":[{"dim":0,"stride":4294967296}]})", "'stride'"},
    };
    for (const Case &c : cases) {
        std::string msg = decodeError(oneNodeDoc(c.node));
        EXPECT_NE(msg.find("graphs[0].nodes[0]"), std::string::npos)
            << c.node << " -> " << msg;
        EXPECT_NE(msg.find(c.key), std::string::npos)
            << c.node << " -> " << msg;
    }
    // The edges of each range still decode.
    Workload wl = workloadFromJson(oneNodeDoc(
        R"({"id":2147483647,"type":"comm_send","peer":-2147483648,)"
        R"("tag":9007199254740992})"));
    EXPECT_EQ(wl.graphs[0].nodes[0].id, 2147483647);
    EXPECT_EQ(wl.graphs[0].nodes[0].tag, 1ULL << 53);
    // A graph's npu is range-checked the same way.
    std::string msg = decodeError(
        R"({"schema":"astra-sim-et-v2","npus":1,)"
        R"("graphs":[{"npu":1e12,"nodes":[]}]})");
    EXPECT_NE(msg.find("graphs[0]: 'npu'"), std::string::npos) << msg;
}

} // namespace
} // namespace astra
