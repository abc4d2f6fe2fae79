/** @file Unit tests for ET JSON (de)serialization. */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "../common/token_splits.h"
#include "common/logging.h"
#include "common/rng.h"
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

using testing_json::errorOf;
using testing_json::Lexed;
using testing_json::Tok;
using testing_json::writeTemp;

constexpr size_t kWindow = json::Reader::kWindowBytes;

/**
 * A GPT-3 hybrid builder workload made to exercise the file windows,
 * seeded: every node gets a name that opens with a quote, `\u` and `\n`
 * escapes and goes on with random escapes, control characters and
 * UTF-8; compute flops are in exponent form; every fourth node becomes
 * a fused remote store; each graph ends with a send/recv pair. The
 * first node's long name is padded so that in the compact dump a
 * store's `true`, its id and its name's escapes sit in the 64 bytes
 * before the first refill.
 */
Workload
windowedWorkload(uint64_t seed)
{
    static const char *const kPieces[] = {"w", "Q", "-", "\"", "\\",
                                          "\n", "\t", "\x02", "\xc3\xa9"};
    const int64_t pieces = int64_t(std::size(kPieces));
    Topology topo({{BlockType::Ring, 8, 100.0, 100.0},
                   {BlockType::Switch, 8, 50.0, 100.0}});
    HybridOptions opts;
    opts.mp = 8;
    opts.simLayers = 7;
    Workload wl = buildHybridTransformer(topo, gpt3(), opts);
    Rng rng(seed);
    for (EtGraph &g : wl.graphs) {
        for (EtNode &node : g.nodes) {
            node.name = "\"\x02\n\x02";
            size_t len = &node == &wl.graphs[0].nodes[0]
                             ? 3000
                             : size_t(rng.uniformInt(4, 10));
            while (node.name.size() < len)
                node.name += kPieces[rng.uniformInt(0, pieces - 1)];
            if (node.id % 4 == 3) {
                node.type = NodeType::Memory;
                node.memOp = MemOp::Store;
                node.location = MemLocation::Remote;
                node.memBytes = 1.25e-3 * node.id;
                node.fused = true;
            } else if (node.type == NodeType::Compute) {
                node.flops = rng.uniform(1.0, 10.0) *
                             std::pow(10.0, double(rng.uniformInt(16, 300)));
            }
        }
        EtNode send;
        send.id = int(g.nodes.size());
        send.type = NodeType::CommSend;
        send.peer = (g.npu + 1) % int(wl.graphs.size());
        send.p2pBytes = 4096;
        send.tag = uint64_t(rng.uniformInt(0, 1 << 30));
        EtNode recv = send;
        recv.id = send.id + 1;
        recv.type = NodeType::CommRecv;
        g.nodes.push_back(send);
        g.nodes.push_back(recv);
    }
    // Everything after the first name moves with its length.
    const std::string text = workloadToJson(wl).dump();
    size_t fused = text.rfind("\"fused\":true", kWindow - 68);
    wl.graphs[0].nodes[0].name.append(kWindow - 60 - (fused + 8), 'w');
    return wl;
}

TEST(EtJsonFile, StreamedLoadsMatchTheInMemoryDecode)
{
    const json::Value doc = workloadToJson(windowedWorkload(5));
    const std::string expect = doc.dump();
    std::set<Tok> split;
    for (int indent : {-1, 2}) {
        const std::string text = doc.dump(indent);
        ASSERT_GT(text.size(), 2 * kWindow);
        ASSERT_EQ(workloadToJson(workloadFromJson(text)).dump(), expect);
        Lexed lexed(text);
        for (size_t shift = 0; shift < 64; ++shift) {
            std::string path = writeTemp("astra_et_split.json",
                                         std::string(shift, '\n') + text);
            EXPECT_EQ(workloadToJson(loadWorkload(path)).dump(), expect)
                << "indent " << indent << " shift " << shift;
            if (Tok k; lexed.splitAt(kWindow - shift, k))
                split.insert(k);
        }
    }
    // The first refill fell inside every kind of multi-byte token.
    EXPECT_EQ(split, (std::set<Tok>{Tok::Space, Tok::String, Tok::Escape,
                                    Tok::UEscape, Tok::Number,
                                    Tok::Literal}));
}

TEST(EtJsonFile, NameLongerThanTheWindow)
{
    Workload wl = richWorkload();
    wl.graphs[1].nodes[2].name = std::string(kWindow + 999, 'x') + "\x01";
    std::string path = testing::TempDir() + "/astra_et_long.json";
    saveWorkload(path, wl);
    Workload back = loadWorkload(path);
    EXPECT_EQ(back.graphs[1].nodes[2].name, wl.graphs[1].nodes[2].name);
    EXPECT_EQ(workloadToJson(back).dump(), workloadToJson(wl).dump());
}

TEST(EtJsonFile, ErrorsMatchTheInMemoryDecode)
{
    const std::string text = workloadToJson(windowedWorkload(9)).dump(2);
    ASSERT_GT(text.size(), 2 * kWindow);
    auto same = [](const std::string &doc) {
        std::string path = writeTemp("astra_et_bad.json", doc);
        std::string mem = errorOf([&] { workloadFromJson(doc); });
        EXPECT_NE(mem, "");
        EXPECT_EQ(errorOf([&] { loadWorkload(path); }), mem);
    };
    // A file that ends inside a string.
    size_t quote = text.rfind("\"name\"");
    same(text.substr(0, quote + 12));
    EXPECT_NE(errorOf([&] { workloadFromJson(text.substr(0, quote + 12)); })
                  .find("unexpected end of input"),
              std::string::npos);
    // A syntax error in the last window.
    std::string bad = text;
    bad.replace(bad.rfind(':'), 1, " ");
    same(bad);
    // A schema error found after the last window.
    same(text.substr(0, text.rfind('}')) + ", \"npus\": 3}");
    EXPECT_EQ(errorOf([] { loadWorkload("/nonexistent/et.json"); }),
              "json: cannot open '/nonexistent/et.json'");
}

} // namespace
} // namespace astra
