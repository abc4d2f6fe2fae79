#include "workload/et_json.h"

#include <climits>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace astra {

namespace {

constexpr const char *kSchema = "astra-sim-et-v2";

json::Value
nodeToJson(const EtNode &node)
{
    json::Object o;
    o["id"] = json::Value(node.id);
    o["type"] = json::Value(nodeTypeName(node.type));
    if (!node.name.empty())
        o["name"] = json::Value(node.name);
    if (!node.deps.empty()) {
        json::Array deps;
        for (int d : node.deps)
            deps.push_back(json::Value(d));
        o["deps"] = json::Value(std::move(deps));
    }
    switch (node.type) {
      case NodeType::Compute:
        o["flops"] = json::Value(node.flops);
        o["tensor_bytes"] = json::Value(node.tensorBytes);
        break;
      case NodeType::Memory:
        o["op"] = json::Value(memOpName(node.memOp));
        o["location"] = json::Value(memLocationName(node.location));
        o["bytes"] = json::Value(node.memBytes);
        if (node.fused)
            o["fused"] = json::Value(true);
        break;
      case NodeType::CommColl: {
        o["coll"] = json::Value(collectiveName(node.coll));
        o["bytes"] = json::Value(node.commBytes);
        // JSON numbers are doubles: keys beyond 2^53 would silently
        // collide after a round trip.
        ASTRA_USER_CHECK(node.commKey < (1ULL << 53),
                         "ET node %d: collective key %llu too large to "
                         "serialize",
                         node.id,
                         static_cast<unsigned long long>(node.commKey));
        o["key"] = json::Value(static_cast<double>(node.commKey));
        if (!node.groups.empty()) {
            json::Array groups;
            for (const GroupDim &g : node.groups) {
                json::Object go;
                go["dim"] = json::Value(g.dim);
                go["size"] = json::Value(g.size);
                go["stride"] = json::Value(g.stride);
                groups.push_back(json::Value(std::move(go)));
            }
            o["groups"] = json::Value(std::move(groups));
        }
        break;
      }
      case NodeType::CommSend:
        o["peer"] = json::Value(node.peer);
        o["bytes"] = json::Value(node.p2pBytes);
        o["tag"] = json::Value(static_cast<double>(node.tag));
        break;
      case NodeType::CommRecv:
        o["peer"] = json::Value(node.peer);
        o["tag"] = json::Value(static_cast<double>(node.tag));
        break;
    }
    return json::Value(std::move(o));
}

/** A place in the document, named in decode errors. */
struct Where
{
    size_t graph;
    size_t node = SIZE_MAX;  //!< SIZE_MAX: the graph itself.
    size_t group = SIZE_MAX; //!< SIZE_MAX: the node itself.

    std::string
    str() const
    {
        std::string s = "graphs[" + std::to_string(graph) + "]";
        if (node != SIZE_MAX)
            s += ".nodes[" + std::to_string(node) + "]";
        if (group != SIZE_MAX)
            s += ".groups[" + std::to_string(group) + "]";
        return s;
    }
};

// JSON numbers are doubles. ET integers are range-checked before any
// conversion, since a cast of an out-of-range double is undefined.

int
toInt(double v, const Where &at, const char *key)
{
    // Round half away from zero, as json::Value::asInt() does.
    double r = std::round(v);
    ASTRA_USER_CHECK(r >= double(INT_MIN) && r <= double(INT_MAX),
                     "ET %s: '%s' = %.17g is outside the int range",
                     at.str().c_str(), key, v);
    return static_cast<int>(r);
}

uint64_t
toKey(double v, const Where &at, const char *key)
{
    // Truncate toward zero. Every integer up to 2^53 is exactly a
    // double; above it, not every one is.
    double t = std::trunc(v);
    ASTRA_USER_CHECK(t >= 0.0 && t <= 0x1p53,
                     "ET %s: '%s' = %.17g is outside [0, 2^53]",
                     at.str().c_str(), key, v);
    return static_cast<uint64_t>(t);
}

/**
 * The type-dependent fields of one node as read. Which EtNode field
 * a key fills (`bytes` above all) depends on `type`, and our writer
 * emits keys sorted, so `type` comes last.
 */
struct PendingNode
{
    struct Group
    {
        bool hasDim = false;
        double dim = 0.0;
        double size = 0.0;
        double stride = 1.0;
    };

    bool hasId = false;
    bool hasType = false;
    bool hasColl = false;
    bool hasPeer = false;
    std::string type;
    std::string op = "load";
    std::string location = "local";
    std::string coll;
    bool fused = false;
    double flops = 0.0;
    double tensorBytes = 0.0;
    double bytes = 0.0;
    double key = 0.0;
    double peer = 0.0;
    double tag = 0.0;
    std::vector<Group> groups;
};

void
readGroups(json::Reader &r, std::string &key,
           std::vector<PendingNode::Group> &groups)
{
    groups.clear();
    r.beginArray();
    while (r.nextElement()) {
        PendingNode::Group g;
        r.beginObject();
        while (r.nextKey(key)) {
            if (key == "dim") {
                g.dim = r.readNumber();
                g.hasDim = true;
            } else if (key == "size") {
                g.size = r.readNumber();
            } else if (key == "stride") {
                g.stride = r.readNumber();
            } else {
                r.skipValue();
            }
        }
        groups.push_back(g);
    }
}

EtNode
readNode(json::Reader &r, std::string &key, const Where &at)
{
    EtNode node;
    PendingNode p;
    r.beginObject();
    while (r.nextKey(key)) {
        std::string_view k = key;
        if (k == "id") {
            node.id = toInt(r.readNumber(), at, "id");
            p.hasId = true;
        } else if (k == "deps") {
            node.deps.clear();
            r.beginArray();
            while (r.nextElement())
                node.deps.push_back(toInt(r.readNumber(), at, "deps"));
        } else if (k == "type") {
            r.readString(p.type);
            p.hasType = true;
        } else if (k == "name") {
            r.readString(node.name);
        } else if (k == "bytes") {
            p.bytes = r.readNumber();
        } else if (k == "flops") {
            p.flops = r.readNumber();
        } else if (k == "tensor_bytes") {
            p.tensorBytes = r.readNumber();
        } else if (k == "coll") {
            r.readString(p.coll);
            p.hasColl = true;
        } else if (k == "key") {
            p.key = r.readNumber();
        } else if (k == "groups") {
            readGroups(r, key, p.groups);
        } else if (k == "peer") {
            p.peer = r.readNumber();
            p.hasPeer = true;
        } else if (k == "tag") {
            p.tag = r.readNumber();
        } else if (k == "op") {
            r.readString(p.op);
        } else if (k == "location") {
            r.readString(p.location);
        } else if (k == "fused") {
            p.fused = r.readBool();
        } else {
            r.skipValue();
        }
    }
    auto require = [&](bool has, const char *name) {
        ASTRA_USER_CHECK(has, "ET %s: missing key '%s'", at.str().c_str(),
                         name);
    };
    require(p.hasId, "id");
    require(p.hasType, "type");
    node.type = parseNodeType(p.type);
    switch (node.type) {
      case NodeType::Compute:
        node.flops = p.flops;
        node.tensorBytes = p.tensorBytes;
        break;
      case NodeType::Memory:
        node.memOp = p.op == "store" ? MemOp::Store : MemOp::Load;
        node.location = p.location == "remote" ? MemLocation::Remote
                                               : MemLocation::Local;
        node.memBytes = p.bytes;
        node.fused = p.fused;
        break;
      case NodeType::CommColl:
        require(p.hasColl, "coll");
        node.coll = parseCollectiveType(p.coll);
        node.commBytes = p.bytes;
        node.commKey = toKey(p.key, at, "key");
        node.groups.reserve(p.groups.size());
        for (size_t i = 0; i < p.groups.size(); ++i) {
            const PendingNode::Group &g = p.groups[i];
            Where gat{at.graph, at.node, i};
            ASTRA_USER_CHECK(g.hasDim, "ET %s: missing key 'dim'",
                             gat.str().c_str());
            GroupDim gd;
            gd.dim = toInt(g.dim, gat, "dim");
            gd.size = toInt(g.size, gat, "size");
            gd.stride = toInt(g.stride, gat, "stride");
            node.groups.push_back(gd);
        }
        break;
      case NodeType::CommSend:
        require(p.hasPeer, "peer");
        node.peer = toInt(p.peer, at, "peer");
        node.p2pBytes = p.bytes;
        node.tag = toKey(p.tag, at, "tag");
        break;
      case NodeType::CommRecv:
        require(p.hasPeer, "peer");
        node.peer = toInt(p.peer, at, "peer");
        node.tag = toKey(p.tag, at, "tag");
        break;
    }
    return node;
}

EtGraph
readGraph(json::Reader &r, std::string &key, size_t index)
{
    EtGraph graph;
    bool has_npu = false, has_nodes = false;
    r.beginObject();
    while (r.nextKey(key)) {
        if (key == "npu") {
            graph.npu = toInt(r.readNumber(), Where{index}, "npu");
            has_npu = true;
        } else if (key == "nodes") {
            graph.nodes.clear();
            has_nodes = true;
            r.beginArray();
            for (size_t n = 0; r.nextElement(); ++n)
                graph.nodes.push_back(readNode(r, key, Where{index, n}));
        } else {
            r.skipValue();
        }
    }
    ASTRA_USER_CHECK(has_npu && has_nodes, "ET graphs[%zu]: missing key '%s'",
                     index, has_npu ? "nodes" : "npu");
    return graph;
}

Workload
decodeWorkload(json::Reader &r)
{
    Workload wl;
    wl.name = "trace";
    std::string key, schema = "<missing>";
    double npus = 0.0;
    bool has_npus = false, has_graphs = false;
    r.beginObject();
    while (r.nextKey(key)) {
        if (key == "graphs") {
            wl.graphs.clear();
            has_graphs = true;
            r.beginArray();
            while (r.nextElement())
                wl.graphs.push_back(readGraph(r, key, wl.graphs.size()));
        } else if (key == "schema") {
            r.readString(schema);
        } else if (key == "name") {
            r.readString(wl.name);
        } else if (key == "npus") {
            npus = r.readNumber();
            has_npus = true;
        } else {
            r.skipValue();
        }
    }
    r.finish();
    ASTRA_USER_CHECK(schema == kSchema,
                     "ET document schema is '%s', expected '%s' (use the "
                     "converter for external trace formats)",
                     schema.c_str(), kSchema);
    ASTRA_USER_CHECK(has_npus && has_graphs,
                     "ET document: missing key '%s'",
                     has_npus ? "graphs" : "npus");
    ASTRA_USER_CHECK(std::round(npus) == double(wl.graphs.size()),
                     "ET document: npus=%.17g but %zu graphs", npus,
                     wl.graphs.size());
    return wl;
}

} // namespace

json::Value
workloadToJson(const Workload &wl)
{
    json::Object doc;
    doc["schema"] = json::Value(kSchema);
    doc["name"] = json::Value(wl.name);
    doc["npus"] = json::Value(static_cast<int64_t>(wl.graphs.size()));
    json::Array graphs;
    for (const EtGraph &g : wl.graphs) {
        json::Object go;
        go["npu"] = json::Value(g.npu);
        json::Array nodes;
        for (const EtNode &node : g.nodes)
            nodes.push_back(nodeToJson(node));
        go["nodes"] = json::Value(std::move(nodes));
        graphs.push_back(json::Value(std::move(go)));
    }
    doc["graphs"] = json::Value(std::move(graphs));
    return json::Value(std::move(doc));
}

void
saveWorkload(const std::string &path, const Workload &wl)
{
    json::writeFile(path, workloadToJson(wl));
}

Workload
workloadFromJson(std::string_view text)
{
    json::Reader r(text);
    return decodeWorkload(r);
}

Workload
loadWorkload(const std::string &path)
{
    // One window of the file is in memory at a time, and no
    // json::Value tree is built (docs/workload.md, memory contract).
    json::Reader r = json::Reader::openFile(path);
    return decodeWorkload(r);
}

} // namespace astra
