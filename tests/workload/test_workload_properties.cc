/**
 * @file
 * Property tests over the workload builders: every generated trace
 * must validate, execute to completion on a real simulator, and honor
 * structural invariants across parameter sweeps (including failure
 * injection on malformed traces).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <set>

#include "astra/simulator.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/builders.h"
#include "workload/et_json.h"

namespace astra {
namespace {

TEST(WorkloadProperty, HybridSweepValidatesAndRuns)
{
    Topology topo({{BlockType::Ring, 2, 200.0, 200.0},
                   {BlockType::FullyConnected, 4, 100.0, 300.0},
                   {BlockType::Switch, 2, 25.0, 600.0}});
    for (int mp : {1, 2, 4, 8, 16}) {
        HybridOptions opts;
        opts.mp = mp;
        opts.simLayers = 2;
        Workload wl = buildHybridTransformer(topo, gpt3(), opts);
        EXPECT_NO_THROW(validateWorkload(wl, topo.npus())) << mp;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(wl);
        EXPECT_GT(r.totalTime, 0.0) << mp;
        // Every NPU's breakdown integrates to the makespan.
        for (const RuntimeBreakdown &b : r.perNpu)
            EXPECT_NEAR(b.total(), r.totalTime, 1.0);
    }
}

TEST(WorkloadProperty, MoreModelParallelismCutsPerNpuCompute)
{
    Topology topo({{BlockType::Switch, 16, 300.0, 300.0}});
    double prev_compute = 1e300;
    for (int mp : {1, 2, 4, 8, 16}) {
        HybridOptions opts;
        opts.mp = mp;
        opts.simLayers = 2;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(buildHybridTransformer(topo, gpt3(), opts));
        EXPECT_LT(r.average.compute, prev_compute) << mp;
        prev_compute = r.average.compute;
    }
}

TEST(WorkloadProperty, IterationsScaleRuntimeLinearly)
{
    Topology topo({{BlockType::Ring, 4, 150.0, 300.0}});
    auto run_iters = [&](int iters) {
        HybridOptions opts;
        opts.mp = 1;
        opts.simLayers = 2;
        opts.iterations = iters;
        Simulator sim(topo, SimulatorConfig{});
        return sim.run(buildHybridTransformer(topo, gpt3(), opts))
            .totalTime;
    };
    TimeNs one = run_iters(1);
    TimeNs three = run_iters(3);
    EXPECT_NEAR(three / one, 3.0, 0.1);
}

TEST(WorkloadProperty, PipelineSweepsRunToCompletion)
{
    for (int stages : {2, 3, 8}) {
        for (int micro : {1, 2, 7}) {
            Topology topo(
                {{BlockType::Ring, stages, 150.0, 300.0}});
            PipelineOptions opts;
            opts.microbatches = micro;
            Workload wl = buildPipelineParallel(topo, gpt3(), opts);
            EXPECT_NO_THROW(validateWorkload(wl, stages));
            Simulator sim(topo, SimulatorConfig{});
            Report r = sim.run(wl);
            EXPECT_GT(r.totalTime, 0.0)
                << stages << "s/" << micro << "m";
        }
    }
}

TEST(WorkloadProperty, PipelineBubbleMatchesGpipeFormula)
{
    // With communication made negligible, the idle fraction must track
    // the analytical GPipe bubble (S-1)/(M+S-1).
    int stages = 4;
    Topology topo({{BlockType::Ring, stages, 10000.0, 1.0}});
    for (int micro : {2, 8, 32}) {
        PipelineOptions opts;
        opts.microbatches = micro;
        Simulator sim(topo, SimulatorConfig{});
        Report r = sim.run(buildPipelineParallel(topo, gpt3(), opts));
        double stall = (r.average.idle + r.average.exposedComm) /
                       r.totalTime;
        double ideal =
            double(stages - 1) / double(micro + stages - 1);
        EXPECT_NEAR(stall, ideal, 0.05) << micro;
    }
}

TEST(WorkloadProperty, MoeTracesRunOnBothPaths)
{
    Topology topo({{BlockType::Switch, 4, 300.0, 300.0},
                   {BlockType::Switch, 4, 25.0, 700.0}});
    for (ParamPath path :
         {ParamPath::NetworkCollectives, ParamPath::FusedInSwitch}) {
        SimulatorConfig cfg;
        RemoteMemoryConfig pool;
        pool.numNodes = 4;
        pool.gpusPerNode = 4;
        cfg.pooledMem = pool;
        MoEOptions opts;
        opts.path = path;
        opts.simLayers = 2;
        ModelDesc model = moe1T();
        model.tokensPerBatch = 1 << 14;
        Workload wl = buildMoEDisaggregated(topo, model, opts);
        EXPECT_NO_THROW(validateWorkload(wl, topo.npus()));
        Simulator sim(topo, cfg);
        Report r = sim.run(wl);
        EXPECT_GT(r.totalTime, 0.0);
    }
}

TEST(WorkloadProperty, BuilderTracesSurviveJsonRoundTrip)
{
    Topology topo({{BlockType::Ring, 2, 200.0, 200.0},
                   {BlockType::Switch, 4, 50.0, 400.0}});
    std::vector<Workload> traces;
    HybridOptions h;
    h.mp = 2;
    h.simLayers = 2;
    traces.push_back(buildHybridTransformer(topo, gpt3(), h));
    traces.push_back(buildDlrm(topo, dlrm(), {}));
    traces.push_back(
        buildSingleCollective(topo, CollectiveType::AllToAll, 1e6));
    PipelineOptions p;
    p.microbatches = 2;
    traces.push_back(buildPipelineParallel(topo, gpt3(), p));
    for (const Workload &wl : traces) {
        Workload back = workloadFromJson(workloadToJson(wl).dump());
        EXPECT_EQ(workloadToJson(back).dump(), workloadToJson(wl).dump())
            << wl.name;
    }
}

/** A small serialized trace for the corruption tests. */
struct CorruptionFixture
{
    Topology topo = Topology({{BlockType::Ring, 2, 200.0, 200.0}});
    std::string good;

    CorruptionFixture()
    {
        HybridOptions opts;
        opts.mp = 1;
        opts.simLayers = 1;
        good = workloadToJson(buildHybridTransformer(topo, gpt3(), opts))
                   .dump();
    }
};

/** 200 structured mutations (byte flips, drops, inserts) of @p good. */
std::vector<std::string>
corruptedTraces(const std::string &good)
{
    Rng rng(7);
    std::vector<std::string> out;
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutated = good;
        int mutations = static_cast<int>(rng.uniformInt(1, 3));
        for (int m = 0; m < mutations; ++m) {
            size_t pos = static_cast<size_t>(
                rng.uniformInt(0, int64_t(mutated.size() - 1)));
            switch (rng.uniformInt(0, 2)) {
              case 0:
                mutated[pos] =
                    char(rng.uniformInt(32, 126)); // flip a byte.
                break;
              case 1:
                mutated.erase(pos, 1); // drop a byte.
                break;
              default:
                mutated.insert(pos, 1,
                               char(rng.uniformInt(32, 126)));
            }
        }
        out.push_back(std::move(mutated));
    }
    return out;
}

TEST(WorkloadFailureInjection, CorruptedTracesAreRejectedNotCrashed)
{
    // Every mutation must either parse+validate or throw FatalError.
    CorruptionFixture fx;
    int rejected = 0, accepted = 0;
    for (const std::string &mutated : corruptedTraces(fx.good)) {
        try {
            Workload back = workloadFromJson(mutated);
            validateWorkload(back, fx.topo.npus());
            ++accepted; // harmless mutation (e.g., inside a name).
        } catch (const FatalError &) {
            ++rejected; // graceful rejection.
        }
        // Anything else (segfault, std::bad_alloc, assertion) fails
        // the test by crashing.
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(rejected + accepted, 200);
}

// ------------------------------------------------------------------
// Reference ET decoder: the json::Value-tree decoder the loader used
// before it decoded text directly, kept as the oracle for the
// streaming decoder. It differs from the original only where that
// was undefined (see refKey) and in recording, in RefFlags, the
// documents the streaming decoder rejects by design.

struct RefFlags
{
    /** An integer field the reference reads is outside the range the
     *  streaming decoder enforces (docs/workload.md). */
    bool outOfRange = false;
    /** A key the node's type ignores holds a value of the wrong kind;
     *  the streaming decoder checks every known key's kind as it
     *  reads it, before it knows the type. */
    bool ignoredKind = false;
};

int
refInt(const json::Value &v, RefFlags &f)
{
    double r = std::round(v.asNumber());
    if (!(r >= double(INT_MIN) && r <= double(INT_MAX)))
        f.outOfRange = true;
    return static_cast<int>(v.asInt());
}

uint64_t
refKey(double v, RefFlags &f)
{
    double t = std::trunc(v);
    if (t >= 0.0 && t <= 0x1p53)
        return static_cast<uint64_t>(v);
    f.outOfRange = true;
    // Outside [0, 2^64) the original cast was undefined.
    return t >= 0.0 && t < 0x1p64 ? static_cast<uint64_t>(v) : 0;
}

void
refCheckIgnoredKinds(const json::Value &v, NodeType type, RefFlags &f)
{
    auto numbers = [](const json::Value &x) { return x.isNumber(); };
    auto strings = [](const json::Value &x) { return x.isString(); };
    auto groups = [](const json::Value &x) {
        if (!x.isArray())
            return false;
        for (const json::Value &g : x.asArray()) {
            if (!g.isObject())
                return false;
            for (const char *k : {"dim", "size", "stride"})
                if (g.has(k) && !g.at(k).isNumber())
                    return false;
        }
        return true;
    };
    struct Field
    {
        const char *key;
        std::function<bool(const json::Value &)> kindOk;
        std::vector<NodeType> usedBy;
    };
    using T = NodeType;
    const Field fields[] = {
        {"flops", numbers, {T::Compute}},
        {"tensor_bytes", numbers, {T::Compute}},
        {"op", strings, {T::Memory}},
        {"location", strings, {T::Memory}},
        {"fused", [](const json::Value &x) { return x.isBool(); },
         {T::Memory}},
        {"bytes", numbers, {T::Memory, T::CommColl, T::CommSend}},
        {"coll", strings, {T::CommColl}},
        {"key", numbers, {T::CommColl}},
        {"groups", groups, {T::CommColl}},
        {"peer", numbers, {T::CommSend, T::CommRecv}},
        {"tag", numbers, {T::CommSend, T::CommRecv}},
    };
    for (const Field &fd : fields) {
        bool used = std::find(fd.usedBy.begin(), fd.usedBy.end(), type) !=
                    fd.usedBy.end();
        if (!used && v.has(fd.key) && !fd.kindOk(v.at(fd.key)))
            f.ignoredKind = true;
    }
}

EtNode
refNodeFromJson(const json::Value &v, RefFlags &f)
{
    EtNode node;
    node.id = refInt(v.at("id"), f);
    node.type = parseNodeType(v.at("type").asString());
    refCheckIgnoredKinds(v, node.type, f);
    node.name = v.getString("name", "");
    if (v.has("deps"))
        for (const json::Value &d : v.at("deps").asArray())
            node.deps.push_back(refInt(d, f));
    switch (node.type) {
      case NodeType::Compute:
        node.flops = v.getNumber("flops", 0.0);
        node.tensorBytes = v.getNumber("tensor_bytes", 0.0);
        break;
      case NodeType::Memory:
        node.memOp = v.getString("op", "load") == "store" ? MemOp::Store
                                                          : MemOp::Load;
        node.location = v.getString("location", "local") == "remote"
                            ? MemLocation::Remote
                            : MemLocation::Local;
        node.memBytes = v.getNumber("bytes", 0.0);
        node.fused = v.getBool("fused", false);
        break;
      case NodeType::CommColl: {
        node.coll = parseCollectiveType(v.at("coll").asString());
        node.commBytes = v.getNumber("bytes", 0.0);
        node.commKey = refKey(v.getNumber("key", 0.0), f);
        if (v.has("groups")) {
            for (const json::Value &g : v.at("groups").asArray()) {
                GroupDim gd;
                gd.dim = refInt(g.at("dim"), f);
                gd.size = g.has("size") ? refInt(g.at("size"), f) : 0;
                gd.stride = g.has("stride") ? refInt(g.at("stride"), f) : 1;
                node.groups.push_back(gd);
            }
        }
        break;
      }
      case NodeType::CommSend:
        node.peer = refInt(v.at("peer"), f);
        node.p2pBytes = v.getNumber("bytes", 0.0);
        node.tag = refKey(v.getNumber("tag", 0.0), f);
        break;
      case NodeType::CommRecv:
        node.peer = refInt(v.at("peer"), f);
        node.tag = refKey(v.getNumber("tag", 0.0), f);
        break;
    }
    return node;
}

Workload
refWorkloadFromJson(const json::Value &doc, RefFlags &f)
{
    ASTRA_USER_CHECK(doc.getString("schema", "") == "astra-sim-et-v2",
                     "wrong schema");
    Workload wl;
    wl.name = doc.getString("name", "trace");
    int64_t npus = doc.at("npus").asInt();
    const json::Array &graphs = doc.at("graphs").asArray();
    ASTRA_USER_CHECK(static_cast<int64_t>(graphs.size()) == npus,
                     "npus mismatch");
    for (const json::Value &g : graphs) {
        EtGraph graph;
        graph.npu = refInt(g.at("npu"), f);
        for (const json::Value &n : g.at("nodes").asArray())
            graph.nodes.push_back(refNodeFromJson(n, f));
        wl.graphs.push_back(std::move(graph));
    }
    return wl;
}

/** A decoder's verdict on a document: accepted, and if so the
 *  canonical re-serialization of what it decoded. */
struct Verdict
{
    bool accepted = false;
    std::string canonical;
};

template <typename Decode>
Verdict
verdictOf(Decode &&decode)
{
    try {
        return {true, workloadToJson(decode()).dump()};
    } catch (const FatalError &) {
        return {};
    }
}

/** Tally of the differential runs, for checking coverage. */
struct DiffTally
{
    int accepted = 0;
    int rejected = 0;
    int byDesign = 0; //!< flagged by RefFlags: only the new one rejects.
};

void
expectSameVerdict(const std::string &doc, DiffTally &tally,
                  const std::string &label)
{
    RefFlags flags;
    Verdict ref = verdictOf(
        [&] { return refWorkloadFromJson(json::parse(doc), flags); });
    Verdict neu = verdictOf([&] { return workloadFromJson(doc); });
    if (flags.outOfRange || flags.ignoredKind) {
        EXPECT_FALSE(neu.accepted) << label;
        ++tally.byDesign;
        return;
    }
    ASSERT_EQ(ref.accepted, neu.accepted) << label << "\n" << doc;
    EXPECT_EQ(ref.canonical, neu.canonical) << label;
    ++(neu.accepted ? tally.accepted : tally.rejected);
}

/** Writing variations for valid re-serializations of a document. */
struct Variation
{
    bool shuffleKeys = false;
    bool duplicateKeys = false; //!< emit a decoy first; the last wins.
    bool unknownKeys = false;
    bool escapeStrings = false; //!< \u-escape ASCII in keys and strings.
    bool oddWhitespace = false;
};

class VariedWriter
{
  public:
    VariedWriter(const Variation &v, uint64_t seed) : var_(v), rng_(seed)
    {}

    std::string
    write(const json::Value &v)
    {
        out_.clear();
        value(v);
        space();
        return out_;
    }

  private:
    void
    space()
    {
        if (!var_.oddWhitespace)
            return;
        static const char kWs[] = {' ', '\t', '\n', '\r'};
        for (int64_t n = rng_.uniformInt(0, 3); n > 0; --n)
            out_ += kWs[rng_.uniformInt(0, 3)];
    }

    void
    string(const std::string &s)
    {
        if (!var_.escapeStrings) {
            out_ += json::Value(s).dump();
            return;
        }
        out_ += '"';
        for (char c : s) {
            if (c >= 0x20 && c < 0x7f && rng_.uniformInt(0, 1)) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04X", unsigned(c));
                out_ += buf;
            } else {
                std::string one = json::Value(std::string(1, c)).dump();
                out_.append(one, 1, one.size() - 2);
            }
        }
        out_ += '"';
    }

    void
    member(const std::string &key, const json::Value &v)
    {
        space();
        string(key);
        space();
        out_ += ':';
        value(v);
    }

    /** A value of the same kind as @p v, shadowed by v itself. */
    static json::Value
    decoy(const json::Value &v)
    {
        switch (v.kind()) {
          case json::Kind::Number: return json::Value(v.asNumber() + 7);
          case json::Kind::String: return json::Value("decoy");
          case json::Kind::Bool: return json::Value(!v.asBool());
          case json::Kind::Array: {
            // Twice the elements: a decoder that appends to the first
            // occurrence instead of replacing it shows.
            json::Array twice = v.asArray();
            twice.insert(twice.end(), v.asArray().begin(),
                         v.asArray().end());
            return json::Value(std::move(twice));
          }
          case json::Kind::Object: return json::Value(json::Object{});
          case json::Kind::Null: break;
        }
        return v;
    }

    void
    value(const json::Value &v)
    {
        space();
        switch (v.kind()) {
          case json::Kind::String:
            string(v.asString());
            break;
          case json::Kind::Array: {
            out_ += '[';
            const char *sep = "";
            for (const json::Value &e : v.asArray()) {
                out_ += sep;
                value(e);
                sep = ",";
            }
            space();
            out_ += ']';
            break;
          }
          case json::Kind::Object: {
            std::vector<std::pair<std::string, json::Value>> members(
                v.asObject().begin(), v.asObject().end());
            if (var_.shuffleKeys)
                for (size_t i = members.size(); i > 1; --i)
                    std::swap(members[i - 1],
                              members[rng_.uniformInt(0, int64_t(i - 1))]);
            out_ += '{';
            const char *sep = "";
            auto emit = [&](const std::string &k, const json::Value &x) {
                out_ += sep;
                member(k, x);
                sep = ",";
            };
            for (const auto &[k, x] : members) {
                if (var_.unknownKeys && rng_.uniformInt(0, 3) == 0)
                    emit("x_unknown", unknownValue());
                if (var_.duplicateKeys && rng_.uniformInt(0, 2) == 0)
                    emit(k, decoy(x));
                emit(k, x);
            }
            space();
            out_ += '}';
            break;
          }
          default:
            out_ += v.dump();
        }
    }

    json::Value
    unknownValue()
    {
        static const json::Value kUnknown = json::parse(
            R"({"a":[1,"s",null,true,{"b":-2.5e-3,"c":[]}],"d":"é"})");
        switch (rng_.uniformInt(0, 3)) {
          case 0: return kUnknown;
          case 1: return json::Value(nullptr);
          case 2: return json::Value("type");
          default: return json::Value(-1e300);
        }
    }

    Variation var_;
    Rng rng_;
    std::string out_;
};

TEST(WorkloadFailureInjection, StreamingDecoderMatchesReferenceDecoder)
{
    DiffTally tally;

    // The corruption set: both decoders accept and reject alike.
    CorruptionFixture fx;
    std::vector<std::string> corrupted = corruptedTraces(fx.good);
    for (size_t i = 0; i < corrupted.size(); ++i)
        expectSameVerdict(corrupted[i], tally,
                          "mutation " + std::to_string(i));
    EXPECT_GT(tally.accepted, 0);
    EXPECT_GT(tally.rejected, 0);

    // Valid re-serializations of traces with every node type (named,
    // so the names carry non-ASCII text through the escapes).
    Topology topo({{BlockType::Switch, 4, 300.0, 300.0},
                   {BlockType::Switch, 2, 25.0, 700.0}});
    std::vector<Workload> traces;
    HybridOptions h;
    h.mp = 4;
    h.simLayers = 1;
    traces.push_back(buildHybridTransformer(topo, gpt3(), h));
    PipelineOptions p;
    p.microbatches = 2;
    traces.push_back(buildPipelineParallel(topo, gpt3(), p));
    MoEOptions moe;
    moe.simLayers = 1;
    traces.push_back(buildMoEDisaggregated(topo, moe1T(), moe));
    traces.back().graphs[0].nodes[0].name = "caf\xc3\xa9 \xe4\xb8\xad\n";
    std::set<NodeType> types;
    for (const Workload &wl : traces)
        for (const EtGraph &g : wl.graphs)
            for (const EtNode &n : g.nodes)
                types.insert(n.type);
    ASSERT_EQ(types.size(), 5u); // every node type is exercised.
    EXPECT_FALSE(traces[0].graphs[0].nodes[1].groups.empty());
    const Variation variations[] = {
        {true, false, false, false, false},
        {false, true, false, false, false},
        {false, false, true, false, false},
        {false, false, false, true, false},
        {false, false, false, false, true},
        {true, true, true, true, true},
    };
    int valid = 0;
    for (const Workload &wl : traces) {
        json::Value doc = workloadToJson(wl);
        std::string canonical = doc.dump();
        for (size_t v = 0; v < std::size(variations); ++v) {
            for (uint64_t seed = 1; seed <= 3; ++seed) {
                std::string text =
                    VariedWriter(variations[v], seed).write(doc);
                std::string label = wl.name + " variation " +
                                    std::to_string(v) + " seed " +
                                    std::to_string(seed);
                ASSERT_NE(text, canonical) << label;
                expectSameVerdict(text, tally, label);
                EXPECT_EQ(workloadToJson(workloadFromJson(text)).dump(),
                          canonical)
                    << label;
                ++valid;
            }
        }
    }
    EXPECT_EQ(valid, 54);

    // \u escapes, including ones outside ASCII, in a node name.
    const std::string escaped =
        R"({"schema":"astra-sim-et-v2","npus":1,"graphs":[{"npu":0,)"
        R"("nodes":[{"id":0,"type":"compute",)"
        R"("name":"\u00e9\u4e2d\u0041\/\n"}]}]})";
    expectSameVerdict(escaped, tally, "escaped name");
    EXPECT_EQ(workloadFromJson(escaped).graphs[0].nodes[0].name,
              "\xc3\xa9\xe4\xb8\xad" "A/\n");

    // The differences by design are flagged, and the new decoder
    // rejects them: out-of-range integers and a wrong-kind value
    // under a key the node's type ignores.
    int by_design = tally.byDesign;
    for (const char *node :
         {R"({"id":0,"type":"comm_send","peer":1,"tag":-1})",
          R"({"id":0,"type":"comm_coll","coll":"all_reduce","key":1e17})",
          R"({"id":4294967296,"type":"compute"})",
          R"({"id":0,"type":"compute","bytes":"many"})",
          R"({"id":0,"type":"comm_recv","peer":0,"groups":[7]})"})
        expectSameVerdict(
            R"({"schema":"astra-sim-et-v2","npus":1,"graphs":[{"npu":0,)"
            R"("nodes":[)" + std::string(node) + "]}]}",
            tally, node);
    EXPECT_EQ(tally.byDesign, by_design + 5);
}

TEST(WorkloadFailureInjection, MismatchedCollectiveGroupsAreFatal)
{
    // Two NPUs join the same key with different group shapes: the
    // second group never completes -> engine reports a deadlock.
    Topology topo({{BlockType::Switch, 4, 100.0, 100.0}});
    Workload wl;
    wl.name = "mismatch";
    for (NpuId n = 0; n < 4; ++n) {
        EtGraph g;
        g.npu = n;
        EtNode coll;
        coll.id = 0;
        coll.type = NodeType::CommColl;
        coll.coll = CollectiveType::AllReduce;
        coll.commBytes = 1e6;
        coll.commKey = 5;
        // NPUs 0/1 expect a group of 2; NPUs 2/3 expect the whole dim:
        // their instance waits for members 0/1 forever.
        coll.groups = (n < 2) ? std::vector<GroupDim>{{0, 2, 1}}
                              : std::vector<GroupDim>{{0, 4, 1}};
        g.nodes.push_back(coll);
        wl.graphs.push_back(std::move(g));
    }
    validateWorkload(wl, 4);
    Simulator sim(topo, SimulatorConfig{});
    EXPECT_THROW(sim.run(wl), FatalError);
}

} // namespace
} // namespace astra
