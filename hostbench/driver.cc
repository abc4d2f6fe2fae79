/**
 * @file
 * Host-performance benchmark driver (hostbench/README.md).
 *
 *   hostbench_driver info
 *   hostbench_driver gen WORKLOAD SEED DIR
 *   hostbench_driver run WORKLOAD DIR TRACED
 *   hostbench_driver setup WORKLOAD DIR
 *
 * `gen` writes every input a workload needs into DIR. `run` performs
 * one repetition from those files through the simulator's public entry
 * points — the ones astra_sim and sweep_runner use — and prints one
 * JSON object of metrics. Each layer is timed from outside, around the
 * public call into it; counters are read from what the program already
 * exposes. One process runs one repetition, so VmHWM is the peak
 * resident set of that repetition alone. `setup` performs only the
 * untraced setup of `run` and prints its time: run.py adds such
 * processes so that setup_s has more processes to take a median over.
 * Both commands print their times raw; run.py normalises them.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "astra/config.h"
#include "astra/simulator.h"
#include "common/json.h"
#include "common/logging.h"
#include "sweep/result_store.h"
#include "telemetry/telemetry.h"
#include "workload/builders.h"
#include "workload/et_json.h"

using namespace astra;

namespace {

enum class Kind { Et, Collective, Sweep };

/** The benchmark's workloads; README.md records why each exists. */
struct WorkloadDef
{
    const char *name;
    Kind kind;
    const char *topology;
    const char *backend;
    /** Trace detail of the companion traced run. */
    const char *traceDetail;
};

constexpr WorkloadDef kWorkloads[] = {
    {"gpt3_hybrid_512", Kind::Et, "R(2,250)_FC(8,200)_R(8,100)_SW(4,50)",
     "analytical", "full"},
    {"dlrm_packet_16", Kind::Et, "R(2,250)_FC(8,200)", "packet", "full"},
    // Full detail records one span per flow (1.05 M here); spans keeps
    // the traced process near the untraced one's footprint.
    {"allreduce_flow_4096", Kind::Collective, "R(8,200)_SW(512,50)", "flow",
     "spans"},
    {"hiermem_sweep_16", Kind::Sweep, "Switch(16,300,300)_Switch(16,25,700)",
     "analytical", "full"},
};

constexpr int kSweepThreads = 2;
constexpr int kSweepConfigs = 16;
constexpr double kAllReduceBytes = 64.0 * 1024 * 1024;

const WorkloadDef &
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return w;
    fatal("unknown workload '%s'", name.c_str());
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** 48-bit FNV-1a, so the digest survives a JSON double exactly. */
double
digest48(const std::string &text)
{
    uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return double(h >> 16);
}

/**
 * Comm-byte scale drawn from the seed: seed 0 is the unperturbed
 * workload, any other seed moves bytes within +-1%, which keeps every
 * workload's shape (graph, chunking, event structure) intact.
 */
double
seedScale(uint64_t seed)
{
    if (seed == 0)
        return 1.0;
    std::mt19937_64 rng(seed);
    return 0.99 + 0.02 * std::uniform_real_distribution<double>(0, 1)(rng);
}

json::Value
networkDoc(const WorkloadDef &w)
{
    json::Object net;
    net["topology"] = json::Value(w.topology);
    net["backend"] = json::Value(w.backend);
    return json::Value(std::move(net));
}

json::Value
traceDoc(const WorkloadDef &w)
{
    json::Object trace;
    trace["detail"] = json::Value(w.traceDetail);
    return json::Value(std::move(trace));
}

/**
 * The §V-B disaggregated-memory space in zip mode: config i pairs
 * remote-memory block i with parameter path i. The first half are
 * pooled hierarchical memory with fused in-switch collectives, the
 * second half ZeRO-Infinity tiers with network collectives.
 */
json::Value
sweepSpecDoc(const WorkloadDef &w, uint64_t seed, bool traced)
{
    std::mt19937_64 rng(seed);
    auto draw = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    json::Array memory, paths;
    for (int i = 0; i < kSweepConfigs; ++i) {
        json::Object mem;
        if (i < kSweepConfigs / 2) {
            int fabric = 256 * (seed == 0 ? i + 1 : draw(1, 8));
            int group = 100 * (seed == 0 ? i % 5 + 1 : draw(1, 5));
            mem["kind"] = json::Value("pooled");
            mem["in_node_fabric_bw_gbps"] = json::Value(fabric);
            mem["gpu_side_bw_gbps"] = json::Value(fabric);
            mem["remote_group_bw_gbps"] = json::Value(group);
            paths.push_back(json::Value("fused"));
        } else {
            int k = i - kSweepConfigs / 2;
            mem["kind"] = json::Value("zero-infinity");
            mem["tier_bw_gbps"] =
                json::Value(50 * (seed == 0 ? k + 1 : draw(1, 8)));
            paths.push_back(json::Value("network"));
        }
        memory.push_back(json::Value(std::move(mem)));
    }
    json::Value base = json::parse(R"json({
      "system": {"peak_tflops": 2048,
                 "local_memory": {"bandwidth_gbps": 4096}},
      "workload": {"kind": "moe", "model": "moe1t", "sim_layers": 4}
    })json");
    base.mutableObject()["topology"] = json::Value(w.topology);
    base.mutableObject()["backend"] = json::Value(w.backend);
    if (traced)
        base.mutableObject()["trace"] = traceDoc(w);

    json::Object memory_axis, path_axis;
    memory_axis["path"] = json::Value("system.remote_memory");
    memory_axis["name"] = json::Value("memory");
    memory_axis["values"] = json::Value(std::move(memory));
    path_axis["path"] = json::Value("workload.param_path");
    path_axis["values"] = json::Value(std::move(paths));
    json::Object spec;
    spec["name"] = json::Value(w.name);
    spec["mode"] = json::Value("zip");
    spec["base"] = std::move(base);
    spec["axes"] = json::Value(json::Array{json::Value(std::move(memory_axis)),
                                           json::Value(std::move(path_axis))});
    return json::Value(std::move(spec));
}

void
generate(const WorkloadDef &w, uint64_t seed, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    if (w.kind == Kind::Sweep) {
        json::writeFile(dir + "/spec.json", sweepSpecDoc(w, seed, false));
        json::writeFile(dir + "/spec_traced.json",
                        sweepSpecDoc(w, seed, true));
        return;
    }
    json::Value net = networkDoc(w);
    json::writeFile(dir + "/network.json", net);
    json::Object sys;
    if (std::string(w.name) == "gpt3_hybrid_512")
        sys["scheduling_policy"] = json::Value("themis");
    json::writeFile(dir + "/system.json", json::Value(std::move(sys)));
    json::writeFile(dir + "/trace.json", traceDoc(w));

    double scale = seedScale(seed);
    if (w.kind == Kind::Collective) {
        json::Object coll;
        coll["collective"] = json::Value("all-reduce");
        coll["bytes"] = json::Value(kAllReduceBytes * scale);
        json::writeFile(dir + "/collective.json", json::Value(std::move(coll)));
        return;
    }
    Topology topo = topologyFromJson(net);
    Workload wl;
    if (std::string(w.name) == "gpt3_hybrid_512") {
        HybridOptions opts;
        opts.mp = 16;
        wl = buildHybridTransformer(topo, gpt3(), opts);
    } else {
        wl = buildDlrm(topo, dlrm(), DlrmOptions{});
    }
    for (EtGraph &g : wl.graphs) {
        for (EtNode &n : g.nodes) {
            n.commBytes *= scale;
            n.p2pBytes *= scale;
        }
    }
    saveWorkload(dir + "/et.json", wl);
}

/** Largest |breakdown total - totalTime| over the report's NPUs. */
double
breakdownError(const Report &r)
{
    double err = 0.0;
    for (const RuntimeBreakdown &b : r.perNpu)
        err = std::max(err, std::abs(b.total() - r.totalTime));
    return err;
}

/**
 * Digest text of the simulated results: a reportToJson document
 * without the keys that only describe host-side observability (trace
 * counters, footprint), which a traced run changes by design.
 */
std::string
simulatedJson(json::Value doc)
{
    for (const char *key :
         {"trace_counters", "trace_histograms", "critical_path_ns",
          "trace_exposed_comm_per_dim_ns", "bottleneck_link",
          "bottleneck_link_share", "peak_footprint_bytes", "footprint",
          "bytes_per_flow", "bytes_per_npu", "telemetry_heartbeats"})
        doc.mutableObject().erase(key);
    return doc.dump();
}

/** Log2 bucket holding the 99th percentile of a log2 histogram. */
double
p99Bucket(const std::vector<uint64_t> &hist)
{
    uint64_t total = 0;
    for (uint64_t c : hist)
        total += c;
    uint64_t seen = 0;
    for (size_t b = 0; b < hist.size(); ++b) {
        seen += hist[b];
        if (seen * 100 >= total * 99)
            return double(b);
    }
    return 0.0;
}

double
counter(const std::map<std::string, double> &m, const char *key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** Counters only a traced run fills: trace events, sampled callback
 *  wall, the event-queue profile and flow-solver wall. */
void
addTraceMetrics(json::Object &out, const std::map<std::string, double> &vals,
                const std::map<std::string, double> &walls,
                const std::map<std::string, std::vector<uint64_t>> &hists)
{
    out["trace.events"] = json::Value(counter(vals, "trace_events"));
    out["trace.callbacks_s"] =
        json::Value(counter(walls, "wall_callbacks_seconds"));
    out["event.bucket_activations"] =
        json::Value(counter(vals, "queue_bucket_activations"));
    auto depth = hists.find("event_queue_depth_log2");
    out["event.queue_depth_p99_log2"] =
        json::Value(depth == hists.end() ? 0.0 : p99Bucket(depth->second));
    out["network.flow.solver_s"] =
        json::Value(counter(walls, "wall_solver_seconds"));
}

double
footprintOf(const Report &r, const char *subsystem)
{
    for (const auto &[name, bytes] : r.footprintBySubsystem)
        if (name == subsystem)
            return double(bytes);
    return 0.0;
}

/** Median of a non-empty sample. */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Per-phase setup times. Setup is repeated in-process until it has
 * taken kSetupBudgetS (at most kMaxSetups times), and each phase
 * reports its median. A setup of a millisecond or less is otherwise
 * sampled over a few milliseconds, where one burst of host noise
 * moves the median. The last setup's products are the ones run.
 */
constexpr double kSetupBudgetS = 0.05;
constexpr int kMaxSetups = 5000;

struct SetupTimes
{
    std::vector<double> parse, load, construct, total;

    template <class Fn>
    void repeat(Fn &&setup_once)
    {
        double spent = 0.0;
        for (int i = 0; i < kMaxSetups && (i == 0 || spent < kSetupBudgetS);
             ++i) {
            setup_once(*this);
            total.push_back(parse.back() + load.back() + construct.back());
            spent += total.back();
        }
    }
};

/** Inputs on disk to a runnable Simulator and its workload. */
struct SimSetup
{
    std::unique_ptr<Simulator> sim;
    Workload wl;
};

SimSetup
setUpSimulator(const WorkloadDef &w, const std::string &dir, bool traced,
               SetupTimes &times)
{
    SimSetup s;
    auto t0 = std::chrono::steady_clock::now();
    json::Value net_doc = json::parseFile(dir + "/network.json");
    Topology topo = topologyFromJson(net_doc);
    SimulatorConfig cfg = simulatorConfigFromJson(
        json::parseFile(dir + "/system.json"), backendFromJson(net_doc));
    if (traced)
        cfg.trace = trace::traceConfigFromJson(
            json::parseFile(dir + "/trace.json"), "trace");
    times.parse.push_back(secondsSince(t0));

    t0 = std::chrono::steady_clock::now();
    if (w.kind == Kind::Et) {
        s.wl = loadWorkload(dir + "/et.json");
    } else {
        json::Value coll = json::parseFile(dir + "/collective.json");
        s.wl = buildSingleCollective(
            topo, parseCollectiveType(coll.at("collective").asString()),
            coll.at("bytes").asNumber());
    }
    times.load.push_back(secondsSince(t0));

    t0 = std::chrono::steady_clock::now();
    s.sim = std::make_unique<Simulator>(std::move(topo), cfg);
    times.construct.push_back(secondsSince(t0));
    return s;
}

/** Repeated setup (SetupTimes::repeat); returns the last one. */
SimSetup
setUpSimulatorRepeated(const WorkloadDef &w, const std::string &dir,
                       bool traced, SetupTimes &times)
{
    SimSetup setup;
    times.repeat([&](SetupTimes &t) {
        setup = SimSetup{}; // release the previous setup first.
        setup = setUpSimulator(w, dir, traced, t);
    });
    return setup;
}

json::Object
runSimulator(const WorkloadDef &w, const std::string &dir, bool traced)
{
    json::Object out;
    SetupTimes times;
    SimSetup setup = setUpSimulatorRepeated(w, dir, traced, times);
    std::unique_ptr<Simulator> &sim = setup.sim;
    const Workload &wl = setup.wl;
    double et_bytes = w.kind == Kind::Et
                          ? double(std::filesystem::file_size(dir + "/et.json"))
                          : 0.0;

    auto t0 = std::chrono::steady_clock::now();
    Report report = sim->run(wl);
    double wall_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    json::Value report_doc = reportToJson(report);
    std::string report_text = report_doc.dump();
    double report_s = secondsSince(t0);
    (void)report_text;

    trace::Counters net_counters;
    sim->network().fillTraceCounters(net_counters);
    double instances = double(sim->collectives().completedInstances());

    t0 = std::chrono::steady_clock::now();
    sim.reset();
    double teardown_s = secondsSince(t0);

    out["setup_s"] = json::Value(median(times.total));
    out["wall_s"] = json::Value(wall_s);
    out["astra.config_parse_s"] = json::Value(median(times.parse));
    out["astra.construct_s"] = json::Value(median(times.construct));
    out["astra.report_s"] = json::Value(report_s);
    out["astra.teardown_s"] = json::Value(teardown_s);
    out["workload.et_load_s"] = json::Value(median(times.load));
    out["workload.et_bytes"] = json::Value(et_bytes);
    out["workload.nodes"] = json::Value(double(wl.totalNodes()));
    out["event.events"] = json::Value(double(report.events));
    out["event.host_ns_per_event"] = json::Value(
        wall_s * 1e9 / double(std::max<uint64_t>(report.events, 1)));
    out["collective.instances"] = json::Value(instances);
    double payload = 0.0;
    for (double b : report.bytesPerDim)
        payload += b;
    out["network.messages"] = json::Value(double(report.messages));
    out["network.payload_bytes"] = json::Value(payload);
    out["network.max_link_util"] = json::Value(report.maxLinkUtilization());
    out["network.flow.solves"] =
        json::Value(counter(net_counters.values, "solver_solves"));
    out["network.flow.flows_touched"] =
        json::Value(counter(net_counters.values, "solver_flows_touched"));
    out["network.flow.avg_component_frac"] =
        json::Value(counter(net_counters.values, "solver_avg_component_frac"));
    out["telemetry.footprint_mb"] =
        json::Value(double(report.peakFootprintBytes) / kMiB);
    out["telemetry.footprint.event_queue_mb"] =
        json::Value(footprintOf(report, "event_queue") / kMiB);
    out["telemetry.footprint.network_mb"] =
        json::Value(footprintOf(report, "network") / kMiB);
    out["telemetry.footprint.collectives_mb"] =
        json::Value(footprintOf(report, "collectives") / kMiB);
    out["telemetry.bytes_per_flow"] = json::Value(report.bytesPerFlow);
    addTraceMetrics(out, report.traceCounters, report.traceWallSeconds,
                    report.traceHistograms);
    out["sim.total_ns"] = json::Value(report.totalTime);
    out["sim.exposed_comm_frac"] = json::Value(report.exposedCommFraction());
    out["sim.digest"] =
        json::Value(digest48(simulatedJson(std::move(report_doc))));
    out["check.breakdown_max_err_ns"] = json::Value(breakdownError(report));
    out["check.failures"] = json::Value(0);
    return out;
}

/** Split one CSV line into fields, honouring double-quoted fields. */
std::vector<std::string>
csvSplit(const std::string &line)
{
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (char c : line) {
        if (c == '"')
            quoted = !quoted;
        if (c == ',' && !quoted)
            fields.emplace_back();
        else
            fields.back() += c;
    }
    return fields;
}

/**
 * The ResultStore CSV without the columns that depend on the config
 * document's identity or on host-side observability (`config` hashes
 * the document, which carries the trace block; footprints include the
 * tracer), so traced and untraced batches hash equal.
 */
std::string
simulatedCsv(const std::string &csv)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < csv.size()) {
        size_t end = csv.find('\n', start);
        lines.push_back(csv.substr(start, end - start));
        start = end == std::string::npos ? csv.size() : end + 1;
    }
    std::vector<bool> keep;
    for (const std::string &name : csvSplit(lines.front()))
        keep.push_back(name != "config" && name != "peak_footprint_bytes" &&
                       name != "bytes_per_flow");
    std::string out;
    for (const std::string &line : lines) {
        std::vector<std::string> fields = csvSplit(line);
        for (size_t i = 0; i < fields.size(); ++i)
            if (i >= keep.size() || keep[i])
                out += fields[i] + ',';
        out += '\n';
    }
    return out;
}

/**
 * Repeated sweep setup: the spec parse and its expansion. Per-config
 * Simulator construction happens inside runBatch.
 */
sweep::SweepSpec
setUpSweepRepeated(const std::string &dir, bool traced, SetupTimes &times)
{
    std::optional<sweep::SweepSpec> parsed;
    times.repeat([&](SetupTimes &t) {
        auto t0 = std::chrono::steady_clock::now();
        parsed = sweep::SweepSpec::fromJson(json::parseFile(
            dir + (traced ? "/spec_traced.json" : "/spec.json")));
        t.parse.push_back(secondsSince(t0));
        t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < parsed->configCount(); ++i)
            (void)parsed->config(i);
        t.load.push_back(secondsSince(t0));
        t.construct.push_back(0.0);
    });
    return std::move(*parsed);
}

json::Object
runSweep(const std::string &dir, bool traced)
{
    json::Object out;
    SetupTimes times;
    const sweep::SweepSpec spec = setUpSweepRepeated(dir, traced, times);
    size_t configs = spec.configCount();

    sweep::BatchOptions opts;
    opts.threads = kSweepThreads;
    auto t0 = std::chrono::steady_clock::now();
    sweep::BatchOutcome outcome = sweep::runBatch(spec, opts);
    double wall_s = secondsSince(t0);

    std::vector<double> row_walls;
    double events = 0, messages = 0, payload = 0, total_ns = 0;
    double comm_frac = 0, err = 0, footprint = 0, max_util = 0;
    std::map<std::string, double> vals, walls;
    std::map<std::string, std::vector<uint64_t>> hists;
    for (const sweep::SweepResult &r : outcome.results) {
        const Report &rep = r.report;
        row_walls.push_back(rep.wallSeconds);
        events += double(rep.events);
        messages += double(rep.messages);
        for (double b : rep.bytesPerDim)
            payload += b;
        total_ns += rep.totalTime;
        comm_frac += rep.exposedCommFraction() / double(configs);
        err = std::max(err, breakdownError(rep));
        footprint = std::max(footprint, double(rep.peakFootprintBytes));
        max_util = std::max(max_util, rep.maxLinkUtilization());
        for (const auto &[k, v] : rep.traceCounters)
            vals[k] += v;
        for (const auto &[k, v] : rep.traceWallSeconds)
            walls[k] += v;
        for (const auto &[k, h] : rep.traceHistograms) {
            std::vector<uint64_t> &sum = hists[k];
            sum.resize(std::max(sum.size(), h.size()), 0);
            for (size_t b = 0; b < h.size(); ++b)
                sum[b] += h[b];
        }
    }
    double busy = 0;
    for (double s : row_walls)
        busy += s;
    std::sort(row_walls.begin(), row_walls.end());
    double failures = double(outcome.failures);
    int threads = outcome.threadsUsed;

    t0 = std::chrono::steady_clock::now();
    sweep::ResultStore store =
        sweep::ResultStore::fromBatch(spec, std::move(outcome));
    std::string csv = store.toCsv();
    std::string store_json = store.toJson().dump();
    double render_s = secondsSince(t0);

    out["setup_s"] = json::Value(median(times.total));
    out["wall_s"] = json::Value(wall_s);
    out["astra.config_parse_s"] = json::Value(median(times.parse));
    out["sweep.expand_s"] = json::Value(median(times.load));
    out["sweep.store_render_s"] = json::Value(render_s);
    out["sweep.configs"] = json::Value(double(configs));
    out["sweep.failures"] = json::Value(failures);
    out["sweep.config_wall_p50_s"] =
        json::Value(row_walls.empty() ? 0.0 : row_walls[row_walls.size() / 2]);
    out["sweep.config_wall_max_s"] =
        json::Value(row_walls.empty() ? 0.0 : row_walls.back());
    out["sweep.worker_busy_frac"] =
        json::Value(busy / (double(threads) * wall_s));
    out["event.events"] = json::Value(events);
    out["event.host_ns_per_event"] =
        json::Value(busy * 1e9 / std::max(events, 1.0));
    out["network.messages"] = json::Value(messages);
    out["network.payload_bytes"] = json::Value(payload);
    out["network.max_link_util"] = json::Value(max_util);
    out["telemetry.footprint_mb"] = json::Value(footprint / kMiB);
    addTraceMetrics(out, vals, walls, hists);
    out["sim.total_ns"] = json::Value(total_ns);
    out["sim.exposed_comm_frac"] = json::Value(comm_frac);
    out["sim.digest"] = json::Value(digest48(simulatedCsv(csv)));
    out["check.breakdown_max_err_ns"] = json::Value(err);
    out["check.failures"] = json::Value(failures);
    (void)store_json;
    return out;
}

/**
 * One fixed unit of simulator-like host work: a binary heap of
 * timestamped events, a random pointer chase through 4 MiB, and small
 * heap allocations. Returns a checksum so the work cannot be dropped.
 */
uint64_t
probeWork()
{
    std::mt19937_64 rng(1);
    uint64_t sink = 0;

    using Event = std::pair<uint64_t, uint32_t>;
    std::vector<Event> heap;
    auto later = [](const Event &a, const Event &b) { return a > b; };
    for (uint32_t i = 0; i < (1u << 15); ++i) {
        heap.emplace_back(rng() >> 40, i);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    for (uint32_t i = 0; i < (1u << 17); ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Event e = heap.back();
        sink += e.second;
        heap.back() = Event{e.first + (rng() >> 44), e.second};
        std::push_heap(heap.begin(), heap.end(), later);
    }

    // Sattolo's shuffle: one cycle through every slot.
    std::vector<uint32_t> next(1u << 20);
    for (uint32_t i = 0; i < next.size(); ++i)
        next[i] = i;
    for (uint32_t i = uint32_t(next.size()) - 1; i > 0; --i)
        std::swap(next[i], next[rng() % i]);
    uint32_t at = 0;
    for (uint32_t i = 0; i < (1u << 19); ++i)
        at = next[at];
    sink += at;

    std::vector<std::unique_ptr<std::vector<uint64_t>>> blocks(1u << 12);
    for (uint32_t i = 0; i < (1u << 15); ++i) {
        auto &b = blocks[rng() % blocks.size()];
        b = std::make_unique<std::vector<uint64_t>>(1 + rng() % 32, i);
        sink += b->size();
    }
    return sink;
}

/**
 * Host-speed probe: seconds for `threads` threads to each finish one
 * probeWork(). The code and its inputs never change, so the time
 * tracks only how fast the host runs that many threads at the moment;
 * run.py uses it to report host times at a reference host speed
 * (README.md, "Host-speed normalisation").
 */
double
hostProbe(int threads)
{
    std::vector<uint64_t> sums(size_t(threads), 0);
    auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::jthread> pool;
        for (int i = 1; i < threads; ++i)
            pool.emplace_back([&sums, i] { sums[size_t(i)] = probeWork(); });
        sums[0] = probeWork();
    }
    double seconds = secondsSince(t0);
    for (uint64_t s : sums)
        if (s == 42)
            std::fprintf(stderr, "probe checksum %llu\n",
                         static_cast<unsigned long long>(s));
    return seconds;
}

json::Object
info()
{
    json::Object out;
#if defined(__clang__)
    out["compiler"] = json::Value(std::string("clang ") + __clang_version__);
#else
    out["compiler"] = json::Value(std::string("gcc ") + __VERSION__);
#endif
#ifdef HOSTBENCH_BUILD_TYPE
    out["build_type"] = json::Value(HOSTBENCH_BUILD_TYPE);
#else
    out["build_type"] = json::Value("unknown");
#endif
#ifdef NDEBUG
    out["ndebug"] = json::Value(true);
#else
    out["ndebug"] = json::Value(false);
#endif
    out["hardware_threads"] =
        json::Value(int(std::thread::hardware_concurrency()));
    return out;
}

int
usage()
{
    std::fprintf(stderr, "usage: hostbench_driver info\n"
                         "       hostbench_driver gen WORKLOAD SEED DIR\n"
                         "       hostbench_driver run WORKLOAD DIR TRACED\n"
                         "       hostbench_driver setup WORKLOAD DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    try {
        json::Object out;
        if (args[0] == "info" && args.size() == 1) {
            out = info();
        } else if (args[0] == "gen" && args.size() == 4) {
            generate(findWorkload(args[1]), std::stoull(args[2]), args[3]);
            return 0;
        } else if ((args[0] == "run" && args.size() == 4) ||
                   (args[0] == "setup" && args.size() == 3)) {
            const WorkloadDef &w = findWorkload(args[1]);
            bool traced = args[0] == "run" && args[3] == "1";
            if (args[0] == "setup") {
                SetupTimes times;
                if (w.kind == Kind::Sweep)
                    (void)setUpSweepRepeated(args[2], false, times);
                else
                    (void)setUpSimulatorRepeated(w, args[2], false, times);
                out["setup_s"] = json::Value(median(times.total));
            } else {
                // The probe runs as many threads as the workload does.
                int threads = w.kind == Kind::Sweep ? kSweepThreads : 1;
                double probe_s = hostProbe(threads);
                out = w.kind == Kind::Sweep
                          ? runSweep(args[2], traced)
                          : runSimulator(w, args[2], traced);
                // Read before the second probe, whose allocations
                // could otherwise raise the high-water mark.
                out["peak_rss_mb"] =
                    json::Value(double(telemetry::peakRssBytes()) / kMiB);
                out["host.probe_s"] =
                    json::Value(0.5 * (probe_s + hostProbe(threads)));
            }
        } else {
            return usage();
        }
        std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench_driver: %s\n", e.what());
        return 1;
    }
    return 0;
}
