/**
 * @file
 * Execution-trace workflow (§IV-A): generate an ASTRA-sim ET, save it
 * to JSON, reload, and simulate — or run a user-supplied trace file.
 * Also demonstrates the external-format converter: pass a
 * "pytorch-et" per-rank directory via --convert.
 *
 * Usage:
 *   trace_runner                          # self-demo (generate+run)
 *   trace_runner --trace my_et.json --topo R(4,150)_SW(2,25)
 *   trace_runner --emit out.json          # write a sample trace
 *   trace_runner --trace-out tl.json --trace-detail full
 *                                         # Chrome/Perfetto timeline
 */
#include "common/logging.h"
#include <cstdio>

#include "astra/simulator.h"
#include "common/cli.h"
#include "topology/notation.h"
#include "workload/builders.h"
#include "workload/converter.h"
#include "workload/et_json.h"

using namespace astra;

int
main(int argc, char **argv)
{
    setVerbose(false);
    CommandLine cl(argc, argv, {"trace", "topo", "emit", "trace-out",
                                "trace-detail", "trace-util",
                                "trace-util-bucket", "trace-rate-eps",
                                "trace-analysis", "trace-analysis-out",
                                "heartbeat", "heartbeat-interval-ms",
                                "heartbeat-events", "manifest",
                                "log-level"});
    if (cl.has("log-level"))
        setLogLevel(logLevelFromString(cl.getString("log-level", "")));
    Topology topo =
        parseTopology(cl.getString("topo", "R(4,150)_SW(2,25)"));

    Workload wl;
    if (cl.has("trace")) {
        wl = loadWorkload(cl.getString("trace", ""));
        std::printf("loaded trace '%s' (%zu graphs, %zu nodes)\n",
                    wl.name.c_str(), wl.graphs.size(), wl.totalNodes());
    } else {
        HybridOptions opts;
        opts.mp = topo.dim(0).size;
        opts.simLayers = 4;
        wl = buildHybridTransformer(topo, gpt3(), opts);
        std::printf("generated trace '%s' (%zu nodes)\n",
                    wl.name.c_str(), wl.totalNodes());
        if (cl.has("emit")) {
            std::string path = cl.getString("emit", "trace.json");
            saveWorkload(path, wl);
            std::printf("wrote %s\n", path.c_str());
            return 0;
        }
        // Round-trip through the serialized form to exercise the
        // parser exactly as an external trace would.
        wl = workloadFromJson(workloadToJson(wl).dump());
    }

    SimulatorConfig cfg;
    // --trace already names the input ET file, so the timeline output
    // uses --trace-out (docs/trace.md).
    cfg.trace = trace::traceConfigFromCli(cl, "trace-out");
    cfg.telemetry = telemetry::telemetryConfigFromCli(cl);
    Simulator sim(std::move(topo), cfg);
    Report report = sim.run(wl);
    std::printf("%s", report.summary().c_str());
    if (!cfg.trace.file.empty())
        std::printf("wrote %s\n", cfg.trace.file.c_str());
    if (!cfg.trace.utilizationFile.empty())
        std::printf("wrote %s\n", cfg.trace.utilizationFile.c_str());
    if (!cfg.telemetry.file.empty())
        std::printf("wrote %s\n", cfg.telemetry.file.c_str());
    if (!cfg.telemetry.manifest.empty())
        std::printf("wrote %s\n", cfg.telemetry.manifest.c_str());
    return 0;
}
