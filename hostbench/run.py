#!/usr/bin/env python3
"""Host-performance benchmark of the simulator (see README.md).

Run from the repository root:

    python3 hostbench/run.py --workload gpt3_hybrid_512 --seed 1 \
        --seconds 25 --trace 0

The script builds hostbench/ (Release only) into $CARGO_TARGET_DIR
(default .bench_build), generates the workload's inputs from the seed,
then runs one fresh driver process per repetition until --seconds have
passed. Every repetition's outputs are checked. The last stdout line is
one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics (from untraced and traced repetitions) with --trace 1.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gpt3_hybrid_512", "dlrm_packet_16", "allreduce_flow_4096",
             "hiermem_sweep_16")
# Simulated results: a speed-only change must leave them identical.
SIM_KEYS = ("sim.total_ns", "sim.exposed_comm_frac", "sim.digest")
# Per-layer metrics that only a traced repetition produces.
TRACED_KEYS = ("trace.events", "trace.callbacks_s",
               "event.bucket_activations", "event.queue_depth_p99_log2",
               "network.flow.solver_s")
# Host-speed normalisation (README.md): each run reports host times as
# they would read on a host where the driver's fixed probe takes
# PROBE_REF_S, scaling by PROBE_REF_S / (the run's median probe time).
# The value is this probe's typical time on the 4-vCPU host the
# benchmark was tuned on, so normalised and raw times are close there.
PROBE_REF_S = 0.11
# Same tolerance as the repository's own breakdown-invariant tests.
BREAKDOWN_TOL_NS = 1.0
MIN_REPS = 3
# Share of a --trace 0 run given to extra setup-only processes. A
# sub-millisecond setup varies mostly from process to process, so its
# median needs more processes than the full repetitions provide.
SETUP_SHARE = 0.1
# Stop starting repetitions after this long, so a run ends in time even
# if the program becomes much slower than --seconds assumes.
MAX_LOOP_S = 120.0
REP_TIMEOUT_S = 100.0


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_rep(rep, reference=None):
    """Reasons one repetition's outputs are wrong; empty if correct.

    `reference` holds the expected SIM_KEYS values (from the other
    repetitions of this build and seed), or None to skip that check.
    """
    reasons = []
    err = rep.get("check.breakdown_max_err_ns")
    if err is None or not err <= BREAKDOWN_TOL_NS:
        reasons.append("per-NPU breakdown total != total time (%r ns)" % err)
    for key in ("event.events", "network.messages"):
        if not rep.get(key, 0) > 0:
            reasons.append("%s is not > 0" % key)
    if rep.get("check.failures", 1) != 0:
        reasons.append("%r sweep configs failed" % rep.get("check.failures"))
    if reference is not None:
        for key in SIM_KEYS:
            if rep.get(key) != reference.get(key):
                reasons.append("%s %r differs from %r"
                               % (key, rep.get(key), reference.get(key)))
    return reasons


def sim_reference(reps):
    """The SIM_KEYS values most repetitions agree on."""
    tuples = [tuple(r.get(k) for k in SIM_KEYS) for r in reps]
    best = max(set(tuples), key=tuples.count)
    return dict(zip(SIM_KEYS, best))


def count_failed(reps, stored=None):
    """Repetitions whose outputs fail the check; reasons go to stderr.

    `stored` is the SIM_KEYS reference recorded by an earlier run of
    this build and seed, if any; otherwise the majority is used.
    """
    if not reps:
        return 0
    reference = stored if stored is not None else sim_reference(reps)
    failed = 0
    for i, rep in enumerate(reps):
        reasons = check_rep(rep, reference)
        if reasons:
            failed += 1
            log("repetition %d failed the output check: %s"
                % (i, "; ".join(reasons)))
    return failed


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configure and build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the simulator sources (CMakeLists.txt, src/) "
                         "are not next to hostbench/")
    bdir = os.path.join(build_root, "hostbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "hostbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "hostbench_driver")


def driver_json(driver, args):
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver %s failed: %s"
                         % (" ".join(args), proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(driver):
    """Host, hardware threads, compiler and build type of the timing."""
    info = driver_json(driver, ["info"])
    if info.get("build_type") != "Release" or not info.get("ndebug"):
        raise BenchError("refusing to time a non-Release build: %r" % info)
    info["host"] = platform.node()
    info["nproc"] = len(os.sched_getaffinity(0))
    info["python"] = platform.python_version()
    return info


def stored_reference(build_root, driver, workload, seed):
    """(SIM_KEYS of an earlier run of this build and seed, None) if one
    was recorded, else (None, save) where save(sim) records them.

    The record is keyed by the driver binary's size and mtime, so a
    rebuild starts a fresh record.
    """
    path = os.path.join(build_root, "hostbench-simref",
                        "%s-seed%d.json" % (workload, seed))
    st = os.stat(driver)
    build_id = "%d-%d" % (st.st_size, st.st_mtime_ns)
    try:
        with open(path) as f:
            rec = json.load(f)
        if rec.get("build") == build_id:
            return rec["sim"], None
    except (OSError, ValueError, KeyError):
        pass

    def save(sim):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"build": build_id, "sim": sim}, f)
    return None, save


def median(values):
    return statistics.median(values) if values else 0.0


def is_host_time(name):
    """Host-time metrics, which are normalised to the reference speed."""
    return ((name.endswith("_s") and name != "host.probe_s")
            or name == "event.host_ns_per_event")


def aggregate(name, reps, probed=None):
    """Median of a metric over repetitions, host times normalised by
    the median probe of `probed` (default: the same repetitions)."""
    value = median([r.get(name, 0.0) for r in reps])
    if is_host_time(name):
        probes = [r["host.probe_s"] for r in (probed or reps)]
        value *= PROBE_REF_S / median(probes)
    return value


def run(args):
    spec = load_spec()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    driver = build(build_root)
    prov = provenance(driver)

    seed = args.seed % (1 << 63)
    inputs = os.path.join(build_root, "hostbench-inputs",
                          "%s-seed%d-%d" % (args.workload, seed, os.getpid()))
    shutil.rmtree(inputs, ignore_errors=True)
    try:
        subprocess.run([driver, "gen", args.workload, str(seed), inputs],
                       check=True, timeout=REP_TIMEOUT_S)
        plain, traced, setups, crashed = [], [], [], 0
        setup_spent = 0.0
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            enough = (len(plain) >= MIN_REPS
                      and (not args.trace or len(traced) >= MIN_REPS))
            if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds and enough):
                break
            # With --trace 1, untraced and traced repetitions alternate
            # so drift on the host affects both sides alike.
            use_trace = args.trace and len(traced) < len(plain)
            setup_only = (not args.trace and bool(plain)
                          and setup_spent < SETUP_SHARE * elapsed)
            if setup_only:
                cmd = ["setup", args.workload, inputs]
            else:
                cmd = ["run", args.workload, inputs,
                       "1" if use_trace else "0"]
            t0 = time.monotonic()
            try:
                rep = driver_json(driver, cmd)
            except (BenchError, subprocess.TimeoutExpired) as e:
                log("repetition failed: %s" % e)
                crashed += 1
                if crashed >= MIN_REPS and not plain:
                    raise BenchError("the driver fails on every repetition")
                continue
            if setup_only:
                setup_spent += time.monotonic() - t0
                setups.append(rep)
            else:
                (traced if use_trace else plain).append(rep)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if not plain or (args.trace and not traced):
        raise BenchError("no repetition completed")

    stored, save = stored_reference(build_root, driver, args.workload, seed)
    failed = crashed + count_failed(plain + traced, stored)
    if save is not None and failed == 0:
        save(sim_reference(plain))

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            source = traced if name in TRACED_KEYS else plain
            metrics[name] = {"value": aggregate(name, source),
                             "unit": m["unit"]}
        overhead = (aggregate("wall_s", traced)
                    / aggregate("wall_s", plain) - 1.0)
        metrics["trace.overhead_frac"]["value"] = overhead
    else:
        metrics = {m["name"]: {"value": aggregate(m["name"], plain),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        # Setup-only processes skip the probe; the full repetitions of
        # the same run give the host speed.
        metrics["setup_s"]["value"] = aggregate("setup_s", plain + setups,
                                                probed=plain)

    print(json.dumps({"provenance": prov, "workload": args.workload,
                      "seed": seed, "untraced_reps": len(plain),
                      "traced_reps": len(traced),
                      "probe_ref_s": PROBE_REF_S,
                      "raw_wall_s": [r["wall_s"] for r in plain],
                      "raw_setup_s": [r["setup_s"] for r in plain + setups],
                      "host_probe_s": [r["host.probe_s"] for r in plain]}))
    attempted = len(plain) + len(traced) + len(setups) + crashed
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log("hostbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
