#!/usr/bin/env python3
"""Repository benchmark: plan_server under hot, cold and churn workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot|cold|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library, the shipped plan_server and the benchmark driver from
source into .bench_build/ (Release), runs the driver, and prints as its
last stdout line one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of the traced replay with --trace 1. The line before it is the run's
provenance. Both, with the driver's full output, are also written to
.bench_build/results/. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
WORKLOADS = ("hot", "cold", "churn")
# A run during which the hypervisor took more than this share of the CPU
# time from the guest is flagged host_loaded.
STEAL_LIMIT = 0.05

# Metric name -> unit, as the driver reports them.
END_TO_END = {
    "qps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "server_cpu_us_per_req": "us",
    "peak_rss_mb": "MiB",
    "plan_cost_geomean": "cost",
    "setup_s": "s",
}
PER_LAYER = {
    "server.rtt_us": "us",
    "server.rtt_p99_us": "us",
    "server.transport_us": "us",
    "protocol.resp_bytes": "bytes",
    "optimizer_service.optimize_us": "us",
    "optimizer_service.optimize_p99_us": "us",
    "optimizer_service.setstats_us": "us",
    "optimizer_service.rejected": "count",
    "queries.materialize_us": "us",
    "queries.fingerprint_us": "us",
    "plan_cache.lookup_us": "us",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.evictions": "count",
    "plan_cache.drift_hit_ratio": "ratio",
    "plan_cache.replans_avoided_ratio": "ratio",
    "plan_cache.refreshes": "count",
    "persistent_cache.get_us": "us",
    "persistent_cache.hit_ratio": "ratio",
    "persistent_cache.bytes_per_req": "bytes",
    "persistent_cache.superseded_records": "count",
    "plan_serde.encode_us": "us",
    "plan_serde.decode_us": "us",
    "plan_serde.blob_bytes": "bytes",
    "plan_explain.stats_json_us": "us",
    "conflict.detect_us": "us",
    "hypergraph.enumerate_us": "us",
    "hypergraph.ccp_count": "count",
    "plangen.optimize_us": "us",
    "plangen.optimize_p99_us": "us",
    "plangen.dp_self_us": "us",
    "plangen.plans_built": "count",
    "plangen.kept_ratio": "ratio",
    "plangen.self_share": "ratio",
    "large_query.goo_us": "us",
    "large_query.idp_us": "us",
    "large_query.race_waste_ratio": "ratio",
    "cost.recost_us": "us",
    "fail_ratio": "ratio",
    "setstats_p50_ms": "ms",
    "disk_mb": "MiB",
    "loadgen.late_p99_ms": "ms",
    "server_stats.l1_hits": "count",
    "server_stats.l1_evictions": "count",
    "server_stats.drift_hits": "count",
    "server_stats.refreshes": "count",
    "server_stats.l2_hits": "count",
    "server_stats.l2_appends": "count",
    "server_stats.l2_bytes_on_disk": "bytes",
    "trace.untraced_qps": "req/s",
    "trace.traced_qps": "req/s",
    "trace.qps_ratio": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver and plan_server."""
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "build.log")
    with open(out, "a") as f:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            r = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                stdout=f, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                shutil.rmtree(os.path.join(BUILD, "CMakeFiles"),
                              ignore_errors=True)
                try:
                    os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                except OSError:
                    pass
                return False
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        r = subprocess.run(
            ["cmake", "--build", BUILD, "-j", jobs, "--target",
             "perfbench_driver", "plan_server"],
            stdout=f, stderr=subprocess.STDOUT)
    return r.returncode == 0


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "server", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_times():
    """(idle + iowait, steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return v[3] + v[4], v[7], sum(v)
    except (OSError, ValueError, IndexError):
        return 0, 0, 0


def cpu_busy(seconds=0.5):
    """Share of all CPUs busy over a short sample."""
    idle0, _, total0 = cpu_times()
    time.sleep(seconds)
    idle1, _, total1 = cpu_times()
    return 1.0 - (idle1 - idle0) / max(1, total1 - total0)


def provenance(args):
    try:
        with open("/proc/loadavg") as f:
            loadavg = f.read().split()[:3]
    except OSError:
        loadavg = ["0", "0", "0"]
    nproc = os.cpu_count() or 1
    busy = cpu_busy()
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = ""
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "host": platform.node(),
        "nproc": nproc,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": [float(x) for x in loadavg],
        "cpu_busy_at_start": round(busy, 3),
        # A run that starts with more than half the cores busy elsewhere
        # measures the neighbours as much as the program. The load average
        # still carries the previous run's load, so the flag rests on a
        # fresh half-second sample instead.
        "host_loaded": busy > 0.5,
    }


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns its parsed last line or None."""
    results = os.path.join(BUILD, "results")
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", os.path.join(BUILD, "eadp", "server",
                                        "plan_server"),
           "--out-dir", results] + list(extra)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return None
    if r.stderr:
        log(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("driver failed with exit code %d" % r.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("driver printed no result")
        return None


def select_metrics(report, wanted):
    metrics = {}
    for name, unit in wanted.items():
        m = report["metrics"].get(name)
        if m is None or m["unit"] != unit:
            raise ValueError("driver did not report %s in %s" % (name, unit))
        metrics[name] = {"value": m["value"], "unit": unit}
    return metrics


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    """A tiny run of every workload must report every metric named in
    BENCHMARK.json with its unit, and the correctness gate must trip on a
    deliberately perturbed reference cost."""
    spec = benchmark_spec()
    declared = {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    if declared["e2e"] != END_TO_END or declared["layer"] != PER_LAYER:
        log("selftest: BENCHMARK.json metrics differ from run.py's tables")
        ok = False
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        log("selftest: BENCHMARK.json names a workload run.py lacks")
        ok = False
    tiny = ["--setups", "1", "--max-requests", "40"]
    for w in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            rep = run_driver(w, 1, 2, trace, tiny)
            if rep is None or not rep["correct"]:
                log("selftest: %s trace=%d did not run clean" % (w, trace))
                ok = False
                continue
            try:
                select_metrics(rep, wanted)
            except ValueError as e:
                log("selftest: %s trace=%d: %s" % (w, trace, e))
                ok = False
    rep = run_driver("hot", 1, 1, 0, tiny + ["--perturb-reference"])
    if (rep is None or rep["correct"]
            or rep["info"].get("gate.cost_mismatches", 0) < 1):
        log("selftest: the gate did not trip on a perturbed reference")
        ok = False
    log("selftest: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="timed window (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]

    if not build():
        log("build failed; see %s" % os.path.join(BUILD, "build.log"))
        return 1
    if args.selftest:
        return selftest()

    prov = provenance(args)
    if prov["host_loaded"]:
        log("warning: %.0f%% of %d cores busy at start"
            % (100 * prov["cpu_busy_at_start"], prov["nproc"]))
    # Steal is time the hypervisor gave other guests while this guest
    # wanted the CPUs. The driver takes its figures from the stretches of
    # the window without it (perfbench/src/driver.cc); a run with more
    # than STEAL_LIMIT overall is flagged, not repeated.
    _, steal0, total0 = cpu_times()
    rep = run_driver(args.workload, args.seed, args.seconds, args.trace)
    _, steal1, total1 = cpu_times()
    if rep is None:
        return 1
    prov["cpu_steal_share"] = round((steal1 - steal0) / max(1, total1 - total0),
                                    4)
    if prov["cpu_steal_share"] > STEAL_LIMIT:
        prov["host_loaded"] = True
        log("warning: %.0f%% of CPU time was stolen by the hypervisor"
            % (100 * prov["cpu_steal_share"]))
    try:
        metrics = select_metrics(rep, PER_LAYER if args.trace else END_TO_END)
    except ValueError as e:
        log(str(e))
        return 1
    prov["details"] = rep.get("info", {})
    result = {"correct": bool(rep["correct"]),
              "attempted": int(rep["attempted"]),
              "failed": int(rep["failed"]), "metrics": metrics}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(BUILD, "results", name), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
