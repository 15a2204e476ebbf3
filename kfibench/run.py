#!/usr/bin/env python3
"""kfisim campaign benchmark: one workload, one run, one result line.

    python3 kfibench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds kfisim and the benchmark binary from the source tree (first run
only; later runs find the build up to date), runs the workload for T
seconds, checks every campaign's result fingerprint (and, traced, every
exact count) against pins.json, and prints as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  Build output and diagnostics go to
stderr.  A wrong fingerprint or a drifted count prints correct=false and
exits 1.  --root and --build-dir let the A/B runner point the same
benchmark at another source tree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

BINARY_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def default_build_dir(root):
    # CARGO_TARGET_DIR, when set, names the build root (a relative path is
    # taken from the source root); otherwise .bench_build.
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else root / base) / "kfibench"


def build(root, build_dir):
    """Configure (once) and build the benchmark and the fabric binaries."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no kfisim sources under {root}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", f"-DKFI_ROOT={root}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "kfibench",
                    "kfi_worker", "kfi_campaignd"],
                   check=True, stdout=sys.stderr)


# --- Metrics -----------------------------------------------------------------


def harness_failures(run):
    return (run["quarantined"] + run["worker_deaths"] + run["redispatches"]
            + run["lease_revocations"])


def throughput(runs):
    inj = sum(r["injections"] for r in runs)
    wall = sum(r["wall_s"] for r in runs)
    return inj / wall


def own_path(runs):
    """The runs on the workload's own path: the fabric path where there is
    one, else the engine.  fabric-local's engine runs only give the
    latency samples."""
    paths = {r["path"] for r in runs}
    own = (paths - {"engine"}) or {"engine"}
    return [r for r in runs if r["path"] in own]


def mean_of_medians(runs, field):
    """Mean over the campaigns of the median of `field` over each
    campaign's runs; `field` holds one number per run (wall_s) or a list
    of samples (latency_ms)."""
    by_name = {}
    for r in runs:
        v = r[field]
        by_name.setdefault(r["name"], []).extend(v if isinstance(v, list)
                                                 else [v])
    return sum(stats.median(v) for v in by_name.values()) / len(by_name)


def end_to_end(raw, runs, problems):
    latencies = [x for r in runs for x in r["latency_ms"]]
    p95_ok = stats.tail_percentile(len(latencies)) or 0
    if p95_ok < 95:
        problems.append(f"{len(latencies)} latency samples: p95 needs ten "
                        "samples beyond it")
    log(f"latency samples: {len(latencies)}, highest supported percentile: "
        f"p{stats.tail_percentile(len(latencies))}")
    own = own_path(runs)
    engine = [r for r in runs if r["path"] == "engine"]
    return {
        "inj_per_s": throughput(own),
        "p4_inj_per_s": throughput([r for r in own if r["arch"] == "p4"]),
        "g4_inj_per_s": throughput([r for r in own if r["arch"] == "g4"]),
        # Per campaign: the campaigns' latencies form modes far apart (the
        # arches, early crashes, full runs), and a median over all of them
        # falls in the sparse gaps between, where it jumps from run to run.
        "inj_ms_p50": mean_of_medians(engine, "latency_ms"),
        "inj_ms_p95": stats.percentile(latencies, 95),
        "campaign_s_p50": mean_of_medians(own, "wall_s"),
        # One set-up: every plan built, each at its median build time.
        "setup_s": sum(stats.median(v) for v in raw["plan_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, pins, problems):
    runs = raw["runs"]
    m = {}
    for name, values in raw["samples"].items():
        if name == "inject.journal_append_us":
            m["inject.journal_append_us_p50"] = stats.percentile(values, 50)
            m["inject.journal_append_us_p95"] = stats.percentile(values, 95)
        else:
            m[name] = stats.median(values)
    plans = raw["plan_s"]
    m["inject.plan_ms"] = 1e3 * sum(stats.median(v) for v in plans) / len(plans)

    counts = dict(raw["counts"])
    for key, field in (("inject.quarantined", "quarantined"),
                       ("inject.retries", "retries"),
                       ("fabric.worker_deaths", "worker_deaths"),
                       ("fabric.redispatches", "redispatches"),
                       ("fabric.lease_revocations", "lease_revocations")):
        counts[key] = sum(r[field] for r in runs)
    for name, want in pins["counts"].items():
        if counts.get(name) != want:
            problems.append(f"count {name}: got {counts.get(name)}, pinned {want}")
    m.update(counts)

    engine = [r for r in runs if r["path"] == "engine"
              and r["phase"] in ("traced", "untraced")]
    traced = [r for r in engine if r["phase"] == "traced"]
    lat = [x for r in traced for x in r["latency_ms"]]
    hang = [x for r in traced for x, h in zip(r["latency_ms"], r["hang"]) if h]
    m["inject.hang_time_share"] = sum(hang) / sum(lat)
    busy_s = sum(r["jobs"] * r["wall_s"] for r in traced)
    m["inject.engine_overhead_pct"] = 100.0 * (1.0 - sum(lat) / 1e3 / busy_s)
    serial = {r["name"]: r["wall_s"] for r in runs if r["phase"] == "serial_ref"}
    if serial:
        walls = {}
        for r in engine:
            walls.setdefault(r["name"], []).append(r["jobs"] * r["wall_s"])
        m["inject.parallel_efficiency"] = sum(serial.values()) / sum(
            stats.median(walls[n]) for n in serial)
    else:
        m["inject.parallel_efficiency"] = 1.0  # one engine thread
    for path, key in (("fabric", "fabric.local_campaign_s_p50"),
                      ("hosts", "fabric.hosts_campaign_s_p50")):
        m[key] = stats.median([r["wall_s"] for r in runs
                               if r["phase"] == "probe" and r["path"] == path])
    untraced = [r for r in engine if r["phase"] == "untraced"]
    base = throughput(untraced)
    m["bench.trace_overhead_pct"] = 100.0 * (base - throughput(traced)) / base

    spans = raw["spans"]
    problems.extend(stats.check_nesting(spans))
    selfs = stats.self_times(spans)
    root = next(s for s in spans if s["parent"] < 0)
    root_s = root["end"] - root["start"]
    m["bench.root_s"] = root_s
    by_layer = {}
    for s, t in zip(spans, selfs):
        layer = s["name"].split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    if abs(sum(selfs) - root_s) > 1e-6 * root_s + 1e-9:
        problems.append(f"self times add up to {sum(selfs)} s, root span "
                        f"is {root_s} s")
    for layer in ("bench", "inject", "kernel", "workload", "kir", "fabric"):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    log("self time by layer (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(by_layer.items()))
        + f"; root {root_s:.3f}")
    log(f"tracing overhead on inj_per_s: {m['bench.trace_overhead_pct']:.2f}% "
        f"(untraced {base:.2f}/s, traced {throughput(traced):.2f}/s)")
    return m


def evaluate(raw, bench, pins, trace):
    """The result line for one run of the benchmark binary."""
    problems = []
    workload = raw["workload"]
    runs = raw["runs"]
    for r in runs:
        want = pins["fingerprints"].get(r["name"])
        if not r["complete"]:
            problems.append(f"{r['name']} ({r['path']}) did not complete")
        if r["fingerprint"] != want:
            problems.append(f"{r['name']} ({r['path']}, {r['phase']}): "
                            f"fingerprint {r['fingerprint']}, pinned {want}")
    looped = sorted({r["name"] for r in runs
                     if r["phase"] in ("timed", "traced", "untraced")})
    if looped != sorted(pins["workloads"][workload]):
        problems.append(f"campaigns run {looped} != pinned "
                        f"{sorted(pins['workloads'][workload])}")

    if trace:
        values = per_layer(raw, pins, problems)
        declared = bench["per_layer"]
    else:
        values = end_to_end(raw, [r for r in runs if r["phase"] == "timed"],
                            problems)
        declared = bench["end_to_end"]
    metrics = {}
    for d in declared:
        if d["name"] not in values:
            problems.append(f"metric {d['name']} not measured")
            continue
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
    result = {
        "correct": not problems,
        "attempted": sum(r["injections"] for r in runs),
        "failed": sum(harness_failures(r) for r in runs),
        "metrics": metrics,
    }
    return result, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="kfisim source tree (default: this checkout)")
    ap.add_argument("--build-dir", type=Path)
    args = ap.parse_args()

    root = args.root.resolve()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"run.py: unknown workload {args.workload}")
    build_dir = (args.build_dir or default_build_dir(root)).resolve()
    build(root, build_dir)

    work = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(build_dir / "kfibench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--worker", str(build_dir / "kfi_tools" / "kfi_worker"),
             "--daemon", str(build_dir / "kfi_tools" / "kfi_campaignd"),
             "--work", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: kfibench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    result, problems = evaluate(raw, bench, pins, args.trace == 1)
    for p in problems:
        log("FAIL:", p)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
