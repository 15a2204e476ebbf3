#!/usr/bin/env python3
"""Interleaved A/B comparison of two kfisim source trees.

    python3 kfibench/ab.py --a PARENT_TREE --b CHANGE_TREE \\
        [--pairs 10] [--workload NAME ...]

Runs this benchmark (run.py, --trace 0, BENCHMARK.json's run_seconds) on
both trees in alternating pairs: pair k uses seed 1000+k on both sides,
and the side that runs first alternates, so slow drift on the host lands
on both sides equally.  Each tree is built in its own
<tree>/.bench_build/kfibench.  For every
workload x end-to-end metric it prints both sides' medians and quartiles,
the share of pairs B won (ties count for neither), and a verdict from
stats.verdict against the bound in BENCHMARK.json:
improved, no-worse, unresolved or worse.  A run that is not correct or has
harness failures is reported and its pair dropped.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--root", str(tree),
           "--build-dir", str(tree / ".bench_build" / "kfibench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def fmt(values):
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="parent tree")
    ap.add_argument("--b", type=Path, required=True, help="changed tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    trees = {"A": args.a.resolve(), "B": args.b.resolve()}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    print(f"{'workload':22s} {'metric':16s} {'A median [q1, q3]':28s} "
          f"{'B median [q1, q3]':28s} {'B wins':>7s}  verdict")
    for w in workloads:
        pairs = []
        for k in range(args.pairs):
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            got = {side: run_once(trees[side], w, 1000 + k,
                                  bench["run_seconds"])
                   for side in order}
            if got["A"] is None or got["B"] is None:
                print(f"{w}: pair {k} dropped (a run failed)", file=sys.stderr)
                continue
            pairs.append(got)
        if not pairs:
            print(f"{w:22s} no complete pairs")
            continue
        for m in bench["end_to_end"]:
            a = [p["A"][m["name"]] for p in pairs]
            b = [p["B"][m["name"]] for p in pairs]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            v = stats.verdict(a, b, m["better"], m["bound"])
            print(f"{w:22s} {m['name']:16s} {fmt(a):28s} {fmt(b):28s} "
                  f"{wins:>3d}/{len(pairs):<3d}  {v}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
