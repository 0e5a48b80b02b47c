"""Regenerate the reference figures of qbench/README.md.

    python3 qbench/figures.py [--runs 10] [--seconds 30] [--parts e2e,trace,blas1]

Run from the root of a checkout.  ``e2e`` makes two sets of ``--runs`` runs
per workload (seeds 1..runs and 101..100+runs, workloads interleaved) and
prints, per set, each metric's median, quartiles and quartile spread over
the median, then the second set's median over the first's.  ``trace`` makes
one traced run per workload and prints the per-layer metrics.  ``blas1``
repeats three runs per workload with OPENBLAS_NUM_THREADS=1, for comparison
only.  Runs are made one after another; the raw results are written to
qbench/_work/figures.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["split", "screen", "transform"]
UNSCALED = ["questions_per_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_question", "setup_s",
            "host_speed_scale"]


def one_run(workload: str, seed: int, seconds: float, trace: int, env=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
                         env=dict(os.environ, **(env or {})))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = [line for line in lines if " unscaled " in line]
    if unscaled:
        pairs = (item.split("=") for item in unscaled[0].split(" unscaled ")[1].split())
        result["unscaled"] = {k: float(v) for k, v in pairs}
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def e2e(runs: int, seconds: float, raw: dict):
    sets = {}
    for label, base in (("A", 1), ("B", 101)):
        results = {w: [] for w in WORKLOADS}
        for i in range(runs):
            for w in WORKLOADS:
                results[w].append(one_run(w, base + i, seconds, 0))
        sets[label] = results
    raw["e2e"] = sets
    for w in WORKLOADS:
        print(f"\n{w}: attempted/failed per run, set A: "
              + ", ".join(f"{r['attempted']}/{r['failed']}" for r in sets["A"][w]))
        print(f"{'metric':<22} {'set':<3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}")
        for metric in sets["A"][w][0]["metrics"]:
            meds = []
            for label in ("A", "B"):
                vals = [r["metrics"][metric]["value"] for r in sets[label][w]]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                print(f"{metric:<22} {label:<3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f}")
            print(f"{metric:<22} B/A {meds[1] / meds[0]:>11.4f}")
        print("unscaled, for comparison:")
        for metric in UNSCALED:
            for label in ("A", "B"):
                vals = [r["unscaled"][metric] for r in sets[label][w]]
                med, q1, q3, spread = summary(vals)
                print(f"{metric:<22} {label:<3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f}")


def traced(seconds: float, raw: dict):
    raw["trace"] = {w: one_run(w, 1, seconds, 1) for w in WORKLOADS}
    names = list(raw["trace"][WORKLOADS[0]]["metrics"])
    print(f"\n{'per-layer metric':<44}" + "".join(f"{w:>12}" for w in WORKLOADS))
    for name in names:
        print(f"{name:<44}" + "".join(f"{raw['trace'][w]['metrics'][name]['value']:>12.4g}" for w in WORKLOADS))


def blas1(seconds: float, raw: dict):
    raw["blas1"] = {}
    print(f"\n{'OPENBLAS_NUM_THREADS':<22}{'workload':<11}{'questions/s':>12}{'p50 ms':>10}{'cpu ms/q':>10}")
    for w in WORKLOADS:
        for threads in ("default", "1"):
            env = {} if threads == "default" else {"OPENBLAS_NUM_THREADS": "1"}
            rs = [one_run(w, seed, seconds, 0, env) for seed in (1, 2, 3)]
            raw["blas1"][f"{w}/{threads}"] = rs
            med = {m: statistics.median(r["metrics"][m]["value"] for r in rs)
                   for m in ("questions_per_s", "latency_p50_ms", "cpu_ms_per_question")}
            print(f"{threads:<22}{w:<11}{med['questions_per_s']:>12.4g}{med['latency_p50_ms']:>10.4g}"
                  f"{med['cpu_ms_per_question']:>10.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--parts", default="e2e,trace,blas1")
    args = ap.parse_args(argv)
    raw: dict = {}
    parts = args.parts.split(",")
    if "e2e" in parts:
        e2e(args.runs, args.seconds, raw)
    if "trace" in parts:
        traced(args.seconds, raw)
    if "blas1" in parts:
        blas1(args.seconds, raw)
    out = HERE / "_work" / "figures.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
