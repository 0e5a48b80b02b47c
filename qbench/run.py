"""Question-level benchmark of polynormal.

    python3 qbench/run.py --workload split|screen|transform --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  One client asks the workload's fixed list
of questions in a closed loop (the next question goes only after the
previous one is answered), in whole passes over the list: the first pass
always, a further one while it is expected to end within ``--seconds``.  The
benchmark starts no threads; the program's BLAS pools stay at their
defaults.  Every answer is then checked against computations made apart from
the program (``oracles.py``).  Times are scaled to a reference host speed,
probed between questions (``hostspeed.py``); the unscaled figures are
printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` answers every
fourth question untraced, then whole traced passes, and reports per-layer
counts and self times per question plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

    python3 qbench/run.py --crosscheck

compares the tracer's call counts with cProfile's on the reference CLI
decompose question and exits 1 if any differ.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SAMPLES = 3  # set-ups per --trace 0 run: this process and two fresh ones
CHILD_TIMEOUT_S = 120


def _load_program():
    """Put the checkout's src/ on the path; fail loudly when it is absent."""
    if not (ROOT / "src" / "polynormal" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'polynormal'} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["split", "screen", "transform"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--crosscheck", action="store_true",
                    help="compare traced call counts with cProfile on the reference decompose")
    args = ap.parse_args(argv)
    if not args.crosscheck and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int, workdir: Path):
    """Imports, input generation and one untimed warm-up answer."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.answer(wl.questions[0])
    return wl


def _answer(wl, q):
    """One question; an exception is an answer that the check will reject."""
    try:
        return wl.answer(q)
    except Exception as exc:  # the run must go on and report the failure
        return {"error": f"{type(exc).__name__}: {exc}"}


def ask(wl, seconds: float, tracer=None, questions=None):
    """Whole passes over the question list (default: the workload's).

    The first pass always runs; a further pass starts only while it is
    expected to end within ``seconds``.  The host's speed is probed between
    questions (``hostspeed``).  Returns the answers, and for each answer
    its wall time, its process CPU time (all threads) and the host-speed
    scale at its midpoint.
    """
    answers, latencies, cpus, moments = [], [], [], []
    speed = Speed()
    clock, cpu_clock = time.perf_counter, time.process_time
    wall0, passes = clock(), 0
    while True:
        for q in questions or wl.questions:
            speed.maybe_sample()
            if tracer is not None:
                # Ordinal in the run, so repeated passes count as new questions.
                tracer.question = len(answers)
            c0, t0 = cpu_clock(), clock()
            a = _answer(wl, q)
            t1 = clock()
            cpus.append(cpu_clock() - c0)
            latencies.append(t1 - t0)
            moments.append(0.5 * (t0 + t1))
            answers.append((q, a))
        passes += 1
        elapsed = clock() - wall0
        if elapsed * (passes + 1) / passes > seconds:
            break
    speed.sample()
    return answers, np.array(latencies), np.array(cpus), speed.scale(moments)


def check_all(wl, answers):
    """(failed, unexpected): questions whose check failed, and those among
    them that are not known-fault probes."""
    failed = unexpected = 0
    for q, a in answers:
        problems = [a["error"]] if "error" in a else wl.check(q, a)
        if problems:
            failed += 1
            if q["known_fault"] is None:
                unexpected += 1
                print(f"FAIL {wl.name} q{q['id']} ({q['label']}): {'; '.join(problems)}", file=sys.stderr)
    return failed, unexpected


def tail_share(wl) -> float:
    """Highest percentile with at least 10 of one pass's answers beyond it.

    Fixed by the list length, not by how many passes a run makes, so the
    same percentile is reported whatever the machine's speed.
    """
    return 1.0 - 10.0 / len(wl.questions)


def _percentile(values, share: float) -> float:
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(args, wl, setup_s: float) -> dict:
    setups = [setup_s] + [_child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    answers, raw_lat, raw_cpu, scale = ask(wl, args.seconds)
    failed, unexpected = check_all(wl, answers)
    n = len(raw_lat)
    lat, cpu = raw_lat * scale, raw_cpu * scale
    metrics = {
        "questions_per_s": (n / lat.sum(), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * _percentile(lat, tail_share(wl)), "ms"),
        "cpu_ms_per_question": (1e3 * cpu.sum() / n, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # Set-up is short and mostly imports; it takes the run's median
        # host-speed scale, which a handful of probes right after it
        # would estimate worse.
        "setup_s": (statistics.median(setups) * statistics.median(scale), "s"),
    }
    unscaled = {
        "questions_per_s": n / raw_lat.sum(),
        "latency_p50_ms": 1e3 * statistics.median(raw_lat),
        "latency_tail_ms": 1e3 * _percentile(raw_lat, tail_share(wl)),
        "cpu_ms_per_question": 1e3 * raw_cpu.sum() / n,
        "setup_s": statistics.median(setups),
        "host_speed_scale": statistics.median(scale),
    }
    print(f"{wl.name:<10} unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    return n, failed, unexpected, metrics


# Per-layer metrics: (span name, what) with what "calls" (count per question)
# or "self_ms" (self time per question).
PER_LAYER = [
    ("pnd.minimize_polynomial", "calls"), ("pnd.minimize_polynomial", "self_ms"),
    ("pnd.make_pnd", "calls"), ("pnd.make_pnd", "self_ms"),
    ("pnd.make_quadform", "calls"),
    ("polyalg.Polynomial.eval", "calls"), ("polyalg.Polynomial.eval", "self_ms"),
    ("polyalg.Polynomial.grad_eval", "calls"), ("polyalg.Polynomial.grad_eval", "self_ms"),
    ("polyalg.Polynomial.eval_many", "self_ms"),
    ("polyalg.to_hermite", "self_ms"), ("polyalg.from_hermite", "self_ms"),
    ("polyalg.affine_substitute", "self_ms"),
    ("polyalg.theta_rescale", "calls"), ("polyalg.theta_rescale", "self_ms"),
    ("positivity.epsilon_bound", "calls"), ("positivity.epsilon_bound", "self_ms"),
    ("decompose.precheck", "calls"), ("decompose.theta_floor", "self_ms"),
    ("decompose.decompose", "self_ms"),
    ("charfn.forward_cf", "self_ms"), ("charfn.inverse_cf_parts", "self_ms"),
    ("charfn.cf_eval", "self_ms"), ("charfn.cf_multiply", "self_ms"),
    ("verify.convolution_check", "self_ms"), ("verify.example4_negative_witness", "self_ms"),
    ("cli.main", "self_ms"),
]


def per_layer(args, wl) -> dict:
    """Per-question layer figures from whole traced passes.

    Every fourth question is first answered untraced, as the baseline of
    the tracing overhead; only the traced passes are checked and counted,
    so the failed share matches that of an untraced run.
    """
    from spans import Tracer

    sample = wl.questions[::4]
    _, plain_lat, _, plain_scale = ask(wl, 0.0, questions=sample)
    tracer = Tracer()
    with tracer:
        traced, lat, _, scale = ask(wl, args.seconds, tracer)
    tracer.dump(WORK / f"trace-{wl.name}.npz")
    failed, unexpected = check_all(wl, traced)
    n = len(lat)
    sampled = {q["id"] for q in sample}
    traced_lat = [t * s for (q, _), t, s in zip(traced, lat, scale) if q["id"] in sampled]
    counts = tracer.counts()
    own = tracer.self_seconds(scale)
    metrics = {}
    for name, what in PER_LAYER:
        if what == "calls":
            metrics[f"{name}.calls"] = (counts[name] / n, "count/question")
        else:
            metrics[f"{name}.self_ms"] = (1e3 * own[name] / n, "ms/question")
    metrics["pnd.minimize_polynomial.distinct_ratio"] = (tracer.distinct_ratio(), "ratio")
    metrics["polyalg.Polynomial.eval_many.points"] = (tracer.points / n, "count/question")
    metrics["trace.overhead"] = (statistics.mean(traced_lat) / statistics.mean(plain_lat * plain_scale), "ratio")
    return n, failed, unexpected, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _load_program()
    sys.path.insert(0, str(HERE))
    if args.crosscheck:
        from spans import crosscheck

        rows = crosscheck(WORK / "crosscheck")
        width = max(len(r[0]) for r in rows)
        print(f"{'function':<{width}}  traced  cProfile")
        for name, traced, profiled in rows:
            print(f"{name:<{width}}  {traced:>6}  {profiled:>8}{'' if traced == profiled else '  MISMATCH'}")
        return 0 if all(t == p for _, t, p in rows) else 1
    if args.setup_only:
        set_up(args.workload, args.seed, WORK / f"{args.workload}-setup")
        print(repr(time.perf_counter() - STARTED))
        return 0
    wl = set_up(args.workload, args.seed, WORK / args.workload)
    setup_s = time.perf_counter() - STARTED
    if args.trace:
        attempted, failed, unexpected, metrics = per_layer(args, wl)
    else:
        attempted, failed, unexpected, metrics = end_to_end(args, wl, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:<10} {name:<48} {value:>14.6g} {unit}")
    print(f"{wl.name:<10} attempted {attempted}, failed {failed} (unexpected {unexpected})")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
