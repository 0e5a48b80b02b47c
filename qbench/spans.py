"""Spans around calls into the program's public functions, and their cross-check.

``Tracer`` wraps each function of ``TARGETS`` in every ``polynormal``
namespace that holds it (modules bind functions by name, as in
``from .pnd import minimize_polynomial``), and wraps the evaluation
methods on ``Polynomial`` itself.  Each call records a span: name, start,
end, parent span and the question's ordinal in the run.  Spans are kept
in flat arrays in memory and written out once, when the run ends.

``crosscheck`` runs the reference CLI decompose once under ``cProfile``
and once under the tracer, and compares the call counts of every target.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pstats
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of every wrapped function; "Class.method" for methods.
TARGETS = [
    ("pnd", "minimize_polynomial"),
    ("pnd", "make_pnd"),
    ("pnd", "make_quadform"),
    ("polyalg", "Polynomial.eval"),
    ("polyalg", "Polynomial.grad_eval"),
    ("polyalg", "Polynomial.eval_many"),
    ("polyalg", "to_hermite"),
    ("polyalg", "from_hermite"),
    ("polyalg", "affine_substitute"),
    ("polyalg", "theta_rescale"),
    ("positivity", "epsilon_bound"),
    ("decompose", "precheck"),
    ("decompose", "theta_floor"),
    ("decompose", "decompose"),
    ("charfn", "forward_cf"),
    ("charfn", "inverse_cf_parts"),
    ("charfn", "cf_eval"),
    ("charfn", "cf_multiply"),
    ("verify", "convolution_check"),
    ("verify", "example4_negative_witness"),
    ("cli", "main"),
]
NAMES = [f"{m}.{a}" for m, a in TARGETS]
SCAN = NAMES.index("pnd.minimize_polynomial")
EVAL_MANY = NAMES.index("polyalg.Polynomial.eval_many")


def _original(module: str, attr: str):
    mod = importlib.import_module(f"polynormal.{module}")
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(mod, cls))[meth]
    return getattr(mod, attr)


class Tracer:
    """Span recorder; use as a context manager to install and remove wrappers."""

    def __init__(self):
        self.name = array("l")
        self.parent = array("l")
        self.qid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.question = -1  # ordinal of the question being answered
        self.scanned: list = []  # (question, hash of the scanned polynomial's terms)
        self.points = 0  # rows passed to Polynomial.eval_many
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, nid: int, fn):
        names, parents, qids, starts, ends = self.name, self.parent, self.qid, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if nid == SCAN:
                self.scanned.append((self.question, hash(frozenset(args[0].terms.items()))))
            elif nid == EVAL_MANY:
                pts = np.asarray(args[1])
                self.points += pts.shape[0] if pts.ndim > 1 or args[0].dim == 1 else 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(self.question)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "polynormal" or n.startswith("polynormal.")]
        for nid, (module, attr) in enumerate(TARGETS):
            fn = _original(module, attr)
            wrapper = self._wrap(nid, fn)
            if "." in attr:
                owner = getattr(importlib.import_module(f"polynormal.{module}"), attr.split(".")[0])
                self._patches.append((owner, attr.split(".")[1], fn))
                setattr(owner, attr.split(".")[1], wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)
        return False

    # -- summaries ---------------------------------------------------------

    def arrays(self):
        return (
            np.array(self.name),
            np.array(self.parent),
            np.array(self.qid),
            np.array(self.start),
            np.array(self.end),
        )

    def counts(self) -> dict:
        names = np.array(self.name)
        return {n: int(c) for n, c in zip(NAMES, np.bincount(names, minlength=len(NAMES)))}

    def self_seconds(self, scale=None) -> dict:
        """Per target: total span time minus the time of its direct child spans.

        ``scale``, indexed by question ordinal, multiplies each span's self
        time (the host-speed scale of ``hostspeed``).
        """
        names, parents, qids, starts, ends = self.arrays()
        dur = ends - starts
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        if scale is not None:
            own = own * np.asarray(scale)[qids]
        own = np.bincount(names, weights=own, minlength=len(NAMES))
        return dict(zip(NAMES, own.tolist()))

    def distinct_ratio(self) -> float:
        return len(set(self.scanned)) / len(self.scanned) if self.scanned else 0.0

    def dump(self, path: Path):
        names, parents, qids, starts, ends = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, span_names=np.array(NAMES), name=names, parent=parents, question=qids, start=starts, end=ends)


# -- cross-check against cProfile ---------------------------------------------------

REFERENCE_DENSITY = {
    "poly": {"dim": 2, "terms": [
        {"alpha": [0, 0], "coef": 1.0}, {"alpha": [4, 0], "coef": 1.0},
        {"alpha": [2, 2], "coef": 1.0}, {"alpha": [0, 4], "coef": 1.0},
    ]},
    "A": [[1.0, 0.0], [0.0, 1.0]],
    "b": [0.0, 0.0],
}


def crosscheck(workdir: Path) -> list:
    """Rows (name, traced calls, cProfile calls) for CLI decompose of
    x1^4 + x2^4 + x1^2 x2^2 + 1 with A = I, b = 0."""
    from polynormal import cli

    workdir.mkdir(parents=True, exist_ok=True)
    src = workdir / "reference.json"
    src.write_text(json.dumps(REFERENCE_DENSITY))
    argv = ["decompose", "--input", str(src), "--out", str(workdir / "reference-dec.json")]
    cli.main(argv)  # warm caches and lazy imports so both counted runs start alike

    prof = cProfile.Profile()
    prof.enable()
    cli.main(argv)
    prof.disable()
    by_code = {}
    for (filename, line, funcname), (_, calls, *_rest) in pstats.Stats(prof).stats.items():
        by_code[(filename, line, funcname)] = calls
    profiled = {}
    for name, (module, attr) in zip(NAMES, TARGETS):
        code = _original(module, attr).__code__
        profiled[name] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

    tracer = Tracer()
    with tracer:
        tracer.question = 0
        cli.main(argv)
    traced = tracer.counts()
    return [(name, traced[name], profiled[name]) for name in NAMES]
