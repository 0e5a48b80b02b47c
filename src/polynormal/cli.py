"""Command-line pipeline: JSON in, JSON/CSV out.

Exit codes: 0 ok, 1 parse error, 2 invalid density or parameters,
3 density has a real zero, 4 axis condition fails.  Identical inputs and
configuration produce byte-identical JSON outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .charfn import (
    charfn_from_dict,
    charfn_to_dict,
    forward_cf,
    inverse_cf,
    real_imag_parts,
)
from .decompose import (
    DEFAULT_THETA_TOL,
    VERDICT_FAILS_CONDITION_337,
    VERDICT_HAS_REAL_ZERO,
    decompose,
    decomposition_to_dict,
    diagnosis_to_dict,
    precheck,
)
from .errors import (
    NegativeDensity,
    NotEligible,
    PolynormalError,
    ZeroIntegral,
)
from .pnd import (
    SearchBudget,
    find_min_poly,
    integral_quadrature,
    pnd_from_dict,
    pnd_to_dict,
    write_density_csv,
)
from .polyalg import polynomial_from_dict, polynomial_to_dict
from .verify import (
    Example4Params,
    GaussianFactor,
    biquadratic_factor_probe,
    convolution_check,
    example4_B,
    example4_B_from_density,
    example4_negative_witness,
    example4_signed_density,
    example4_witness_slice,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_ZERO = 3
EXIT_CONDITION = 4


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by every subcommand; the field names
    are the argparse destinations of the global options."""

    theta_tol: float = DEFAULT_THETA_TOL
    quadrature_order: int | None = None
    seed: int = 0
    out: str | None = None
    verbose: bool = False

    @staticmethod
    def from_args(args) -> "RunConfig":
        # Global options use SUPPRESS defaults (they are shared between the
        # top-level parser and every subcommand), so only given ones are set.
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
        cfg = RunConfig(**given)
        if not 0.0 < cfg.theta_tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {cfg.theta_tol}")
        if cfg.quadrature_order is not None and cfg.quadrature_order <= 0:
            raise ValueError("quadrature order must be positive")
        cfg.budget()  # rejects a malformed seed for every subcommand
        return cfg

    def budget(self) -> SearchBudget:
        return SearchBudget(seed=self.seed)


class _ParseFailure(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc


def _emit(obj, cfg: RunConfig):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(cfg: RunConfig, message: str):
    if cfg.verbose:
        print(message, file=sys.stderr)


def _load_pnd(path, cfg: RunConfig):
    data = _load_json(path)
    try:
        return pnd_from_dict(data, cfg.budget())
    except (KeyError, TypeError) as exc:
        raise _ParseFailure(f"bad density schema in {path}: {exc}") from exc


def _cmd_validate(args, cfg: RunConfig) -> int:
    pnd = _load_pnd(args.input, cfg)
    scan = find_min_poly(pnd, cfg.budget())
    report = {
        "valid": True,
        "norm_const": pnd.norm_const,
        "integral": integral_quadrature(pnd, cfg.quadrature_order),
        "poly_min": {
            "value": scan.value,
            "point": [float(v) for v in scan.point],
            "attained": scan.attained,
        },
    }
    _note(cfg, f"density normalizes with norm_const = {pnd.norm_const:.12g}")
    _emit(report, cfg)
    return EXIT_OK


def _cmd_charfn(args, cfg: RunConfig) -> int:
    pnd = _load_pnd(args.input, cfg)
    cf = forward_cf(pnd)
    re, im = real_imag_parts(cf)
    out = charfn_to_dict(cf)
    out["real_part"] = polynomial_to_dict(re)["terms"]
    out["imag_part"] = polynomial_to_dict(im)["terms"]
    _emit(out, cfg)
    return EXIT_OK


def _cmd_invcharfn(args, cfg: RunConfig) -> int:
    data = _load_json(args.input)
    try:
        cf = charfn_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise _ParseFailure(f"bad characteristic-function schema: {exc}") from exc
    pnd = inverse_cf(cf, cfg.budget())
    _emit(pnd_to_dict(pnd), cfg)
    return EXIT_OK


def _verdict_table(diag) -> str:
    r = diag.report
    attained = "attained" if diag.attained else "not attained"
    rows = [
        ("verdict", diag.verdict),
        ("poly infimum", f"{diag.infimum:.6g} ({attained})"),
        ("condition337", str(r.condition337).lower()),
        ("leading coeffs", "[" + ", ".join(f"{v:.6g}" for v in r.leading_coeffs) + "]"),
        ("inf_b", f"{r.inf_b:.6g}"),
        ("inf_a_lower", f"{r.inf_a_lower:.6g}"),
        ("epsilon", f"{r.epsilon:.6g}"),
        ("search radius", f"{r.search_radius:.6g}"),
        ("index count", str(r.index_count)),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _cmd_diagnose(args, cfg: RunConfig) -> int:
    pnd = _load_pnd(args.input, cfg)
    diag = precheck(pnd, cfg.budget())
    _note(cfg, _verdict_table(diag))
    _emit(diagnosis_to_dict(diag), cfg)
    return EXIT_OK


def _cmd_decompose(args, cfg: RunConfig) -> int:
    pnd = _load_pnd(args.input, cfg)
    try:
        dec = decompose(pnd, theta=args.theta, tol=cfg.theta_tol, budget=cfg.budget())
    except NotEligible as exc:
        _emit({"error": str(exc), "diagnosis": diagnosis_to_dict(exc.diagnosis)}, cfg)
        if exc.diagnosis.verdict == VERDICT_HAS_REAL_ZERO:
            return EXIT_ZERO
        if exc.diagnosis.verdict == VERDICT_FAILS_CONDITION_337:
            return EXIT_CONDITION
        return EXIT_INVALID
    _note(cfg, f"theta = {dec.theta:.9g}, min of rescaled polynomial = {dec.min_p_theta:.3e}")
    _emit(decomposition_to_dict(dec), cfg)
    return EXIT_OK


def _load_factor(path, cfg: RunConfig):
    data = _load_json(path)
    if "mean" in data and "cov" in data:
        return GaussianFactor(
            mean=np.asarray(data["mean"], dtype=float),
            cov=np.asarray(data["cov"], dtype=float),
        )
    try:
        return pnd_from_dict(data, cfg.budget())
    except (KeyError, TypeError) as exc:
        raise _ParseFailure(f"bad factor schema in {path}: {exc}") from exc


def _default_grid(dim: int):
    axis = np.linspace(-4.0, 4.0, 5)
    if dim == 1:
        return axis.reshape(-1, 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _cmd_verify_conv(args, cfg: RunConfig) -> int:
    f = _load_pnd(args.f, cfg)
    g1 = _load_factor(args.y, cfg)
    g2 = _load_factor(args.z, cfg)
    report = convolution_check(f, g1, g2, _default_grid(f.dim), cfg.quadrature_order)
    _emit(
        {
            "max_abs_error": report.max_abs_error,
            "quadrature_order": report.quadrature_order,
            "grid_points": len(report.grid),
        },
        cfg,
    )
    return EXIT_OK


def _cmd_example4(args, cfg: RunConfig) -> int:
    params = Example4Params(args.a11, args.a12, args.a22)
    out = {"params": {"a11": args.a11, "a12": args.a12, "a22": args.a22}}
    if args.a12 == 0.0:
        out["B"] = None
        out["note"] = "a12 = 0: quartic axis term vanishes; witness scanned on the x1 axis"
    else:
        out["B"] = example4_B(params)
        out["B_numeric"] = example4_B_from_density(params)
    witness = example4_negative_witness(params, args.n_max)
    out["witness"] = {
        "point": [float(v) for v in witness.point],
        "value": witness.value,
        "n": witness.n,
    }
    if args.csv:
        value_fn, _, _ = example4_signed_density(params)
        pts = example4_witness_slice(params, args.n_max)
        write_density_csv(args.csv, pts, np.array([value_fn(p) for p in pts]))
        out["csv"] = args.csv
    _note(cfg, f"negative witness at n = {witness.n}: value {witness.value:.3e}")
    _emit(out, cfg)
    return EXIT_OK


def _cmd_probe(args, cfg: RunConfig) -> int:
    data = _load_json(args.poly)
    try:
        poly = polynomial_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise _ParseFailure(f"bad polynomial schema: {exc}") from exc
    result = biquadratic_factor_probe(poly, starts=args.starts, seed=cfg.seed)
    _emit(
        {
            "residual": result.residual,
            "factor1": polynomial_to_dict(result.factor1),
            "factor2": polynomial_to_dict(result.factor2),
        },
        cfg,
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Global options live on a parent so they can appear before or after the
    # subcommand; SUPPRESS keeps subcommand-position values from clobbering
    # top-level ones with defaults.  Their defaults are RunConfig's.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", dest="theta_tol", metavar="TOL", type=float, default=argparse.SUPPRESS,
                        help=f"theta bisection tolerance (default {RunConfig.theta_tol:g})")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"seed for all randomized searches (default {RunConfig.seed})")
    common.add_argument("--out", "--output", dest="out", default=argparse.SUPPRESS,
                        help="output JSON path (default stdout)")
    common.add_argument("--quadrature-order", type=int, default=argparse.SUPPRESS,
                        help="Gauss-Hermite nodes per axis")
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="print a short human-readable summary to stderr")

    parser = argparse.ArgumentParser(
        prog="polynormal",
        parents=[common],
        description="Polynomial-normal densities: validation, transforms, decomposition, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="normalize a density JSON and report its checks")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("charfn", parents=[common], help="characteristic function of a density JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_charfn)

    p = sub.add_parser("invcharfn", parents=[common], help="density of a characteristic-function JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_invcharfn)

    p = sub.add_parser("diagnose", parents=[common], help="decomposability precheck")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("decompose", parents=[common], help="split off the largest certified Gaussian factor")
    p.add_argument("--input", required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify-conv", parents=[common], help="convolution check of a claimed factorization")
    p.add_argument("--f", required=True, help="original density JSON")
    p.add_argument("--y", required=True, help="first factor JSON (density or Gaussian)")
    p.add_argument("--z", required=True, help="second factor JSON (density or Gaussian)")
    p.set_defaults(func=_cmd_verify_conv)

    p = sub.add_parser("example4", parents=[common], help="bundled counterexample: growth coefficient and negative witness")
    p.add_argument("--a11", type=float, default=0.5)
    p.add_argument("--a12", type=float, default=0.1)
    p.add_argument("--a22", type=float, default=0.5)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--csv", default=None, help="write the probe-curve density slice to this CSV")
    p.set_defaults(func=_cmd_example4)

    p = sub.add_parser("probe", parents=[common], help="biquadratic factorization probe")
    p.add_argument("--poly", required=True)
    p.add_argument("--starts", type=int, default=200)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return args.func(args, cfg)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NegativeDensity, ZeroIntegral) as exc:
        print(f"invalid density: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, PolynormalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
