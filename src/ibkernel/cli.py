"""Command-line front end: circle experiment, kernel generation, validation.

Exit codes: 0 success, 1 validation found residuals over tolerance,
2 configuration/input error, 3 solver failure. All file writes are atomic
(temp file + rename) and reals are serialized with 17 significant digits
so outputs round-trip losslessly and are byte-stable for identical inputs.
"""

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
from dataclasses import fields
from enum import Enum

import numpy as np

from .errors import DegenerateDomain, IBKernelError, LengthMismatch
from .experiments import CircleCaseConfig, run_circle_case, validate_moments
from .ibops import KernelStrategy, make_grid
from .kernels import (
    BasisDegree,
    KernelWeights,
    WeightFunction,
    build_basis,
    solve_peskin4,
)
from .onesided import KernelBounds, SignedDistance

DEFAULT_CONFIG_NAME = "ibkernel.json"

_CASE_KEYS = {f.name for f in fields(CircleCaseConfig)}
_CONFIG_KEYS = _CASE_KEYS | {
    "formulation", "weight_kernel", "basis_degree", "shift",
}
_FORMULATIONS = ("standard", "backus-gilbert", "peskin4", "one-sided")
# The config keys each command reads; it refuses any other.
_CIRCLE_KEYS = _CASE_KEYS | {"weight_kernel", "basis_degree"}
_MOMENT_KEYS = {"formulation", "weight_kernel", "mesh_width", "extents", "basis_degree"}
_KERNEL_KEYS = {
    "standard": _MOMENT_KEYS,
    "backus-gilbert": _MOMENT_KEYS,
    "one-sided": _MOMENT_KEYS | {"center", "radius", "bounds"},
    "peskin4": {"formulation", "shift"},
}
# A word argparse takes as a negative number rather than an option flag.
# Its own rule (Python 3.10-3.12) leaves out the exponent form, -1e-3.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class KernelSource(Enum):  # the problem a kernel file was asked for
    CLOSED_FORM = "ClosedForm"
    PROBLEM_B = "ProblemB"
    PROBLEM_C = "ProblemC"
    PROBLEM_D = "ProblemD"


# The moment formulations all run the KernelStrategy pipeline; the label
# records which problem the file was asked for. The closed form is Problem
# B's minimizer, so "standard" and "backus-gilbert" write the same weights.
_MOMENT_SOURCES = {
    "standard": KernelSource.CLOSED_FORM,
    "backus-gilbert": KernelSource.PROBLEM_B,
    "one-sided": KernelSource.PROBLEM_D,
}


class ConfigError(Exception):
    pass


def fmt(x):
    """17-significant-digit decimal, enough to round-trip any double."""
    return f"{float(x):.17g}"


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ibkernel-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path):
    """Read a JSON config (``ibkernel.json`` if present without ``path``)
    as a plain dict (empty without a file), refusing unknown keys."""
    if path is None:
        if os.path.exists(DEFAULT_CONFIG_NAME):
            path = DEFAULT_CONFIG_NAME
        else:
            return {}
    elif not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _refuse_unread(config, reads, command):
    unread = set(config) - reads
    if unread:
        raise ConfigError(f"{command} does not read config keys {sorted(unread)}")


def weight_function_from(config):
    kind = config.get("weight_kernel", "psi6")
    if kind not in ("psi6", "psi4"):
        raise ConfigError(f"unknown weight_kernel: {kind!r} (use psi6 or psi4)")
    try:
        h = float(config.get("mesh_width", 0.075))
        if kind == "psi6":
            return WeightFunction.six_point_spline(h)
        return WeightFunction.four_point_peskin(h)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"mesh_width must be a positive number: {err}") from err


def basis_degree_from(config):
    try:
        return BasisDegree(config.get("basis_degree", "Linear"))
    except ValueError as err:
        raise ConfigError(f"unknown basis_degree: {err}") from err


def _bounds_from(config):
    b = config.get("bounds")
    if b is None:
        return None
    try:
        return KernelBounds(float(b[0]), float(b[1]))
    except (TypeError, ValueError, IndexError) as err:
        raise ConfigError(f"bounds must be [alpha, beta]: {err}") from err


def _case_from(config):
    """The config's ``case`` (1 without one): a whole number, not a bool."""
    case = config.get("case", 1)
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(case, bool) and float(case) == int(case):
            return int(case)
    raise ConfigError(f"case must be a whole number, got {case!r}")


def _signed_distance_from(config, dimension):
    center = config.get("center", (0.0, 0.0))
    try:
        if np.shape(center) != (dimension,):
            raise ConfigError(f"center needs {dimension} coordinates for this domain")
        return SignedDistance.circle(center, float(config.get("radius", 0.5)))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"center/radius: {err}") from err


def _circle_table_csv(table):
    lines = ["marker_deg,rel_error,psi_min,psi_max,eq_residual,mode"]
    for r in table.rows:
        lines.append(
            f"{fmt(r.marker_deg)},{fmt(r.rel_error)},{fmt(r.psi_min)},"
            f"{fmt(r.psi_max)},{fmt(r.eq_residual)},{r.mode}"
        )
    return "\n".join(lines) + "\n"


def _circle_weights_csv(table):
    lines = ["x,y,psi,marker_deg"]
    for r in table.rows:
        for site, psi in zip(r.weights.sites, r.weights.psi):
            lines.append(
                f"{fmt(site[0])},{fmt(site[1])},{fmt(psi)},{fmt(r.marker_deg)}"
            )
    return "\n".join(lines) + "\n"


def cmd_circle(args):
    config = load_config(args.config)
    _refuse_unread(config, _CIRCLE_KEYS, "circle")
    for key, runs in (("weight_kernel", "psi6"), ("basis_degree", "Linear")):
        if config.get(key, runs) != runs:
            raise ConfigError(f"{key}: circle runs {runs} only, not {config[key]!r}")
    # case and bounds have their own readers below.
    overrides = {
        key: config[key]
        for key in _CASE_KEYS - {"case", "bounds"}
        if key in config
    }
    bounds = args.bounds if args.bounds is not None else _bounds_from(config)
    if bounds is not None:
        overrides["bounds"] = bounds
    try:
        case = args.case if args.case is not None else _case_from(config)
        cfg = CircleCaseConfig.for_case(case, **overrides)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err

    try:
        table = run_circle_case(cfg)
    except DegenerateDomain as err:  # raised only where the grid is built
        raise ConfigError(f"extents/mesh_width: {err}") from err

    table_path = args.table or f"circle_case{case}_table.csv"
    weights_path = args.weights or f"circle_case{case}_weights.csv"
    atomic_write(table_path, _circle_table_csv(table))
    atomic_write(weights_path, _circle_weights_csv(table))

    for r in table.rows:
        print(
            f"marker {r.marker_deg:g} deg: rel_error={r.rel_error:.3e} "
            f"psi=[{r.psi_min:.4f}, {r.psi_max:.4f}] mode={r.mode}"
        )
    print(f"wrote {table_path} and {weights_path}")
    return 0


def _kernel_dump(weights, degree, formulation):
    doc = {
        "source": _MOMENT_SOURCES[formulation].value,
        "mode": weights.mode.value,
        "dimension": int(weights.sites.shape[1]),
        "basis_degree": degree.value,
        "eval": [fmt(v) for v in weights.eval],
        "sites": [[fmt(v) for v in s] for s in weights.sites],
        "psi": [fmt(v) for v in weights.psi],
        "eq_residual": fmt(weights.equality_residual),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_kernel(args):
    config = load_config(args.config)
    formulation = args.formulation or config.get("formulation", "standard")
    if formulation not in _FORMULATIONS:
        raise ConfigError(f"unknown formulation: {formulation!r}")
    _refuse_unread(config, _KERNEL_KEYS[formulation],
                   f"kernel --formulation {formulation}")
    out_path = args.out or f"kernel_{formulation.replace('-', '_')}.json"

    if formulation == "peskin4":
        shift = args.shift if args.shift is not None else config.get("shift")
        if shift is None:
            raise ConfigError("peskin4 requires --shift")
        try:
            result = solve_peskin4(np.asarray(shift, dtype=float))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"shift must be numbers in [0, 1): {err}") from err
        doc = {
            "source": KernelSource.PROBLEM_C.value,
            "dimension": result.dimension,
            "shift": [fmt(v) for v in result.shift],
            "offsets": list(result.OFFSETS),
            "weights": [[fmt(v) for v in row] for row in result.weights],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        atomic_write(out_path, text)
        per_axis = "; ".join(
            "(" + ", ".join(f"{v:.6f}" for v in row) + ")"
            for row in result.weights
        )
        print(f"peskin4 weights per axis: {per_axis}")
        print(f"wrote {out_path}")
        return 0

    wf = weight_function_from(config)
    extents = config.get("extents", ((-1.0, 1.0), (-1.0, 1.0)))
    try:
        grid = make_grid(extents, wf.mesh_width)
    except (TypeError, ValueError, DegenerateDomain) as err:
        raise ConfigError(f"extents must be [lo, hi] pairs: {err}") from err
    if args.eval is None:
        raise ConfigError("kernel generation requires --eval coordinates")
    eval_point = np.asarray(args.eval, dtype=float)
    if eval_point.shape[0] != grid.dimension:
        raise ConfigError(
            f"--eval needs {grid.dimension} coordinates for this domain"
        )
    if not np.isfinite(eval_point).all():
        raise ConfigError(f"--eval coordinates must be finite, got {args.eval}")
    degree = basis_degree_from(config)

    sd = bounds = None
    if formulation == "one-sided":
        sd, bounds = _signed_distance_from(config, grid.dimension), _bounds_from(config)
    strategy = KernelStrategy(wf, degree, sd, bounds)
    _, weights = strategy.kernel_for(grid, eval_point)

    atomic_write(out_path, _kernel_dump(weights, degree, formulation))
    print(
        f"{formulation} kernel at {eval_point.tolist()}: "
        f"{len(weights.psi)} sites, eq_residual={weights.equality_residual:.3e}"
    )
    print(f"wrote {out_path}")
    return 0


def _validate_moment_file(doc, tolerance):
    sites = np.asarray(doc["sites"], dtype=float)
    if sites.ndim == 1:
        sites = sites[:, None]
    psi = np.asarray(doc["psi"], dtype=float)
    eval_point = np.asarray(doc["eval"], dtype=float)
    degree = BasisDegree(doc.get("basis_degree") or "Linear")
    basis = build_basis(sites.shape[1], degree)
    try:
        KernelSource(doc.get("source", "ClosedForm"))
    except ValueError as err:
        raise ConfigError(f"unknown source in file: {err}") from err
    weights = KernelWeights(
        psi=psi,
        sites=sites,
        eval=eval_point,
        equality_residual=float(doc.get("eq_residual", 0.0)),
    )
    residuals = validate_moments(weights, basis)
    names = ["zeroth"] + [f"first[{k}]" for k in range(len(residuals) - 1)]
    ok = True
    for name, res in zip(names, residuals):
        passed = res <= tolerance  # False on a NaN residual
        ok = ok and passed
        status = "ok" if passed else "FAIL"
        print(f"moment {name}: residual {res:.3e} [{status}]")
    return ok


def _validate_peskin_file(doc, tolerance):
    weights = np.asarray(doc["weights"], dtype=float)
    shift = np.asarray(doc["shift"], dtype=float)
    d = shift.size  # one shift and one row of four weights per axis
    got = (weights.shape, shift.shape, doc.get("dimension", d))
    if not d or got != ((d, 4), (d,), d):
        raise ValueError(f"weights, shift, dimension {got} are not (d, 4), (d,), d ≥ 1")
    ok = True
    for axis, (w, s) in enumerate(zip(weights, shift)):
        even = abs(w[1] + w[3] - 0.5)
        odd = abs(w[0] + w[2] - 0.5)
        offsets = np.array([-1.0, 0.0, 1.0, 2.0])
        first = abs(float((offsets - s) @ w))
        squares = abs(float(w @ w) - 0.375)
        for name, res in (("even-sum", even), ("odd-sum", odd),
                          ("first-moment", first), ("sum-of-squares", squares)):
            passed = res <= tolerance
            ok = ok and passed
            status = "ok" if passed else "FAIL"
            print(f"axis {axis} {name}: residual {res:.3e} [{status}]")
    return ok


def cmd_validate(args):
    try:
        with open(args.weights_file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read weights file: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("weights file root must be a JSON object")
    tolerance = args.tolerance
    if not (np.isfinite(tolerance) and tolerance >= 0.0):
        raise ConfigError(
            f"--tolerance must be finite and >= 0, got {tolerance}"
        )
    try:
        if doc.get("source") == KernelSource.PROBLEM_C.value:
            ok = _validate_peskin_file(doc, tolerance)
        elif {"sites", "psi", "eval"} <= set(doc):
            ok = _validate_moment_file(doc, tolerance)
        else:
            raise ConfigError("weights file missing sites/psi/eval fields")
    except (KeyError, ValueError, LengthMismatch) as err:
        raise ConfigError(f"malformed weights file: {err}") from err
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ibkernel",
        description="Generate and validate immersed-boundary kernel weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("circle", help="run the circular-interface experiment")
    c.add_argument("--case", type=int, choices=(1, 2, 3, 4))
    c.add_argument("--config", help="JSON config path")
    c.add_argument("--table", help="error-table CSV output path")
    c.add_argument("--weights", help="weights CSV output path")
    c.add_argument("--bounds", type=float, nargs=2, metavar=("ALPHA", "BETA"))
    c.set_defaults(func=cmd_circle)

    k = sub.add_parser("kernel", help="generate kernel weights at a point")
    k.add_argument("--formulation", choices=_FORMULATIONS)
    k.add_argument("--eval", type=float, nargs="+", metavar="COORD")
    k.add_argument("--shift", type=float, nargs="+", metavar="S")
    k.add_argument("--config", help="JSON config path")
    k.add_argument("--out", help="JSON output path")
    k.set_defaults(func=cmd_kernel)

    v = sub.add_parser("validate", help="check a weights file")
    v.add_argument("weights_file")
    v.add_argument("--tolerance", type=float, default=1e-10)
    v.set_defaults(func=cmd_validate)

    for p in (parser, c, k, v):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except IBKernelError as err:
        print(f"solver error: {err.__class__.__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
