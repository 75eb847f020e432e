"""Batch front-end: INI config in, CSV tables and JSON verdicts out.

Each subcommand drives one computational module, writes its CSV tables
and returns its metrics, tolerance and checks; one stage runner times it,
decides its verdict and writes its record, errors included; `all` runs
every subcommand and aggregates.  Exit codes follow a strict contract: 0
every verdict verified, 2 at least one violation (a quantitative claim
failed with a witness), 1 operational error (malformed config, IO failure,
or a run that did not finish).  Malformed input never produces a traceback.

One rule decides every verdict: a check (name, margin, location, value)
holds exactly when its margin, the allowance minus what was measured, is
>= 0, so a nan margin fails, and the first failing check is the witness.
The checks, in order: profile comparison, perpendicular_equality,
parallel_inequality; transport contraction, pushforward; stability
witness_sign; jacobi halving_ratio; spectrum vertical_gap (when its gap is
judged); optimize relative_gap, unbeaten.

Determinism: no stage draws a random number, and every CSV cell is
written as the shortest round-trip decimal by _csv_table, the one writer
of every table, so identical configs give byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConsistencyError, DomainError, IsoflowError
from .geometry import cmc_shoot, jacobi_residual, parallel_halfspace_stability
from .optimize import chord_curve, make_straight_chord, minimize, vertical_chord_length
from .profiles import build_profile, check_profile_ode, compare_profiles
from .spectrum import poincare_certify
from .transport import build_transport, check_contraction, pushforward_check
from .weights import (
    AffineWeight,
    Density,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    ZeroWeight,
    _Frozen,
    check_concavity,
    total_weighted_volume,
)

__all__ = [
    "RunConfig",
    "load_config",
    "resolved_config_text",
    "main",
]

# the checks' own grids and thresholds, the last five echoed as records' tolerance (spectrum
# echoes _STABILITY_TOLERANCE * min(1, 2c)); transport also records _PUSHFORWARD_TOLERANCE and
# jacobi its arclength steps, coarsest first
_PROFILE_GRID = 257
_JACOBI_STEPS = (4e-3, 2e-3, 1e-3)
_PUSHFORWARD_TOLERANCE = 1e-13
_JACOBI_EXACT_FLOOR = 1e-9
_OPTIMIZE_BEATEN_MARGIN = 1e-6
_PROFILE_TOLERANCE = 1e-8
_TRANSPORT_TOLERANCE = 1e-6
_STABILITY_TOLERANCE = 1e-6
_JACOBI_MIN_RATIO = 3.5
_OPTIMIZE_RELATIVE_GAP = 5e-3

# section -> key -> (kind, default[, (test, requirement)]); kinds: float, bool,
# str, floats.  A key says what is checked, never how hard: a config that set
# a check's grid, threshold, search space or budget could make it unable to
# fail or fail on a correct curve.  A None default is an interior height of
# the slab, set by load_config.  A range the commands need is checked as its
# key is read, so a bad setting writes nothing; max_length's lets cmc_shoot
# lay at least two and at most 5e6 of every Jacobi step.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "density": {
        "weight": ("str", "zero"),
        "params": ("floats", ()),
        "c": ("float", 0.5),
        "slab": ("floats", (-1.0, 1.0)),
    },
    "run": {
        "out_dir": ("str", "isoflow_out"),
        "expect_bound": ("bool", False),
    },
    "stability": {
        "t0": ("float", None),
    },
    "jacobi": {
        "target_hf": ("float", 0.0),
        "start_x": ("float", 1.0),
        "start_t": ("float", None),
        "angle": ("float", 1.0),
        "max_length": ("float", 8.0,
                       (lambda v: 2.0 * max(_JACOBI_STEPS) <= v <= 5e6 * min(_JACOBI_STEPS),
                        f"must lie in [{2.0 * max(_JACOBI_STEPS)}, {5e6 * min(_JACOBI_STEPS)}]")),
    },
    "optimize": {
        "target_fraction": ("float", 0.5, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
        "x_bottom": ("float", -0.3),
        "x_top": ("float", 0.3),
    },
}


def _piecewise_linear(*params: float) -> PiecewiseLinearWeight:
    if len(params) % 2:
        raise ConfigError("piecewise_linear params must be knot/value pairs: t0, w0, t1, w1, ...")
    return PiecewiseLinearWeight(params[0::2], params[1::2])


# weight name -> (constructor taking the flat params, min and max param count)
_WEIGHTS = {
    "zero": (ZeroWeight, 0, 0),
    "affine": (AffineWeight, 1, 2),
    "quadratic": (QuadraticWeight, 1, 3),
    "log_power": (LogPowerWeight, 1, 1),
    "piecewise_linear": (_piecewise_linear, 4, 64),
}


def _parse_value(kind: str, raw: str, section: str, key: str):
    raw, where = raw.strip(), f"[{section}] {key}"
    try:
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "float":
            value = float(raw)
        elif kind == "floats":
            value = tuple(float(tok) for tok in raw.split(",")) if raw else ()
        else:
            return raw
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from exc
    # a slab endpoint may be infinite; no setting may be nan
    bad = np.isnan(value) if (section, key) == ("density", "slab") else ~np.isfinite(value)
    if bad.any():
        raise ConfigError(f"{where} = {raw!r} is not a finite number")
    return value


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


class RunConfig(_Frozen):
    """A resolved run, built whole: every schema key has a value, the unset
    heights included (load_config says how they are set), and the density
    its stages share is built with the record.  A weight or density that
    refuses its settings, or a height outside the slab, raises ConfigError."""

    def __init__(self, sections: dict[str, dict[str, object]]):
        for section, keys in _SCHEMA.items():
            got = sections.get(section)
            if got is None or set(got) != set(keys):
                raise ConfigError(f"section [{section}] is incomplete")
        vars(self)["sections"] = sections
        name = self.value("density", "weight")
        params = self.value("density", "params")
        if name not in _WEIGHTS:
            raise ConfigError(f"[density] weight = {name!r} is unknown; choose one of {sorted(_WEIGHTS)}")
        make, lo, hi = _WEIGHTS[name]
        if not (lo <= len(params) <= hi):
            raise ConfigError(
                f"weight {name!r} takes between {lo} and {hi} parameters, got {len(params)}"
            )
        slab = self.value("density", "slab")
        if len(slab) != 2:
            raise ConfigError("slab must be two endpoints: a, b")
        try:
            # the run's one slab-factor engine, density.cumulative, is built (or refused) here
            density = Density(make(*params), self.value("density", "c"), 2, tuple(slab))
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"[density] {exc}") from exc
        a, b = density.slab
        for section, key in (("stability", "t0"), ("jacobi", "start_t")):
            height, named = sections[section][key], ""
            if height is None and a < 0.0 < b:
                height = 0.0
            elif height is None:
                height = float(density.cumulative.quantile(0.5, True))
                named = " (unset, so the slab factor's median)"
            if not a < height < b:
                raise ConfigError(f"[{section}] {key} = {height}{named} must lie strictly inside the slab ({a}, {b})")
            sections[section][key] = height
        vars(self)["density"] = density

    def value(self, section: str, key: str):
        return self.sections[section][key]


def load_config(path: str, out_dir: str | None = None, expect_bound: bool = False) -> RunConfig:
    """Parse an INI file against the schema and build its density; unknown
    sections and keys (a check's grid, threshold or search space among them),
    a setting outside its schema row's range (the first in schema order is
    named), an out_dir that is not UTF-8 or would not read back from
    resolved.cfg, an invalid density and a height outside the slab are
    errors.  out_dir, when given, overrides [run] out_dir; expect_bound,
    when true, sets [run] expect_bound, which admits a non-concave weight
    to transport and makes spectrum judge its gap.

    Unset heights ([stability] t0, [jacobi] start_t) become 0.0 when it lies
    strictly inside the slab, else the slab factor's median, which is held
    to the slab as a set height is.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    sections: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section, keys in _SCHEMA.items():
        sections[section] = {}
        for key, (kind, default, *limit) in keys.items():
            if parser.has_option(section, key):
                value = _parse_value(kind, parser.get(section, key), section, key)
            else:
                value = default
            for test, requirement in limit:
                if not test(value):
                    raise ConfigError(f"[{section}] {key} = {value} {requirement}")
            sections[section][key] = value
    if out_dir is not None:
        sections["run"]["out_dir"] = out_dir
    if expect_bound:
        sections["run"]["expect_bound"] = True
    out = sections["run"]["out_dir"]
    try:
        out.encode("utf-8")  # resolved.cfg echoes it as UTF-8
    except UnicodeEncodeError as exc:
        raise ConfigError(f"[run] out_dir = {out!r} is not valid UTF-8") from exc
    if out != out.strip() or re.search(r"[\r\n\x00]|(^|\s)[;#]", out):  # as the parser above reads values
        raise ConfigError(f"[run] out_dir = {out!r} would not read back from resolved.cfg: a line break, "
                          "a NUL byte, an edge space or a ';' or '#' after a space")
    return RunConfig(sections)


def resolved_config_text(config: RunConfig) -> str:
    """Echo of the effective configuration; re-parsing reproduces it."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, *_) in keys.items():
            lines.append(f"{key} = {_format_value(kind, config.value(section, key))}")
        lines.append("")
    return "\n".join(lines)


_SEVERITY = {"verified": 0, "error": 1, "violated": 2}


# a command's metrics, tolerance and checks (name, margin, location, value), which _run_stage judges
_Outcome = tuple[dict, float, tuple[tuple[str, float, object, float], ...]]


def _atomic_write(config: RunConfig, filename: str, text: str) -> None:
    """Write the file whole or not at all: a failed write or rename removes
    its temporary file and re-raises."""
    path = os.path.join(config.value("run", "out_dir"), filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _finite(value):
    """value with every non-finite float replaced by None, so JSON stays RFC 8259."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _write_json(config: RunConfig, filename: str, data: dict) -> None:
    text = json.dumps(_finite(data), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(config, filename, text + "\n")


def _csv_table(header: str, *columns) -> str:
    """CSV text under the header, a row per entry of the columns: every number
    as its shortest round-trip repr (str of a Python float), a string as itself."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _curve_table(curve) -> str:
    """A discrete curve's nodes as CSV: position, unit normal and curvature."""
    (x, t), (nx, nt) = curve.points.T, curve.normals.T
    return _csv_table("x,t,Nx,Nt,k", x, t, nx, nt, curve.curvature)


def cmd_profile(config: RunConfig) -> _Outcome:
    density = config.density
    parallel = build_profile(density, "parallel", grid_size=_PROFILE_GRID)
    perpendicular = build_profile(density, "perpendicular", grid_size=_PROFILE_GRID)
    for filename, p in (("profile_parallel.csv", parallel), ("profile_perp.csv", perpendicular)):
        _atomic_write(config, filename, _csv_table("s,V,A,v,F,dF,ddF", p.s, p.V, p.A, p.v, p.F, p.dF, p.ddF))
    comparison = compare_profiles(parallel, perpendicular, tie_tol=_PROFILE_TOLERANCE)
    ode_par = check_profile_ode(parallel, density.c, tol=_PROFILE_TOLERANCE)
    ode_perp = check_profile_ode(perpendicular, density.c, tol=_PROFILE_TOLERANCE)
    metrics = {
        "comparison": comparison.verdict,
        "strict": comparison.verdict == "strict",
        "min_margin": comparison.min_margin,
        "n_ties": comparison.n_ties,
        "n_grid": parallel.v.size,
        "parallel_ode": ode_par.verdict,
        "parallel_max_defect": ode_par.max_defect,
        "perpendicular_ode": ode_perp.verdict,
        "perpendicular_max_defect": ode_perp.max_defect,
    }
    perp_defect = np.maximum(ode_perp.max_defect, -ode_perp.min_defect)
    return metrics, _PROFILE_TOLERANCE, (
        ("comparison", comparison.banded_margin, (*comparison.violations, None)[0], comparison.min_margin),
        ("perpendicular_equality", _PROFILE_TOLERANCE - perp_defect,
         (*ode_perp.counterexamples, None)[0], ode_perp.max_defect),
        ("parallel_inequality", _PROFILE_TOLERANCE - ode_par.max_defect,
         (*ode_par.counterexamples, None)[0], ode_par.max_defect),
    )


def cmd_transport(config: RunConfig) -> _Outcome:
    # rho' <= 1 is claimed for a concave weight; another one is judged only under expect_bound
    report = check_concavity(config.density.weight)
    if not (report.concave or config.value("run", "expect_bound")):
        raise ConsistencyError(f"transport source requires a concave weight: {report.detail} "
                               "(set [run] expect_bound or pass --expect-bound to judge it)")
    tmap = build_transport(config.density)
    _atomic_write(config, "transport.csv", _csv_table("s,rho,drho", tmap.s, tmap.rho, tmap.drho))
    contraction = check_contraction(tmap, tol=_TRANSPORT_TOLERANCE)
    push = pushforward_check(tmap)
    metrics = {
        "max_derivative": contraction.max_derivative,
        "max_location": contraction.max_location,
        "pushforward_max_residual": push.max_residual,
        "pushforward_tolerance": _PUSHFORWARD_TOLERANCE,
        "alpha": tmap.alpha,
        "beta": tmap.beta,
    }
    return metrics, _TRANSPORT_TOLERANCE, (
        ("contraction", 1.0 + _TRANSPORT_TOLERANCE - contraction.max_derivative,
         contraction.max_location, contraction.max_derivative),
        ("pushforward", _PUSHFORWARD_TOLERANCE - push.max_residual, push.max_location, push.max_residual),
    )


def cmd_stability(config: RunConfig) -> _Outcome:
    t0 = float(config.value("stability", "t0"))
    verdict = parallel_halfspace_stability(config.density, t0)
    metrics = {
        "parallel_verdict": verdict.verdict,
        "t0": t0,
        "weight_second_derivative": verdict.weight_second_derivative,
        "witness_index_value": verdict.witness_value,
    }
    # the dichotomy is internally consistent when the witness index value
    # has the sign the second derivative of the weight predicts
    sign = 1.0 if verdict.verdict == "stable" else -1.0
    margin = sign * (verdict.witness_value + _STABILITY_TOLERANCE)
    return metrics, _STABILITY_TOLERANCE, (("witness_sign", margin, f"t0={t0}", verdict.witness_value),)


def cmd_jacobi(config: RunConfig) -> _Outcome:
    density = config.density
    target = float(config.value("jacobi", "target_hf"))
    origin = (float(config.value("jacobi", "start_x")), float(config.value("jacobi", "start_t")))
    angle = float(config.value("jacobi", "angle"))
    max_length = float(config.value("jacobi", "max_length"))
    residuals = []
    for h in _JACOBI_STEPS:
        finest = cmc_shoot(density, target, origin, angle, step=h, max_length=max_length)
        residuals.append(jacobi_residual(density, finest))
    ratios = [
        math.inf if residuals[i] == 0.0 else residuals[i - 1] / residuals[i]
        for i in range(1, len(residuals))
    ]
    # the coarsest step has no ratio: its cell is empty
    _atomic_write(config, "jacobi.csv", _csv_table(
        "h,max_residual,ratio", _JACOBI_STEPS, residuals, ["", *ratios]))
    _atomic_write(config, "jacobi_curve.csv", _curve_table(finest))
    metrics = {
        "target_hf": target,
        "steps": list(_JACOBI_STEPS),
        "max_residuals": list(map(float, residuals)),
        "ratios": list(map(float, ratios)),
        "n_nodes_finest": finest.n_nodes,
    }
    # every ratio at least 3.5, or an exact shot; numpy's reductions carry a nan to the margin
    worst = int(np.argmin(ratios))
    margin = np.maximum(ratios[worst] - _JACOBI_MIN_RATIO, _JACOBI_EXACT_FLOOR - np.max(residuals))
    return metrics, _JACOBI_MIN_RATIO, (("halving_ratio", margin, f"h={_JACOBI_STEPS[worst + 1]}", ratios[worst]),)


def cmd_spectrum(config: RunConfig) -> _Outcome:
    certificate = poincare_certify(config.density)
    problem, u1 = certificate.problem, certificate.eigenvector
    _atomic_write(config, "spectrum.csv", _csv_table("t,w,u1", problem.nodes, problem.masses, u1))
    # on a vertical line k = 0 and Ric_f(N,N) = 2c, so the minimum of
    # I_f(u,u)/||u||^2 over mean-zero u is the slab-factor gap minus 2c.
    # Bakry-Emery guarantees it for a concave weight, so failing it is a
    # genuine violation; a non-concave diagnostic weight only violates
    # under [run] expect_bound, otherwise the computed gap is informational
    lam, two_c = certificate.lambda_value, 2.0 * config.density.c
    vertical_min = lam - two_c
    tolerance = _STABILITY_TOLERANCE * min(1.0, two_c)
    concave = check_concavity(config.density.weight).concave
    metrics = {
        "lambda": lam,
        "hyperplane_gap": min(two_c, lam),  # each Gaussian factor's gap is exactly 2c
        "vertical_index_min": vertical_min,
        "concave": concave,
        "truncation_shift": certificate.truncation_shift,
        "n_cells": problem.n_cells,
    }
    gap = ("vertical_gap", vertical_min + tolerance, "vertical line, slab-factor eigenfunction", vertical_min)
    return metrics, tolerance, (gap,) if config.value("run", "expect_bound") or concave else ()


def cmd_optimize(config: RunConfig) -> _Outcome:
    density = config.density
    fraction = float(config.value("optimize", "target_fraction"))
    # passed unnamed, so the start chord's fields are freed once the descent leaves it
    final, trace = minimize(
        make_straight_chord(
            density,
            x_bottom=float(config.value("optimize", "x_bottom")),
            x_top=float(config.value("optimize", "x_top")),
        ),
        fraction * total_weighted_volume(density),
    )
    _atomic_write(config, "optimize_trace.csv", _csv_table(
        "iter,length,area_err,grad_norm", trace.iterations, trace.lengths, trace.area_errors, trace.gradient_norms))
    if trace.status != "converged":
        raise IsoflowError(
            f"optimizer did not converge (status {trace.status!r} after "
            f"{len(trace.iterations)} iterations)"
        )
    _atomic_write(config, "chord.csv", _curve_table(chord_curve(final)))
    benchmark = vertical_chord_length(density, fraction)
    report = trace.final
    rel_gap = abs(report.length - benchmark) / benchmark
    unbeaten = report.length - benchmark * (1.0 - _OPTIMIZE_BEATEN_MARGIN)
    # a converged chord that is not stationary and does not beat the
    # benchmark shows only that the descent stopped short, not a violation
    if not (report.stationary or unbeaten < 0.0):
        raise IsoflowError(
            f"optimizer converged to a non-stationary chord (hf_spread {report.hf_spread:.3g}, "
            f"wall angles {report.angle_bottom_deg:.3g} and {report.angle_top_deg:.3g} deg)"
        )
    metrics = {
        "final_length": report.length,
        "benchmark": benchmark,
        "relative_gap": rel_gap,
        "iterations": int(len(trace.iterations)),
        "hf_spread": report.hf_spread,
        "angle_bottom_deg": report.angle_bottom_deg,
        "angle_top_deg": report.angle_top_deg,
        "area_error_max": float(np.max(trace.area_errors)),
        "status": trace.status,
    }
    return metrics, _OPTIMIZE_RELATIVE_GAP, (
        ("relative_gap", _OPTIMIZE_RELATIVE_GAP - rel_gap, "final chord length", report.length),
        ("unbeaten", unbeaten, "final chord length", report.length),
    )


# each stage's command, and every file it may write: record, error record, CSVs
_STAGES = {
    "profile": (cmd_profile,
                ("compare.json", "profile_error.json", "profile_parallel.csv", "profile_perp.csv")),
    "transport": (cmd_transport, ("transport.json", "transport_error.json", "transport.csv")),
    "stability": (cmd_stability, ("stability.json", "stability_error.json")),
    "jacobi": (cmd_jacobi, ("jacobi.json", "jacobi_error.json", "jacobi.csv", "jacobi_curve.csv")),
    "spectrum": (cmd_spectrum, ("spectrum.json", "spectrum_error.json", "spectrum.csv")),
    "optimize": (cmd_optimize, ("optimize.json", "optimize_error.json", "optimize_trace.csv", "chord.csv")),
}


def _run_stage(name: str, config: RunConfig) -> dict:
    """Time one command, decide its verdict by the one rule and write its
    record, the command's own error included.  An OSError propagates."""
    command, (done, failed, *_) = _STAGES[name]
    start, status = time.perf_counter(), "verified"
    try:
        metrics, tolerance, checks = command(config)
    except (IsoflowError, ValueError) as exc:
        status, metrics, tolerance, checks = "error", {"message": str(exc)}, None, ()
        print(f"isoflow: {name}: error: {exc}", file=sys.stderr)
    failing = [{"location": location, "value": value}
               for _, margin, location, value in checks if not margin >= 0.0]  # a nan margin fails too
    record = {"command": name, "status": "violated" if failing else status, "metrics": metrics,
              "tolerance": tolerance, "checks": [{"name": n, "margin": float(m)} for n, m, *_ in checks],
              "wall_time_s": time.perf_counter() - start}
    if failing:
        record["witness"] = failing[0]
    _write_json(config, failed if status == "error" else done, record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description=(
            "verify isoperimetric structure of log-concave perturbations "
            "of Gaussian measures on slabs"
        ),
    )
    parser.add_argument("command", choices=(*_STAGES, "all"))
    parser.add_argument("--config", required=True, help="path to an INI run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides [run] out_dir)")
    parser.add_argument(
        "--expect-bound",
        action="store_true",
        help="set [run] expect_bound: judge a non-concave weight's transport map and "
        "treat its negative vertical-line index minimum lambda_1 - 2c as a violation",
    )
    args = parser.parse_args(argv)
    names = tuple(_STAGES) if args.command == "all" else (args.command,)
    where = ""  # the stage running, which an io error names
    try:
        config = load_config(args.config, out_dir=args.out, expect_bound=args.expect_bound)
        out_dir = str(config.value("run", "out_dir"))
        os.makedirs(out_dir, exist_ok=True)
        resolved = resolved_config_text(config)
        # a directory describes one configuration: a rerun clears its stages' files and the
        # summary, any other resolved.cfg bytes (undecodable too) every file isoflow names
        earlier = os.path.join(out_dir, "resolved.cfg")
        same = os.path.isfile(earlier) and Path(earlier).read_bytes() == resolved.encode("utf-8")
        stale = names if same else tuple(_STAGES)
        for filename in ("summary.json", *(f for name in stale for f in _STAGES[name][1])):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, filename))
        _atomic_write(config, "resolved.cfg", resolved)
        records = []
        for name in names:
            where = f"{name}: "
            records.append(_run_stage(name, config))
        where = ""
        if args.command == "all":
            summary = {
                "status": max((r["status"] for r in records), key=lambda s: _SEVERITY[s]),
                "verdicts": records,
            }
            _write_json(config, "summary.json", summary)
    except IsoflowError as exc:
        print(f"isoflow: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"isoflow: {where}io error: {exc}", file=sys.stderr)
        return 1
    return max(_SEVERITY[r["status"]] for r in records)
