"""Batch front-end: INI config in, CSV tables and JSON verdicts out.

Each subcommand drives one computational module and emits a verdict
record; `all` runs every subcommand and aggregates.  Exit codes follow
a strict contract: 0 every verdict verified, 2 at least one violation
(a quantitative claim failed with a witness), 1 operational error
(malformed config, IO failure, or a run that did not finish).  Malformed
input never produces a traceback.

Determinism: a single 64-bit seed in the config is split per
subcommand, and every CSV cell is written as the shortest round-trip
decimal, so identical configs give byte-identical CSV outputs.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IsoflowError
from .geometry import curve_csv, cmc_shoot, jacobi_residual, parallel_halfspace_stability
from .optimize import (
    OptimizerConfig,
    chord_curve,
    make_straight_chord,
    minimize,
    trace_csv,
    vertical_chord_length,
)
from .profiles import build_profile, check_profile_ode, compare_profiles, profile_csv
from .spectrum import poincare_certify, spectrum_csv
from .transport import build_transport, check_contraction, pushforward_check, transport_csv
from .weights import (
    AffineWeight,
    Density,
    LogPowerWeight,
    PiecewiseLinearWeight,
    QuadraticWeight,
    ZeroWeight,
    total_weighted_volume,
)

__all__ = [
    "RunConfig",
    "VerdictRecord",
    "load_config",
    "resolved_config_text",
    "main",
]

COMMANDS = ("profile", "transport", "stability", "jacobi", "spectrum", "optimize")

# section -> key -> (kind, default); kinds: int, float, bool, str, floats.
# A None default is an interior height of the slab, set by load_config.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "density": {
        "weight": ("str", "zero"),
        "params": ("floats", ()),
        "c": ("float", 0.5),
        "dim": ("int", 2),
        "slab": ("floats", (-1.0, 1.0)),
    },
    "run": {
        "seed": ("int", 20260816),
        "out_dir": ("str", "isoflow_out"),
    },
    "profile": {
        "grid_size": ("int", 257),
        "tolerance": ("float", 1e-8),
    },
    "transport": {
        "grid_size": ("int", 2001),
        "n_intervals": ("int", 50),
        "require_concave": ("bool", True),
        "tolerance": ("float", 1e-6),
    },
    "stability": {
        "t0": ("float", None),
        "n_nodes": ("int", 4001),
        "tolerance": ("float", 1e-6),
    },
    "jacobi": {
        "target_hf": ("float", 0.0),
        "start_x": ("float", 1.0),
        "start_t": ("float", None),
        "angle": ("float", 1.0),
        "steps": ("floats", (4e-3, 2e-3, 1e-3)),
        "max_length": ("float", 8.0),
        "min_ratio": ("float", 3.5),
    },
    "spectrum": {
        "n_cells": ("int", 2000),
    },
    "optimize": {
        "target_fraction": ("float", 0.5),
        "n_controls": ("int", 12),
        "x_bottom": ("float", -0.3),
        "x_top": ("float", 0.3),
        "max_iterations": ("int", 400),
        "gradient_tolerance": ("float", 1e-6),
    },
}

_WEIGHT_ARITY = {
    "zero": (0, 0),
    "affine": (1, 2),
    "quadratic": (1, 3),
    "log_power": (1, 1),
    "piecewise_linear": (4, 64),
}


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "float":
            value = float(raw)
        elif kind == "floats":
            value = tuple(float(tok) for tok in raw.split(",")) if raw else ()
        else:
            return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from exc
    if np.isnan(value).any():  # inf is a legal setting, nan never is
        raise ConfigError(f"{where} = {raw!r} is not a number")
    return value


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings: every schema key has a value."""

    sections: dict[str, dict[str, object]] = field(default_factory=dict)

    def __post_init__(self):
        for section, keys in _SCHEMA.items():
            got = self.sections.get(section)
            if got is None or set(got) != set(keys):
                raise ConfigError(f"section [{section}] is incomplete")

    def value(self, section: str, key: str):
        return self.sections[section][key]

    def density(self) -> Density:
        """The [density] section's Density, built once per config, so a run
        has one slab-factor engine (Density.cumulative)."""
        return self._density

    @functools.cached_property
    def _density(self) -> Density:
        name = self.value("density", "weight")
        params = self.value("density", "params")
        if name not in _WEIGHT_ARITY:
            raise ConfigError(
                f"unknown weight {name!r}; choose one of {sorted(_WEIGHT_ARITY)}"
            )
        lo, hi = _WEIGHT_ARITY[name]
        if not (lo <= len(params) <= hi):
            raise ConfigError(
                f"weight {name!r} takes between {lo} and {hi} parameters, got {len(params)}"
            )
        if name == "zero":
            weight = ZeroWeight()
        elif name == "affine":
            weight = AffineWeight(*params)
        elif name == "quadratic":
            weight = QuadraticWeight(*params)
        elif name == "log_power":
            weight = LogPowerWeight(params[0])
        else:
            if len(params) % 2:
                raise ConfigError(
                    "piecewise_linear params must be knot/value pairs: t0, w0, t1, w1, ..."
                )
            knots = params[0::2]
            values = params[1::2]
            weight = PiecewiseLinearWeight(knots, values)
        slab = self.value("density", "slab")
        if len(slab) != 2:
            raise ConfigError("slab must be two endpoints: a, b")
        return Density(weight, self.value("density", "c"), self.value("density", "dim"), tuple(slab))

    def with_overrides(self, out_dir: str | None = None) -> "RunConfig":
        sections = {s: dict(kv) for s, kv in self.sections.items()}
        if out_dir is not None:
            sections["run"]["out_dir"] = out_dir
        config = RunConfig(sections)
        if "_density" in vars(self):  # [density] is unchanged
            vars(config)["_density"] = self._density
        return config


def _interior_height(density: Density) -> float:
    """0.0 when it lies strictly inside the slab, else the slab factor's median."""
    a, b = density.slab
    return 0.0 if a < 0.0 < b else float(density.cumulative.quantile(0.5))


def load_config(path: str) -> RunConfig:
    """Parse an INI file against the schema; unknown keys are errors.

    Unset heights ([stability] t0, [jacobi] start_t) become the density's
    _interior_height; an invalid density leaves them None for density() to report.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
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
        for key, (kind, default) in keys.items():
            if parser.has_option(section, key):
                sections[section][key] = _parse_value(
                    kind, parser.get(section, key), f"[{section}] {key}"
                )
            else:
                sections[section][key] = default
    config = RunConfig(sections)
    unset = [(s, key) for s, keys in sections.items() for key, v in keys.items() if v is None]
    if unset:
        try:
            height = _interior_height(config.density())
        except (IsoflowError, ValueError, TypeError):
            return config
        for section, key in unset:
            sections[section][key] = height  # config's own sections: it keeps its Density
    return config


def resolved_config_text(config: RunConfig) -> str:
    """Echo of the effective configuration; re-parsing reproduces it."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(kind, config.value(section, key))}")
        lines.append("")
    return "\n".join(lines)


_SEVERITY = {"verified": 0, "error": 1, "violated": 2}


@dataclass(frozen=True)
class VerdictRecord:
    """Outcome of one subcommand: status, metrics, and a witness when violated."""

    command: str
    status: str
    metrics: dict[str, object]
    tolerance: float
    wall_time_s: float
    witness: dict[str, object] | None = None

    def __post_init__(self):
        if self.status not in _SEVERITY:
            raise ConfigError(f"invalid verdict status {self.status!r}")
        if self.status == "violated" and not self.witness:
            raise ConfigError("a violation verdict must carry a witness")

    def to_dict(self) -> dict:
        keys = ("command", "status", "metrics", "tolerance", "wall_time_s")
        record = {key: getattr(self, key) for key in keys}
        if self.witness is not None:
            record["witness"] = self.witness
        return record


def _atomic_write(out_dir: str, filename: str, text: str) -> None:
    path = os.path.join(out_dir, filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_json(out_dir: str, filename: str, data: dict) -> None:
    _atomic_write(out_dir, filename, json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_profile(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    tol = float(config.value("profile", "tolerance"))
    grid_size = int(config.value("profile", "grid_size"))
    parallel = build_profile(density, "parallel", grid_size=grid_size)
    perpendicular = build_profile(density, "perpendicular", grid_size=grid_size)
    _atomic_write(out_dir, "profile_parallel.csv", profile_csv(parallel))
    _atomic_write(out_dir, "profile_perp.csv", profile_csv(perpendicular))
    comparison = compare_profiles(parallel, perpendicular, tie_tol=tol)
    tie_band = tol * np.maximum(comparison.f_values, comparison.g_values)
    n_ties = int(np.sum(np.abs(comparison.f_values - comparison.g_values) <= tie_band))
    ode_par = check_profile_ode(parallel, density.c, tol=tol)
    ode_perp = check_profile_ode(perpendicular, density.c, tol=tol)
    ok = (
        comparison.verdict in ("strict", "ge_with_ties")
        and ode_perp.verdict == "equality"
        and ode_par.verdict in ("equality", "inequality")
    )
    witness = None
    if not ok:
        if comparison.verdict == "violation":
            witness = {"location": comparison.violations[0], "value": comparison.min_margin}
        else:
            report = ode_perp if ode_perp.verdict == "violation" else ode_par
            witness = {
                "location": report.counterexamples[0] if report.counterexamples else math.nan,
                "value": report.max_defect,
            }
    return VerdictRecord(
        command="profile",
        status="verified" if ok else "violated",
        metrics={
            "comparison": comparison.verdict,
            "strict": comparison.verdict == "strict",
            "min_margin": comparison.min_margin,
            "n_ties": n_ties,
            "n_grid": int(comparison.grid.size),
            "parallel_ode": ode_par.verdict,
            "parallel_max_defect": ode_par.max_defect,
            "perpendicular_ode": ode_perp.verdict,
            "perpendicular_max_defect": ode_perp.max_defect,
        },
        tolerance=tol,
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )


def cmd_transport(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    tol = float(config.value("transport", "tolerance"))
    tmap = build_transport(
        density,
        grid_size=int(config.value("transport", "grid_size")),
        require_concave=bool(config.value("transport", "require_concave")),
    )
    _atomic_write(out_dir, "transport.csv", transport_csv(tmap))
    contraction = check_contraction(tmap, tol=tol)
    push = pushforward_check(
        tmap,
        n_intervals=int(config.value("transport", "n_intervals")),
        seed=int(rng.integers(2**63)),
    )
    push_ok = push.max_residual <= 1e-8
    witness = None
    if not contraction.certified:
        witness = {"location": contraction.max_location, "value": contraction.max_derivative}
    elif not push_ok:
        witness = {"location": "pushforward interval", "value": push.max_residual}
    return VerdictRecord(
        command="transport",
        status="verified" if contraction.certified and push_ok else "violated",
        metrics={
            "max_derivative": contraction.max_derivative,
            "max_location": contraction.max_location,
            "contraction_certified": contraction.certified,
            "pushforward_max_residual": push.max_residual,
            "n_clipped": tmap.n_clipped,
            "alpha": tmap.alpha,
            "beta": tmap.beta,
        },
        tolerance=tol,
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )


@functools.lru_cache(maxsize=1)
def _certificate(density: Density, n_cells: int):
    """The run's one spectral certificate: stability and spectrum share its pencil."""
    return poincare_certify(density, n_cells=n_cells)


def cmd_stability(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    tol = float(config.value("stability", "tolerance"))
    verdict = parallel_halfspace_stability(
        density,
        float(config.value("stability", "t0")),
        n=int(config.value("stability", "n_nodes")),
    )
    # the dichotomy is internally consistent when the witness index value
    # has the sign the second derivative of the weight predicts
    witness_consistent = (
        verdict.witness_value < -tol
        if verdict.verdict == "unstable"
        else verdict.witness_value >= -tol
    )
    # on a vertical line k = 0 and Ric_f(N,N) = 2c, so the minimum of
    # I_f(u,u)/||u||^2 over mean-zero u is the slab-factor gap minus 2c;
    # like the spectral bound it must hold for concave weights
    certificate = _certificate(density, int(config.value("spectrum", "n_cells")))
    vertical_min = certificate.lambda_value - 2.0 * density.c
    vertical_ok = vertical_min >= -tol or not (certificate.concave or expect_bound)
    ok = witness_consistent and vertical_ok
    witness = None
    if not witness_consistent:
        witness = {"location": f"t0={verdict.t0}", "value": verdict.witness_value}
    elif not vertical_ok:
        witness = {"location": "vertical line, slab-factor eigenfunction", "value": vertical_min}
    return VerdictRecord(
        command="stability",
        status="verified" if ok else "violated",
        metrics={
            "parallel_verdict": verdict.verdict,
            "t0": verdict.t0,
            "weight_second_derivative": verdict.weight_second_derivative,
            "witness_index_value": verdict.witness_value,
            "vertical_index_min": vertical_min,
        },
        tolerance=tol,
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )


def cmd_jacobi(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    target = float(config.value("jacobi", "target_hf"))
    origin = (
        float(config.value("jacobi", "start_x")),
        float(config.value("jacobi", "start_t")),
    )
    angle = float(config.value("jacobi", "angle"))
    max_length = float(config.value("jacobi", "max_length"))
    steps = sorted(config.value("jacobi", "steps"), reverse=True)
    if len(steps) < 2:
        raise ConfigError("jacobi needs at least two step sizes for a convergence study")
    residuals = []
    finest = None
    for h in steps:
        curve = cmc_shoot(density, target, origin, angle, step=h, max_length=max_length)
        residuals.append(jacobi_residual(density, curve, (1.0, 0.0)))
        finest = curve
    ratios = [
        math.inf if residuals[i] == 0.0 else residuals[i - 1] / residuals[i]
        for i in range(1, len(residuals))
    ]
    min_ratio = float(config.value("jacobi", "min_ratio"))
    exact_floor = 1e-9
    ok = all(r >= min_ratio for r in ratios) or max(residuals) <= exact_floor
    cells = [""] + [repr(float(r)) for r in ratios]
    rows = [f"{float(h)!r},{float(res)!r},{r}" for h, res, r in zip(steps, residuals, cells)]
    _atomic_write(out_dir, "jacobi.csv", "\n".join(["h,max_residual,ratio", *rows]) + "\n")
    _atomic_write(out_dir, "jacobi_curve.csv", curve_csv(finest))
    return VerdictRecord(
        command="jacobi",
        status="verified" if ok else "violated",
        metrics={
            "target_hf": target,
            "steps": list(map(float, steps)),
            "max_residuals": list(map(float, residuals)),
            "ratios": list(map(float, ratios)),
            "n_nodes_finest": finest.n_nodes,
        },
        tolerance=min_ratio,
        wall_time_s=time.perf_counter() - start,
        witness=None
        if ok
        else {"location": f"h={steps[ratios.index(min(ratios)) + 1]}", "value": min(ratios)},
    )


def cmd_spectrum(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    certificate = _certificate(density, int(config.value("spectrum", "n_cells")))
    _atomic_write(out_dir, "spectrum.csv", spectrum_csv(certificate.problem, certificate.eigenvector))
    # a concave weight is guaranteed the bound, so failing it is a genuine
    # violation; a non-concave diagnostic weight only violates under
    # --expect-bound, otherwise the computed gap is informational
    must_hold = certificate.concave or expect_bound
    ok = certificate.certified or not must_hold
    return VerdictRecord(
        command="spectrum",
        status="verified" if ok else "violated",
        metrics={
            "lambda": certificate.lambda_value,
            "hyperplane_gap": certificate.hyperplane_gap,
            "bound": certificate.bound,
            "certified": certificate.certified,
            "concave": certificate.concave,
            "truncation_shift": certificate.truncation_shift,
            "n_cells": certificate.n_cells,
        },
        tolerance=certificate.bound,
        wall_time_s=time.perf_counter() - start,
        witness=None
        if ok
        else {"location": "slab factor gap", "value": certificate.lambda_value},
    )


def cmd_optimize(density: Density, config: RunConfig, out_dir: str, rng, expect_bound: bool) -> VerdictRecord:
    start = time.perf_counter()
    fraction = float(config.value("optimize", "target_fraction"))
    if not (0.0 < fraction < 1.0):
        raise ConfigError("optimize target_fraction must lie in (0, 1)")
    optimizer = OptimizerConfig(
        target_area=fraction * total_weighted_volume(density),
        max_iterations=int(config.value("optimize", "max_iterations")),
        gradient_tolerance=float(config.value("optimize", "gradient_tolerance")),
    )
    # passed unnamed, so the start chord's cached fields are freed once the descent leaves it
    final, trace = minimize(density, optimizer, make_straight_chord(
        density,
        x_bottom=float(config.value("optimize", "x_bottom")),
        x_top=float(config.value("optimize", "x_top")),
        n_controls=int(config.value("optimize", "n_controls")),
    ))
    _atomic_write(out_dir, "optimize_trace.csv", trace_csv(trace))
    _atomic_write(out_dir, "chord.csv", curve_csv(chord_curve(density, final)))
    benchmark = vertical_chord_length(density, fraction)
    report = trace.final
    rel_gap = abs(report.length - benchmark) / benchmark
    if trace.status != "converged":
        raise IsoflowError(
            f"optimizer did not converge (status {trace.status!r} after "
            f"{len(trace.iterations)} iterations)"
        )
    beaten = report.length < benchmark - 1e-6
    # a converged chord that is not stationary and does not beat the
    # benchmark shows only that the descent stopped short, not a violation
    if not (report.stationary or beaten):
        raise IsoflowError(
            f"optimizer converged to a non-stationary chord (hf_spread {report.hf_spread:.3g}, "
            f"wall angles {report.angle_bottom_deg:.3g} and {report.angle_top_deg:.3g} deg)"
        )
    ok = rel_gap <= 5e-3 and not beaten
    witness = None if ok else {"location": "final chord length", "value": report.length}
    return VerdictRecord(
        command="optimize",
        status="verified" if ok else "violated",
        metrics={
            "final_length": report.length,
            "benchmark": benchmark,
            "relative_gap": rel_gap,
            "iterations": int(len(trace.iterations)),
            "hf_spread": report.hf_spread,
            "angle_bottom_deg": report.angle_bottom_deg,
            "angle_top_deg": report.angle_top_deg,
            "area_error_max": float(np.max(trace.area_errors)),
            "status": trace.status,
        },
        tolerance=5e-3,
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )


_DISPATCH = {
    "profile": cmd_profile,
    "transport": cmd_transport,
    "stability": cmd_stability,
    "jacobi": cmd_jacobi,
    "spectrum": cmd_spectrum,
    "optimize": cmd_optimize,
}


def _command_rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(COMMANDS))
    return {name: np.random.default_rng(child) for name, child in zip(COMMANDS, children)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description=(
            "verify isoperimetric structure of log-concave perturbations "
            "of Gaussian measures on slabs"
        ),
    )
    parser.add_argument("command", choices=COMMANDS + ("all",))
    parser.add_argument("--config", required=True, help="path to an INI run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides [run] out_dir)")
    parser.add_argument(
        "--expect-bound",
        action="store_true",
        help="treat a failed spectral bound or a negative vertical-line index minimum "
        "lambda_1 - 2c as a violation even for non-concave weights",
    )
    args = parser.parse_args(argv)
    _certificate.cache_clear()
    try:
        config = load_config(args.config).with_overrides(out_dir=args.out)
        density = config.density()
        out_dir = str(config.value("run", "out_dir"))
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(out_dir, "resolved.cfg", resolved_config_text(config))
        rngs = _command_rngs(int(config.value("run", "seed")))
    except (IsoflowError, ValueError, TypeError) as exc:
        print(f"isoflow: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"isoflow: io error: {exc}", file=sys.stderr)
        return 1

    names = COMMANDS if args.command == "all" else (args.command,)
    records: list[VerdictRecord] = []
    for name in names:
        try:
            record = _DISPATCH[name](density, config, out_dir, rngs[name], args.expect_bound)
            _write_json(out_dir, "compare.json" if name == "profile" else f"{name}.json", record.to_dict())
        except (IsoflowError, ValueError) as exc:
            print(f"isoflow: {name}: error: {exc}", file=sys.stderr)
            record = VerdictRecord(
                command=name,
                status="error",
                metrics={"message": str(exc)},
                tolerance=math.nan,
                wall_time_s=0.0,
            )
            _write_json(out_dir, f"{name}_error.json", record.to_dict())
        except OSError as exc:
            print(f"isoflow: {name}: io error: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        if args.command != "all" and record.status == "error":
            return 1
    if args.command == "all":
        summary = {
            "status": max((r.status for r in records), key=lambda s: _SEVERITY[s]),
            "verdicts": [r.to_dict() for r in records],
        }
        _write_json(out_dir, "summary.json", summary)
    return max(_SEVERITY[r.status] for r in records)


if __name__ == "__main__":
    sys.exit(main())
