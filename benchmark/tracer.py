"""In-memory span tracer that wraps isoflow's public callables from outside.

Nothing in ``src/`` is edited.  ``Tracer.install()`` replaces, for the
lifetime of the trace:

* every function listed in a module's ``__all__`` (and defined there),
  together with each copy other ``isoflow`` modules imported by name;
* the methods of ``CumulativeDensity1D`` and ``ChordSpline.__post_init__``;
* the ``value``/``deriv``/``deriv2`` methods of each weight class, as
  counters of abscissae (no span);
* ``isoflow.optimize._unpack`` as a counter of line-search trial steps,
  the one private hook: the descent has no public boundary per trial.

A span is (name, start, end, parent, task) and lives in flat arrays; the
spans are written out with ``dump`` when the run ends.  ``layer_counts``
and ``derive`` turn a window of spans into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

import numpy as np

MODULES = ("weights", "profiles", "transport", "geometry", "spectrum", "optimize", "cli")

# span name -> layer group; spans not listed are still recorded (they
# count toward coverage and self time) but feed no group metric
GROUPS = {
    "weights.CumulativeDensity1D.__init__": "weights.cum_build",
    "weights.CumulativeDensity1D.quantile": "weights.quantile",
    "weights.CumulativeDensity1D.mass_below": "weights.mass",
    "weights.CumulativeDensity1D.mass_above": "weights.mass",
    "weights.CumulativeDensity1D.mass": "weights.mass",
    "weights.integrate_weighted": "weights.integrate",
    "weights.integrate_weighted_report": "weights.integrate",
    "weights.total_weighted_volume": "weights.integrate",
    "weights.normalizers": "weights.integrate",
    "profiles.build_profile": "profiles.build",
    "profiles.compare_profiles": "profiles.compare",
    "transport.build_transport": "transport.build",
    "transport.pushforward_check": "transport.pushforward",
    "transport.transported_perimeter_bound": "transport.bound",
    "geometry.cmc_shoot": "geometry.shoot",
    "geometry.index_form": "geometry.index_form",
    "geometry.curve_weighted_length": "geometry.length",
    "spectrum.build_spectral_problem": "spectrum.assemble",
    "spectrum.spectral_gap_1d": "spectrum.gap",
    "optimize.minimize": "optimize.minimize",
    "optimize.weighted_length": "optimize.length",
    "optimize.enclosed_area": "optimize.area",
    "optimize.shape_gradient": "optimize.gradient",
    "optimize.ChordSpline.__post_init__": "optimize.chord_new",
}

CUM_METHODS = ("__init__", "mass_below", "mass_above", "mass", "quantile")
WEIGHT_CLASSES = ("ZeroWeight", "AffineWeight", "QuadraticWeight", "LogPowerWeight",
                  "PiecewiseLinearWeight")

# (metric, unit) in the order BENCHMARK.json lists them; cli.* and the
# trace.tasks / trace.overhead_frac metrics are filled by the
# workloads, the rest by layer_counts and derive
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.cmd.profile_s", "s"),
    ("cli.cmd.transport_s", "s"),
    ("cli.cmd.stability_s", "s"),
    ("cli.cmd.jacobi_s", "s"),
    ("cli.cmd.spectrum_s", "s"),
    ("cli.cmd.optimize_s", "s"),
    ("weights.cum_build.calls", "count"),
    ("weights.cum_build.busy_s", "s"),
    ("weights.quantile.calls", "count"),
    ("weights.quantile.busy_s", "s"),
    ("weights.mass.calls", "count"),
    ("weights.mass.busy_s", "s"),
    ("weights.integrate.calls", "count"),
    ("weights.integrate.busy_s", "s"),
    ("weights.omega_points", "count"),
    ("profiles.build.calls", "count"),
    ("profiles.build.self_s", "s"),
    ("profiles.compare.busy_s", "s"),
    ("transport.build.calls", "count"),
    ("transport.build.self_s", "s"),
    ("transport.pushforward.busy_s", "s"),
    ("transport.bound.calls", "count"),
    ("transport.bound.busy_s", "s"),
    ("transport.cum_builds_per_bound", "ratio"),
    ("geometry.shoot.calls", "count"),
    ("geometry.shoot.busy_s", "s"),
    ("geometry.shoot.nodes", "count"),
    ("geometry.index_form.calls", "count"),
    ("geometry.index_form.busy_s", "s"),
    ("geometry.length.busy_s", "s"),
    ("spectrum.assemble.calls", "count"),
    ("spectrum.assemble.busy_s", "s"),
    ("spectrum.gap.calls", "count"),
    ("spectrum.gap.busy_s", "s"),
    ("optimize.minimize.calls", "count"),
    ("optimize.minimize.self_s", "s"),
    ("optimize.iterations", "count"),
    ("optimize.length.calls", "count"),
    ("optimize.length.busy_s", "s"),
    ("optimize.area.calls", "count"),
    ("optimize.area.busy_s", "s"),
    ("optimize.gradient.calls", "count"),
    ("optimize.gradient.busy_s", "s"),
    ("optimize.chord_new.calls", "count"),
    ("optimize.chord_new.busy_s", "s"),
    ("optimize.area_per_iter", "ratio"),
    ("optimize.accept_ratio", "ratio"),
    ("trace.tasks", "count"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _accepted_steps(trace) -> int:
    """Accepted descent steps: one per trace row except a final row that
    converged or stalled without stepping."""
    rows = len(trace.iterations)
    return rows - 1 if trace.status in ("converged", "stalled") else rows


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.task = array.array("i")
        self._stack: list[int] = []
        self.current_task = -1
        self.counters = {"omega_points": 0, "shoot_nodes": 0, "iterations": 0, "trials": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, on_result=None):
        nid = self._intern(name)
        clock = time.perf_counter
        name_id, start, end, parent, task = (
            self.name_id, self.start, self.end, self.parent, self.task)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            task.append(self.current_task)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_points(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(obj, t, *args, **kwargs):
            counters["omega_points"] += int(np.size(t))
            return fn(obj, t, *args, **kwargs)

        return counted

    def _count_trials(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters["trials"] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every isoflow module; idempotent per Tracer."""
        if self._patches:
            return
        import isoflow  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules[f"isoflow.{name}"] for name in MODULES}
        hooks = {
            "geometry.cmc_shoot": self._on_shoot,
            "optimize.minimize": self._on_minimize,
        }
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(fn)] = (fn, self._wrap(fn, name, hooks.get(name)))
        # rebind the originals wherever any isoflow module holds them
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "isoflow" or modname.startswith("isoflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        cum = mods["weights"].CumulativeDensity1D
        for meth in CUM_METHODS:
            self._set(cum, meth, self._wrap(cum.__dict__[meth], f"weights.CumulativeDensity1D.{meth}"))
        chord = mods["optimize"].ChordSpline
        self._set(chord, "__post_init__",
                  self._wrap(chord.__dict__["__post_init__"], "optimize.ChordSpline.__post_init__"))
        for cls_name in WEIGHT_CLASSES:
            cls = getattr(mods["weights"], cls_name)
            for meth in ("value", "deriv", "deriv2"):
                if meth in cls.__dict__:
                    self._set(cls, meth, self._count_points(cls.__dict__[meth]))
        opt = mods["optimize"]
        if "_unpack" in opt.__dict__:
            self._set(opt, "_unpack", self._count_trials(opt.__dict__["_unpack"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _on_shoot(self, curve) -> None:
        self.counters["shoot_nodes"] += int(curve.n_nodes)

    def _on_minimize(self, result) -> None:
        self.counters["iterations"] += _accepted_steps(result[1])

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
        }

    def dump(self, path: str) -> None:
        """Write the spans as a compressed npz (names stored alongside)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _has_ancestor(parent: np.ndarray, mask_of_ancestor) -> np.ndarray:
    """For each span, does any proper ancestor satisfy mask_of_ancestor(i, anc)?

    Walks all spans up one level per step, vectorized.
    """
    n = parent.size
    found = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        idx = np.nonzero(live)[0]
        found[idx] |= mask_of_ancestor(idx, anc[idx])
        nxt = np.full(n, -1, dtype=parent.dtype)
        nxt[idx] = parent[anc[idx]]
        anc = nxt


def layer_counts(names: list[str], spans: dict[str, np.ndarray], counters: dict[str, int],
                 task_seconds: float) -> dict[str, float]:
    """Additive per-layer sums over one traced window of tasks.

    calls  = outermost spans of the group (a group span nested in another
             span of the same group, e.g. mass() -> mass_below(), counts once)
    busy_s = total time of those outermost spans
    self_s = span time minus the time of its direct child spans, summed
    Keys starting with "_" are inputs of the ratios that ``derive`` forms,
    so windows from several processes can be summed first.
    """
    group_names = sorted(set(GROUPS.values()))
    code = {g: i for i, g in enumerate(group_names)}
    # span name -> group code; -1 for spans outside every group
    group_of = np.array([code.get(GROUPS.get(nm), -1) for nm in names] + [-1], dtype=np.int16)
    keep = spans["task"] >= 0
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    groups = group_of[spans["name_id"]]

    child_time = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    has_parent = parent >= 0
    nested_same = _has_ancestor(parent, lambda i, a: (groups[a] == groups[i]) & (groups[i] >= 0))
    in_bound = _has_ancestor(parent, lambda i, a: groups[a] == code["transport.bound"])

    out: dict[str, float] = {}
    for group in group_names:
        sel = keep & (groups == code[group])
        outer = sel & ~nested_same
        out[f"{group}.calls"] = float(np.count_nonzero(outer))
        out[f"{group}.busy_s"] = float(np.sum(dur[outer]))
        out[f"{group}.self_s"] = float(np.sum(dur[sel] - child_time[sel]))
    outer_cum = keep & (groups == code["weights.cum_build"]) & ~nested_same
    out["_cum_in_bound"] = float(np.count_nonzero(outer_cum & in_bound))
    out["weights.omega_points"] = float(counters["omega_points"])
    out["geometry.shoot.nodes"] = float(counters["shoot_nodes"])
    out["optimize.iterations"] = float(counters["iterations"])
    out["_trials"] = float(counters["trials"])
    out["trace.spans"] = float(np.count_nonzero(keep))
    out["_top_s"] = float(np.sum(dur[keep & ~has_parent]))
    out["_task_s"] = float(task_seconds)
    return out


def sum_counts(parts: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0.0) + value
    return total


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Ratios of the summed window; drops the helper keys."""
    out = {k: v for k, v in raw.items() if not k.startswith("_")}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["transport.cum_builds_per_bound"] = ratio(raw["_cum_in_bound"], raw["transport.bound.calls"])
    out["optimize.area_per_iter"] = ratio(raw["optimize.area.calls"], raw["optimize.iterations"])
    out["optimize.accept_ratio"] = ratio(raw["optimize.iterations"], raw["_trials"])
    out["trace.coverage"] = ratio(raw["_top_s"], raw["_task_s"])
    return out
