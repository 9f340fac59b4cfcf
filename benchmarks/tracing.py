"""Per-layer tracing by wrapping ``pathprob``'s public functions.

No file of the library changes.  ``Tracer.install()`` replaces every
attribute of a ``pathprob`` module that is bound to a hooked function (so
``quadrature.step_m`` and ``weights.step_m`` both lead to the wrapper), and
the class attribute for a hooked method; ``Tracer.uninstall()`` restores the
originals.  Each call records a span: name, layer, start, end, parent span,
solve id, thread, and the work counts taken from its arguments or result.
Spans stay in memory until the run writes them out.

A hook whose target no longer exists is listed in ``Tracer.missing``; the
metrics that need it are reported as missing and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _points(a):
    return int(np.broadcast(np.asarray(a["z"]), np.asarray(a["s"])).size)


def _quadrature_counts(a, res):
    d = a["cfg"].n - 1
    points = sum((a["points_per_dim"] * 2**level) ** d for level in range(a["doublings"] + 1))
    rel = abs(res.refinement[-1]) / abs(res.value) if res.refinement and res.value else 0.0
    return {"points": points, "refinement_rel": rel}


def _mc_counts(a, res):
    return {
        "paths": a["sampler"].n_samples,
        "threads": a["sampler"].threads,
        "ess": res.ess,
        "negative_mass_fraction": res.negative_mass_fraction,
    }


def _propagate_counts(a, res):
    del res
    steps = max(1, math.ceil(a["duration"] / a["dt"])) if a["duration"] > 0 else 0
    return {"split_steps": steps, "fft_len": a["psi0"].x.size}


# (attribute path under pathprob, counts(bound args, result)); the span is
# named "<module>.<function>" and its layer is the module
HOOKS = (
    ("potentials.BandLimitedPotential.evaluate", lambda a, r: {"points": int(np.size(a["x"]))}),
    ("potentials.band_limit", None),
    ("potentials.potential_from_dict", None),
    ("lattice.interior_from_velocity_changes", None),
    ("lattice.read_path_csv", None),
    ("weights.step_m", lambda a, r: {"points": _points(a)}),
    ("weights.batch_log_weights",
     lambda a, r: {"paths": int(np.atleast_2d(a["interiors"]).shape[0])}),
    ("weights.path_weight", None),
    ("weights.positivity_threshold", None),
    ("weights.m_sup_certified", None),
    ("quadrature.transition_probability_quadrature", _quadrature_counts),
    ("quadrature.extrapolate_gamma", None),
    ("montecarlo.estimate_transition_mc", _mc_counts),
    ("montecarlo.sample_bridge_paths", None),
    ("oracle.ck_check", None),
    ("oracle.kernel_estimate", None),
    ("oracle.propagate", _propagate_counts),
    ("analysis.convergence_sweep", None),
    ("cli.run", lambda a, r: {"nonzero_exits": int(r != 0)}),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    solve: int
    thread: int
    counts: dict = field(default_factory=dict)

    def as_dict(self):
        return dict(vars(self))


class Tracer:
    """Records spans for the solves it is installed around."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: list[int] = []
        self._solve = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        for path, counter in HOOKS:
            self._resolve(path, counter)

    def _resolve(self, path, counter):
        module_name, *attrs = path.split(".")
        name = f"{module_name}.{attrs[-1]}"
        try:
            owner = importlib.import_module(f"pathprob.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        wrapper = self._wrap(name, module_name, original, counter)
        if inspect.isclass(owner):
            self._patches.append((owner, attrs[-1], original, wrapper))
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "pathprob" or mod_name.startswith("pathprob."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn, counter):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's outermost span hangs off the solve thread's
            # innermost open span
            parent = stack[-1] if stack else (tracer._root[-1] if tracer._root else None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = {}
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result)
                except Exception:  # noqa: BLE001 - a changed signature must not stop the run
                    tracer.count_errors.add(name)
            tracer.spans.append(
                Span(span_id, name, layer, start, end, parent, tracer._solve,
                     threading.get_ident(), counts)
            )
            return result

        return wrapper

    def install(self, solve: int) -> None:
        self._solve = solve
        self._root = self._stack()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SolveStats:
    """Busy time, self time, calls and counts of one solve's spans.

    Self time is a span's duration minus the part of it that its child spans
    (in any thread) cover.
    """

    def __init__(self, spans):
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append((s.start, s.end))
        self.busy = defaultdict(float)
        self.self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(list))
        for s in spans:
            own = (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            self.busy[s.name] += s.end - s.start
            self.self[s.name] += own
            self.layer_self[s.layer] += own
            self.calls[s.name] += 1
            for key, value in s.counts.items():
                self.counts[s.name][key].append(value)

    def total(self, name, key):
        return sum(self.counts[name][key])

    def peak(self, name, key):
        return max(self.counts[name][key], default=0)


def _ratio(num, den):
    return num / den if den else 0.0


SM, BLW, PW = "weights.step_m", "weights.batch_log_weights", "weights.path_weight"
QUAD, MC, SBP = ("quadrature.transition_probability_quadrature",
                 "montecarlo.estimate_transition_mc", "montecarlo.sample_bridge_paths")
PROP, EVAL = "oracle.propagate", "potentials.evaluate"

# name -> (unit, hooks it needs, value from a SolveStats)
PER_LAYER = {
    "weights.step_m.calls": ("count", (SM,), lambda st: st.calls[SM]),
    "weights.step_m.points": ("count", (SM,), lambda st: st.total(SM, "points")),
    "weights.step_m.busy_s": ("s", (SM,), lambda st: st.busy[SM]),
    "weights.step_m.points_per_s": (
        "1/s", (SM,), lambda st: _ratio(st.total(SM, "points"), st.busy[SM])),
    "weights.batch_log_weights.paths": ("count", (BLW,), lambda st: st.total(BLW, "paths")),
    "weights.batch_log_weights.self_s": ("s", (BLW, SM), lambda st: st.self[BLW]),
    "weights.path_weight.calls": ("count", (PW,), lambda st: st.calls[PW]),
    "weights.path_weight.busy_s": ("s", (PW,), lambda st: st.busy[PW]),
    "weights.positivity_threshold.busy_s": (
        "s", ("weights.positivity_threshold",),
        lambda st: st.busy["weights.positivity_threshold"]),
    "quadrature.points": ("count", (QUAD,), lambda st: st.total(QUAD, "points")),
    "quadrature.points_per_s": (
        "1/s", (QUAD,), lambda st: _ratio(st.total(QUAD, "points"), st.busy[QUAD])),
    "quadrature.self_s": ("s", (QUAD, SM), lambda st: st.layer_self["quadrature"]),
    "quadrature.refinement_rel": ("ratio", (QUAD,), lambda st: st.peak(QUAD, "refinement_rel")),
    "analysis.self_s": (
        "s", ("analysis.convergence_sweep", QUAD), lambda st: st.layer_self["analysis"]),
    "montecarlo.paths": ("count", (MC,), lambda st: st.total(MC, "paths")),
    "montecarlo.paths_per_s": (
        "1/s", (MC,), lambda st: _ratio(st.total(MC, "paths"), st.busy[MC])),
    "montecarlo.sample_s": ("s", (SBP,), lambda st: st.busy[SBP]),
    "montecarlo.self_s": ("s", (MC, SBP, BLW), lambda st: st.layer_self["montecarlo"]),
    "montecarlo.ess_frac": (
        "ratio", (MC,), lambda st: _ratio(st.total(MC, "ess"), st.total(MC, "paths"))),
    "montecarlo.negative_mass_fraction": (
        "ratio", (MC,), lambda st: st.peak(MC, "negative_mass_fraction")),
    # batch work (sampling + weights) over the wall time the threads had
    "montecarlo.parallel_eff": (
        "ratio", (MC, SBP, BLW),
        lambda st: _ratio(st.busy[SBP] + st.busy[BLW], st.busy[MC] * st.peak(MC, "threads"))),
    "lattice.busy_s": (
        "s", ("lattice.interior_from_velocity_changes",),
        lambda st: st.busy["lattice.interior_from_velocity_changes"]),
    "oracle.propagate.calls": ("count", (PROP,), lambda st: st.calls[PROP]),
    "oracle.split_steps": ("count", (PROP,), lambda st: st.total(PROP, "split_steps")),
    "oracle.fft_len": ("count", (PROP,), lambda st: st.peak(PROP, "fft_len")),
    "oracle.split_steps_per_s": (
        "1/s", (PROP,), lambda st: _ratio(st.total(PROP, "split_steps"), st.busy[PROP])),
    "oracle.propagate.busy_s": ("s", (PROP,), lambda st: st.busy[PROP]),
    "oracle.self_s": ("s", (PROP, "oracle.ck_check", "oracle.kernel_estimate"),
                      lambda st: st.layer_self["oracle"]),
    "potentials.evaluate.points": ("count", (EVAL,), lambda st: st.total(EVAL, "points")),
    "potentials.evaluate.busy_s": ("s", (EVAL,), lambda st: st.busy[EVAL]),
    "potentials.band_limit.busy_s": (
        "s", ("potentials.band_limit",), lambda st: st.busy["potentials.band_limit"]),
    "cli.run.calls": ("count", ("cli.run",), lambda st: st.calls["cli.run"]),
    "cli.run.self_s": ("s", ("cli.run",), lambda st: st.layer_self["cli"]),
    "cli.run.nonzero_exits": (
        "count", ("cli.run",), lambda st: st.total("cli.run", "nonzero_exits")),
}

# counts that must repeat exactly between two traced runs with the same seed
EXACT_COUNTS = tuple(name for name, (unit, _, _) in PER_LAYER.items() if unit == "count")
