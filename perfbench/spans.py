"""Span tracing of donormatch from outside the package.

``Tracer.install`` replaces each boundary function with a timing wrapper
in every donormatch module namespace that binds it, which is where the
calling module looks it up (``simulate`` imports the ``solve_*``
functions and the deciders by name, ``cli`` imports ``load_scenario``,
and so on). The deciders are wrapped in ``simulate`` only, so that the
count is of the simulator's per-(donor, step) calls and not of the
deciders calling each other. Spans (name, start, end, parent, extra)
stay in a list until the run writes them out.

``layer_metrics`` turns spans into per-layer figures. A span's self time
is its duration minus the durations of its direct children; a layer's
time is the sum of the self times of its spans.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence, Tuple

# Functions that become spans, by the module that defines them.
BOUNDARIES = {
    "synthgen": ("generate_city",),
    "graph": ("load_scenario", "save_scenario", "validate_scenario"),
    "solver": (
        "solve_fixedtime_lp",
        "solve_nadapopt_lp",
        "solve_ratelimit_lp",
        "solve_offline_opt",
        "solve_ratelimit_opt",
    ),
    "policies": ("nadaplp_plan", "nadapopt_plan", "nadaplp_rate_plan", "estimate_beta"),
    "simulate": (
        "estimate_normalization",
        "monte_carlo_evaluate",
        "run_policy",
        "draw_realization",
    ),
    "metrics": ("fairness_report", "empirical_ep", "gamma_of", "competitive_fraction"),
    "oracle": ("brute_force_opt", "brute_force_policy_expectation"),
    "cli": ("main",),
}
# Per-(donor, step) deciders, wrapped where the simulator looks them up.
DECIDERS = (
    "rand_decide",
    "max_decide",
    "randmax_decide",
    "adaptmatch_decide",
    "execute_prematch",
)
DECIDER_CALLER = "simulate"

SOLVER = tuple(f"solver.{n}" for n in BOUNDARIES["solver"])
PLANS = ("policies.nadaplp_plan", "policies.nadapopt_plan", "policies.nadaplp_rate_plan")

# name, unit, better; the order in which a traced run reports them.
LAYER_METRICS = (
    ("synthgen.generate_s", "s", "lower"),
    ("graph.io_s", "s", "lower"),
    ("solver.fixedtime_lp_s", "s", "lower"),
    ("solver.nadapopt_lp_s", "s", "lower"),
    ("solver.ratelimit_lp_s", "s", "lower"),
    ("solver.milp_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.call_p50_s", "s", "lower"),
    ("solver.peak_alloc_mb", "MB", "lower"),
    ("policies.plan_s", "s", "lower"),
    ("policies.beta_s", "s", "lower"),
    ("policies.decide_calls", "count", "lower"),
    ("policies.decide_s", "s", "lower"),
    ("simulate.normalization_s", "s", "lower"),
    ("simulate.run_policy_s", "s", "lower"),
    ("simulate.realization_s", "s", "lower"),
    ("simulate.evaluate_self_s", "s", "lower"),
    ("simulate.trials", "count", "higher"),
    ("simulate.trials_per_s", "1/s", "higher"),
    ("metrics.report_s", "s", "lower"),
    ("oracle.enum_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

Span = Tuple[str, float, float, int, Optional[float]]


class Tracer:
    """Collects spans from wrapped donormatch functions while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        # name -> (duration, function, args, kwargs) of its slowest call
        self.slowest: Dict[str, tuple] = {}

    def _wrap(self, name: str, fn, extra=None, keep_slowest: bool = False):
        spans, stack, slowest = self.spans, self._stack, self.slowest
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            if extra is not None:
                spans[idx][4] = extra(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                spans[idx][1], spans[idx][2] = start, end
                stack.pop()
                if keep_slowest and end - start > slowest.get(name, (0.0,))[0]:
                    slowest[name] = (end - start, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every boundary in every loaded donormatch namespace."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "donormatch" or key.startswith("donormatch.")
        }
        targets = [(owner, n, None) for owner, names in BOUNDARIES.items() for n in names]
        targets += [("policies", n, DECIDER_CALLER) for n in DECIDERS]
        for owner, fname, only_in in targets:
            home = modules.get(f"donormatch.{owner}")
            fn = getattr(home, fname, None) if home is not None else None
            if fn is None:
                self.missing.append(f"{owner}.{fname}")
                continue
            wrapper = self._wrap(f"{owner}.{fname}", fn, **_options(owner, fname))
            for key, mod in modules.items():
                if only_in is not None and key != f"donormatch.{only_in}":
                    continue
                if getattr(mod, fname, None) is fn:
                    self._patched.append((mod, fname, fn))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._patched):
            setattr(mod, fname, fn)
        self._patched.clear()

    def replay_peak_alloc_mb(self) -> float:
        """Re-run the slowest call of each kept boundary under tracemalloc.

        Allocation tracing slows every allocation, so it stays out of the
        traced pass; the slowest call of a solver entry point is its
        largest problem, which sets the peak.
        """
        peak = 0.0
        for _, fn, args, kwargs in self.slowest.values():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        return peak


def _trials_arg(args, kwargs):
    # monte_carlo_evaluate(s, policy, trials, ...)
    return float(kwargs["trials"] if "trials" in kwargs else args[2])


def _options(owner: str, fname: str) -> dict:
    if owner == "solver":
        return {"keep_slowest": True}
    if (owner, fname) == ("simulate", "monte_carlo_evaluate"):
        return {"extra": _trials_arg}
    return {}


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _covered_by(spans: Sequence[Span], names: Sequence[str]) -> List[float]:
    """Per span, the time its descendants named ``names`` take (outermost only)."""
    covered = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name not in names:
            continue
        # charge every ancestor, stopping below an ancestor in ``names``
        p = parent
        while p >= 0 and spans[p][0] not in names:
            covered[p] += end - start
            p = spans[p][3]
    return covered


def layer_metrics(
    spans: Sequence[Span], overhead_s: float, solver_peak_mb: float
) -> Dict[str, float]:
    """Per-layer figures for one traced pass."""
    own = self_times(spans)

    def self_of(*names: str) -> float:
        return sum((t for t, sp in zip(own, spans) if sp[0] in names), 0.0)

    def count(*names: str) -> int:
        return sum(1 for sp in spans if sp[0] in names)

    solver_durations = [sp[2] - sp[1] for sp in spans if sp[0] in SOLVER]

    # Outermost Monte Carlo evaluations and the solver time beneath them.
    mc = "simulate.monte_carlo_evaluate"
    solver_below = _covered_by(spans, SOLVER)
    sim_time = 0.0
    trials = 0.0
    for i, sp in enumerate(spans):
        if sp[0] != mc:
            continue
        trials += sp[4] or 0.0
        p = sp[3]
        while p >= 0 and spans[p][0] != mc:
            p = spans[p][3]
        if p < 0:
            sim_time += (sp[2] - sp[1]) - solver_below[i]

    deciders = tuple(f"policies.{n}" for n in DECIDERS)
    return {
        "synthgen.generate_s": self_of("synthgen.generate_city"),
        "graph.io_s": self_of(
            "graph.load_scenario", "graph.save_scenario", "graph.validate_scenario"
        ),
        "solver.fixedtime_lp_s": self_of("solver.solve_fixedtime_lp"),
        "solver.nadapopt_lp_s": self_of("solver.solve_nadapopt_lp"),
        "solver.ratelimit_lp_s": self_of("solver.solve_ratelimit_lp"),
        "solver.milp_s": self_of("solver.solve_offline_opt", "solver.solve_ratelimit_opt"),
        "solver.calls": float(len(solver_durations)),
        "solver.call_p50_s": statistics.median(solver_durations) if solver_durations else 0.0,
        "solver.peak_alloc_mb": solver_peak_mb,
        "policies.plan_s": self_of(*PLANS),
        "policies.beta_s": self_of("policies.estimate_beta"),
        "policies.decide_calls": float(count(*deciders)),
        "policies.decide_s": self_of(*deciders),
        # estimate_normalization is a thin wrapper around one Monte Carlo
        # evaluation, so this one figure is inclusive of its children.
        "simulate.normalization_s": sum(
            sp[2] - sp[1] for sp in spans if sp[0] == "simulate.estimate_normalization"
        ),
        "simulate.run_policy_s": self_of("simulate.run_policy"),
        "simulate.realization_s": self_of("simulate.draw_realization"),
        "simulate.evaluate_self_s": self_of(mc),
        "simulate.trials": trials,
        "simulate.trials_per_s": trials / sim_time if sim_time > 0 else 0.0,
        "metrics.report_s": self_of(*(f"metrics.{n}" for n in BOUNDARIES["metrics"])),
        "oracle.enum_s": self_of(*(f"oracle.{n}" for n in BOUNDARIES["oracle"])),
        "cli.self_s": self_of("cli.main"),
        "trace.overhead_s": overhead_s,
    }
