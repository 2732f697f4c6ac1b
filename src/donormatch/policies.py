"""Notification policies.

Two families live here. The myopic rules (rand and max, with randmax
mixing the two) look only at the edges available right now and answer
one question: which edge, if any, does donor u match at step t. The
plan-based policies commit in advance: an LP solution is sampled into a
PreMatchPlan assigning at most one edge per donor per step, and at run
time the pre-matched edge is used exactly when its recipient shows up.
AdaptMatch executes a plan but falls back to the myopic mixture when the
pre-match misses. One array kernel, ``_match_edges``, applies every rule
to whole batches of trials; the simulator and ``estimate_beta`` share it.

Every function takes the generator or uniforms it should draw from;
nothing here seeds or splits streams. The simulator owns stream layout so
that trials are reproducible and donors can be visited in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .graph import (
    MODE_FIXED,
    MODE_RATE,
    Scenario,
    donor_max_degree,
)
from .solver import (
    LpSolution,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_ratelimit_lp,
)
from .windows import _induced_availability, _mass_by_donor_step, _prior_sum

KINDS = ("rand", "max", "randmax", "nadaplp", "nadapopt", "adaptmatch", "nadaplp_rate")
_PLAN_KINDS = ("nadaplp", "nadapopt", "adaptmatch", "nadaplp_rate")
_ALPHA_KINDS = ("nadaplp", "nadaplp_rate")
# Kinds that decide on the spot and so read per-cell decision uniforms.
DRAW_KINDS = ("rand", "max", "randmax", "adaptmatch")

# Trials the simulator hands _match_edges at once: enough to spread
# numpy's per-call cost, few enough that the kernel's (trials, cells,
# degree) work arrays stay a few MB at bundled-city scale.
TRIAL_CHUNK = 16

# Fixed-point iterations of estimate_beta.
BETA_ITERATIONS = 3

# Slack allowed on a pre-match distribution's total mass before the plan
# is rejected as invalid; covers LP feasibility noise, nothing more.
VALIDITY_TOL = 1e-7


@dataclass(frozen=True)
class PolicySpec:
    """One policy choice, parsed from a CLI string or built directly.

    ``gamma`` is the proportionality parameter throughout: the mixing
    probability for randmax, the plan's LP parameter for the plan-based
    kinds. ``alpha`` scales pre-match mass for the two LP-rounding kinds
    and may stay None to mean the always-valid default (1/D fixed-time,
    1/(2D) rate-limited). ``fallback_gamma`` is adaptmatch's coin for the
    miss branch; None defaults it to ``gamma``.
    """

    kind: str
    gamma: float = 0.0
    alpha: Optional[float] = None
    fallback_gamma: Optional[float] = None
    mode: str = MODE_FIXED

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.alpha is not None and self.kind not in _ALPHA_KINDS:
            raise ValueError(f"{self.kind} takes no alpha")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.fallback_gamma is not None:
            if self.kind != "adaptmatch":
                raise ValueError(f"{self.kind} takes no fallback_gamma")
            if not 0.0 <= self.fallback_gamma <= 1.0:
                raise ValueError(
                    f"fallback_gamma must lie in [0, 1], got {self.fallback_gamma}"
                )
        if self.mode not in (MODE_FIXED, MODE_RATE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kind == "nadaplp_rate" and self.mode != MODE_RATE:
            raise ValueError("nadaplp_rate runs under the rate-limited mode only")
        if self.kind in ("nadaplp", "nadapopt", "adaptmatch") and self.mode != MODE_FIXED:
            raise ValueError(f"{self.kind} runs under the fixed-time mode only")

    @property
    def needs_plan(self) -> bool:
        return self.kind in _PLAN_KINDS

    def label(self) -> str:
        """Short display form, e.g. ``randmax:0.3``."""
        if self.kind in ("rand", "max"):
            return self.kind
        parts = [f"{self.gamma:g}"]
        if self.alpha is not None:
            parts.insert(0, f"alpha={self.alpha:g}")
        return f"{self.kind}:{','.join(parts)}"


def default_alpha(s: Scenario, mode: str) -> float:
    """The always-valid rounding scale: 1/D fixed-time, 1/(2D) rate-limited.

    D is the largest donor degree. At 1/D every fixed-time pre-match
    distribution's mass stays at one or below; the rate-limited variant
    halves that again so the availability correction cannot push it over.
    """
    d = max(donor_max_degree(s), 1)
    return 1.0 / d if mode == MODE_FIXED else 1.0 / (2.0 * d)


def parse_policy(text: str, mode: str = MODE_FIXED) -> PolicySpec:
    """Parse a CLI policy string.

    Accepted forms: ``max``, ``rand``, ``randmax:0.3``, ``adaptmatch:0.5``,
    and key=value lists such as ``nadaplp:alpha=0.1,gamma=0.5`` or
    ``nadaplp_rate:gamma=0.2``. A single bare number after the colon is
    the gamma.
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    if kind not in KINDS:
        raise ValueError(f"unknown policy {kind!r} (expected one of {', '.join(KINDS)})")
    kwargs: Dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" in item:
                key, val = item.split("=", 1)
                key = key.strip()
                if key not in ("gamma", "alpha", "fallback_gamma"):
                    raise ValueError(f"unknown policy parameter {key!r} in {text!r}")
                kwargs[key] = float(val)
            elif "gamma" in kwargs:
                raise ValueError(f"more than one bare number in policy {text!r}")
            else:
                kwargs["gamma"] = float(item)
    return PolicySpec(kind=kind, mode=mode, **kwargs)


@dataclass(frozen=True)
class PreMatchPlan:
    """Sampled pre-match assignment M_ut.

    ``assignment[u, t-1]`` holds the edge index pre-matched for donor u at
    step t, or -1 for none.
    """

    assignment: np.ndarray


@dataclass(frozen=True)
class BetaEstimate:
    """Estimated availability probabilities beta_ut, shape (U, T)."""

    beta: np.ndarray


# ---------------------------------------------------------------------------
# pre-match plans


def nadaplp_plan(
    s: Scenario,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> PreMatchPlan:
    """Sample a plan that pre-matches e at t with probability alpha*x*/p.

    x* is the fixed-time relaxation's optimum at the given gamma (pass a
    solved ``lp`` to reuse one). alpha must keep every per-(donor, step)
    distribution's total mass at or below one; alpha = 1/D always does.
    """
    if lp is None:
        lp = solve_fixedtime_lp(s, gamma)
    probs = _over_availability(s, np.clip(lp.x, 0.0, None)) * alpha
    _check_valid(s, probs, "nadaplp")
    return PreMatchPlan(_draw_assignment(s, probs, rng.random(s.donor_schedule.shape)))


def nadapopt_plan(
    s: Scenario,
    gamma: float,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> PreMatchPlan:
    """Sample a plan from the optimal non-adaptive probabilities y*."""
    if lp is None:
        lp = solve_nadapopt_lp(s, gamma)
    probs = np.clip(lp.x, 0.0, None)
    return PreMatchPlan(_draw_assignment(s, probs, rng.random(s.donor_schedule.shape)))


def estimate_beta(
    s: Scenario,
    gamma: float,
    alpha: float,
    trials: int,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> BetaEstimate:
    """Estimate beta_ut, the chance donor u is rate-limit-free at step t.

    Fixed-point simulation: starting from beta = 1, repeatedly build the
    induced pre-match distribution, simulate ``trials`` runs of it, and
    re-estimate availability from the empirical frequencies, for
    BETA_ITERATIONS iterations. Estimates are clamped from below by the
    union bound 1 - sum of alpha*x* over the donor's previous K - 1
    steps, which the relaxation's packing rows keep at 1 - alpha or
    better; in particular alpha = 1/(2D) keeps every beta at 1/2 or
    better. beta_u1 is exactly 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if lp is None:
        lp = solve_ratelimit_lp(s, gamma)
    xstar = np.clip(lp.x, 0.0, None)
    floor = _induced_availability(s, alpha * xstar)

    base = _over_availability(s, xstar) * alpha
    beta = np.ones((s.n_donors, s.horizon))
    for _ in range(BETA_ITERATIONS):
        probs = base / np.maximum(beta[s.edge_donor], 1e-12)
        probs = _scale_to_valid(s, probs)
        plans = _draw_assignment(s, probs, rng.random((trials, s.n_donors, s.horizon)))
        arrivals = rng.random((trials, s.n_recipients, s.horizon)) < s.availability
        hit = _match_edges(s, MODE_RATE, "nadaplp_rate", 0.0, arrivals, plans, None) >= 0
        blocked = _prior_sum(hit, s.rate_limit) > 0
        beta = np.maximum((~blocked).sum(axis=0) / float(trials), floor)
        beta[:, 0] = 1.0
    return BetaEstimate(beta)


def nadaplp_rate_plan(
    s: Scenario,
    gamma: float,
    alpha: float,
    beta: BetaEstimate,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> PreMatchPlan:
    """Sample a rate-limited plan: e at t with probability alpha*x*/(beta*p).

    x* is the rate-limited relaxation's optimum; execution still honors
    the K-day rule (the simulator skips blocked donors), beta only
    corrects the pre-match mass for the chance of being blocked.
    """
    if lp is None:
        lp = solve_ratelimit_lp(s, gamma)
    probs = _over_availability(s, np.clip(lp.x, 0.0, None)) * alpha
    probs = probs / np.maximum(beta.beta[s.edge_donor], 1e-12)
    _check_valid(s, probs, "nadaplp_rate")
    return PreMatchPlan(_draw_assignment(s, probs, rng.random(s.donor_schedule.shape)))


# ---------------------------------------------------------------------------
# helpers


def _over_availability(s: Scenario, x: np.ndarray) -> np.ndarray:
    """x / p per cell, taking 0 where p = 0 (solver noise, not signal)."""
    p = s.availability[s.edge_recipient]
    out = np.zeros_like(x)
    np.divide(x, p, out=out, where=p > 0.0)
    return out


def _check_valid(s: Scenario, probs: np.ndarray, kind: str) -> None:
    mass = _mass_by_donor_step(s, probs)
    over = np.argwhere(mass > 1.0 + VALIDITY_TOL)
    if over.size:
        ui, tau = over[0]
        raise ValueError(
            f"{kind} pre-match distribution invalid: mass {mass[ui, tau]:.6f} > 1 "
            f"for donor {s.donors[ui].id!r} at step {tau + 1} (reduce alpha)"
        )


def _scale_to_valid(s: Scenario, probs: np.ndarray) -> np.ndarray:
    """Scale any overfull per-(donor, step) distribution back to mass 1."""
    mass = _mass_by_donor_step(s, probs)
    scale = np.where(mass > 1.0, 1.0 / np.maximum(mass, 1e-12), 1.0)
    return probs * scale[s.edge_donor]


def _edge_table(s: Scenario) -> np.ndarray:
    """(U, D) table of each donor's edges in edge order, -1 past its degree."""
    table = np.full((s.n_donors, donor_max_degree(s)), -1, dtype=np.int64)
    for ui, eu in enumerate(s.donor_edges):
        table[ui, : eu.size] = eu
    return table


def _draw_assignment(s: Scenario, probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per (donor, step) from per-edge probabilities.

    ``uniforms`` holds one number per (donor, step), shape (..., U, T)
    with any leading trial axes. A cell takes the first of its donor's
    edges whose running probability total exceeds the cell's number, or
    -1 when none does, so two plans drawn from the same uniforms land on
    the same assignments wherever their probabilities agree.
    """
    table = _edge_table(s)
    if table.shape[1] == 0:
        return np.full(uniforms.shape, -1, dtype=np.int64)
    cum = np.cumsum(np.where(table[..., None] >= 0, probs[table], 0.0), axis=1)
    hit = uniforms[..., None, :] < cum
    edge = table[np.arange(s.n_donors)[:, None], np.argmax(hit, axis=-2)]
    return np.where(hit.any(axis=-2), edge, -1)


def _match_edges(
    s: Scenario,
    mode: str,
    kind: str,
    gamma: float,
    available: np.ndarray,
    assignment: Optional[np.ndarray],
    uniforms: Optional[np.ndarray],
) -> np.ndarray:
    """Matched edge index per (trial, donor, step), -1 for no match.

    ``available`` holds n trials' recipient realizations as booleans,
    shape (n, V, T). Plan kinds read ``assignment``, the trials' (n, U, T)
    pre-matched edges; DRAW_KINDS read ``uniforms``, shape (n, U, T, 2).
    Cell (u, t) decides from its own entries alone:

    - a plan kind takes the pre-matched edge when its recipient is up;
    - the myopic rule flips ``uniforms[.., u, t, 0] < coin``, where the
      coin is 1 for rand, 0 for max and ``gamma`` otherwise (adaptmatch
      passes its fallback gamma). Heads, every available edge is a
      candidate; tails, the available edges of largest weight. Of the n
      candidates in edge order it takes number
      min(floor(uniforms[.., u, t, 1] * n), n - 1);
    - adaptmatch takes the pre-matched edge when it lands, else the
      myopic pick.

    Fixed-time mode decides the scheduled cells only. Rate-limited mode
    walks the steps in order and drops a donor's decisions for the K - 1
    steps after each of its matches.
    """
    n, U, T = available.shape[0], s.n_donors, s.horizon
    matched = np.full((n, U, T), -1, dtype=np.int64)
    if s.n_edges == 0:
        return matched
    if mode == MODE_FIXED:
        cu, ct = np.nonzero(s.donor_schedule)
    else:
        cu, ct = np.divmod(np.arange(U * T), T)
    choice = np.full((n, cu.size), -1, dtype=np.int64)
    if kind in _PLAN_KINDS:
        planned = assignment[:, cu, ct]
        up = available[np.arange(n)[:, None], s.edge_recipient[planned], ct]
        choice = np.where((planned >= 0) & up, planned, -1)
    if kind in DRAW_KINDS:
        coin = {"rand": 1.0, "max": 0.0}.get(kind, gamma)
        draws = uniforms[:, cu, ct]
        table = _edge_table(s)[cu]
        edge = np.maximum(table, 0)
        open_ = available[:, s.edge_recipient[edge], ct[:, None]] & (table >= 0)
        w = np.where(open_, s.weights[edge, ct[:, None]], -np.inf)
        heaviest = open_ & (w == w.max(axis=-1, keepdims=True))
        cand = np.where((draws[..., 0] < coin)[..., None], open_, heaviest)
        count = cand.sum(axis=-1)
        k = np.minimum((draws[..., 1] * count).astype(np.int64), count - 1)
        slot = np.argmax(np.cumsum(cand, axis=-1) > k[..., None], axis=-1)
        pick = np.where(count > 0, table[np.arange(cu.size), slot], -1)
        choice = np.where(choice >= 0, choice, pick)
    matched[:, cu, ct] = choice
    if mode == MODE_RATE:
        next_free = np.zeros((n, U), dtype=np.int64)
        for tau in range(T):
            step = matched[:, :, tau]
            step[tau < next_free] = -1
            next_free[step >= 0] = tau + s.rate_limit
    return matched
