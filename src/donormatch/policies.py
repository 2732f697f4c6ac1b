"""Notification policies.

Two families live here. The myopic rules (rand and max, with randmax
mixing the two) look only at the edges available right now and answer
one question: which edge, if any, does donor u match at step t. The
plan-based policies commit in advance: ``plan_probabilities``, the one
rule every caller uses, turns a plan policy and the relaxation of its
kind (``plan_relaxation``) into per-(edge, step) pre-match
probabilities, and a plan drawn from them is a (U, T) array
holding the edge pre-matched for each donor and step, -1 for none. At
run time the pre-matched edge is used exactly when its recipient shows
up. AdaptMatch executes a plan but falls back to the myopic mixture when
the pre-match misses. One rule, ``_decide``, applies every kind to
gathered cells, and one array kernel, ``_match_edges``, feeds it whole
batches of trials: the scheduled cells at once in fixed-time mode, and
step by step only the donors that are free in rate-limited mode.
``estimate_beta`` gives the rate-limited rounding its blocking
correction in closed form, with no simulation.

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
from .windows import _induced_availability, _mass_by_donor_step

KINDS = ("rand", "max", "randmax", "nadaplp", "nadapopt", "adaptmatch", "nadaplp_rate")
_PLAN_KINDS = ("nadaplp", "nadapopt", "adaptmatch", "nadaplp_rate")
_ALPHA_KINDS = ("nadaplp", "nadaplp_rate")
# Kinds that decide on the spot and so read per-cell decision uniforms.
DRAW_KINDS = ("rand", "max", "randmax", "adaptmatch")

# Donor-step cells, summed over trials, that the simulator hands
# _match_edges at once; a chunk holds max(1, CHUNK_CELLS // (U * T))
# trials. It counts every cell, not only the decision cells whose (cells, 2)
# and (cells,) streams a fixed-time trial draws, because the chunk's
# (n, U, T) matches and (n, V, T) realizations span them all. Enough cells
# to spread numpy's per-call cost and the rate-limited walk's per-step
# calls, few enough that the kernel's (cells, degree) work arrays stay a
# few MB (48,000 cells x 11 edges x 8 bytes = 4.2 MB).
CHUNK_CELLS = 16 * 3000

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
    1/(2D) rate-limited). adaptmatch's miss branch is randmax at ``gamma``.
    """

    kind: str
    gamma: float = 0.0
    alpha: Optional[float] = None
    mode: str = MODE_FIXED

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.alpha is not None and self.kind not in _ALPHA_KINDS:
            raise ValueError(f"{self.kind} takes no alpha")
        if self.alpha is not None and not 0.0 <= self.alpha < np.inf:  # refuses NaN too
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
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
                if key not in ("gamma", "alpha"):
                    raise ValueError(f"unknown policy parameter {key!r} in {text!r}")
                kwargs[key] = float(val)
            elif "gamma" in kwargs:
                raise ValueError(f"more than one bare number in policy {text!r}")
            else:
                kwargs["gamma"] = float(item)
    return PolicySpec(kind=kind, mode=mode, **kwargs)


# ---------------------------------------------------------------------------
# pre-match plans


def plan_relaxation(s: Scenario, kind: str, gamma: float) -> LpSolution:
    """Solve the relaxation a plan kind rounds, at the given gamma."""
    # Built per call, so that perfbench's tracer sees every solve.
    table = {
        "nadaplp": solve_fixedtime_lp,
        "nadapopt": solve_nadapopt_lp,
        "adaptmatch": solve_nadapopt_lp,
        "nadaplp_rate": solve_ratelimit_lp,
    }
    return table[kind](s, gamma)


def plan_probabilities(
    s: Scenario,
    policy: PolicySpec,
    lp: Optional[LpSolution] = None,
    beta: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-(edge, step) pre-match probabilities of a plan policy, shape (E, T).

    nadaplp pre-matches e at t with probability alpha*x*/p, nadaplp_rate
    with alpha*x*/(beta*p), where ``beta`` is the (U, T) chance of the
    donor being free (``estimate_beta`` of ``lp`` when None); nadapopt and
    adaptmatch use y* as it stands. x* and y* come from ``lp``, solved by
    ``plan_relaxation`` when None, and alpha is ``policy.alpha`` or
    ``default_alpha``. Raises when a (donor, step) distribution's mass
    exceeds one, which the default alpha never allows.
    """
    kind = policy.kind
    if lp is None:
        lp = plan_relaxation(s, kind, policy.gamma)
    probs = np.clip(lp.x, 0.0, None)
    if kind in _ALPHA_KINDS:
        alpha = default_alpha(s, policy.mode) if policy.alpha is None else policy.alpha
        probs = _over_availability(s, probs) * alpha
    if kind == "nadaplp_rate":
        if beta is None:
            beta = estimate_beta(s, policy.gamma, alpha, lp=lp)
        probs = probs / np.maximum(beta[s.edge_donor], 1e-12)
    mass = _mass_by_donor_step(s, probs)
    over = np.argwhere(mass > 1.0 + VALIDITY_TOL)
    if over.size:
        ui, tau = over[0]
        hint = " (reduce alpha)" if kind in _ALPHA_KINDS else ""
        raise ValueError(
            f"{kind} pre-match distribution invalid: mass {mass[ui, tau]:.6f} > 1 "
            f"for donor {s.donors[ui].id!r} at step {tau + 1}{hint}"
        )
    return probs


def _sample_plan(s, policy, beta, rng, lp) -> np.ndarray:
    """A (U, T) plan from one number per decision cell, -1 off those cells."""
    probs = plan_probabilities(s, policy, lp, beta)
    cells = decision_cells(s, policy.mode)
    plan = np.full(s.n_donors * s.horizon, -1, dtype=np.int64)
    plan[cells] = _draw_assignment(s, probs, rng.random(cells.size), cells)
    return plan.reshape(s.n_donors, s.horizon)


def _check_plan(s: Scenario, plan) -> np.ndarray:
    """``plan`` as an array, refused unless it is a (U, T) plan of the scenario.

    Each entry must be -1 or the index of an edge of that row's donor.
    """
    plan = np.asarray(plan)
    if plan.shape != (s.n_donors, s.horizon):
        raise ValueError(
            f"plan has shape {plan.shape}, expected (donors, steps) = "
            f"{(s.n_donors, s.horizon)}"
        )
    if not np.issubdtype(plan.dtype, np.integer):
        raise ValueError(f"plan must hold integer edge indices, got dtype {plan.dtype}")
    # Indices outside the edge range read the appended -1, no donor's row.
    owner = np.append(s.edge_donor, -1)[np.where((plan >= 0) & (plan < s.n_edges), plan, -1)]
    bad = (plan != -1) & (owner != np.arange(s.n_donors)[:, None])
    if bad.any():
        ui, tau = np.argwhere(bad)[0]
        raise ValueError(
            f"plan entry {plan[ui, tau]} for donor {s.donors[ui].id!r} at step "
            f"{tau + 1} is neither -1 nor one of that donor's edges"
        )
    return plan


def nadaplp_plan(
    s: Scenario,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> np.ndarray:
    """Sample a (U, T) plan that pre-matches e at t with probability alpha*x*/p.

    x* is the fixed-time relaxation's optimum at the given gamma (pass a
    solved ``lp`` to reuse one). alpha must keep every per-(donor, step)
    distribution's total mass at or below one; alpha = 1/D always does.
    """
    return _sample_plan(s, PolicySpec("nadaplp", gamma, alpha), None, rng, lp)


def nadapopt_plan(
    s: Scenario,
    gamma: float,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> np.ndarray:
    """Sample a (U, T) plan from the optimal non-adaptive probabilities y*."""
    return _sample_plan(s, PolicySpec("nadapopt", gamma), None, rng, lp)


def estimate_beta(
    s: Scenario,
    gamma: float,
    alpha: float,
    trials: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    lp: Optional[LpSolution] = None,
) -> np.ndarray:
    """beta_ut, the chance donor u is rate-limit-free at step t, in closed form.

    beta_ut = 1 - alpha * (u's x* mass over the K - 1 steps before t), so
    beta_u1 = 1. It is exact: with it, a free donor matches at t with
    probability alpha * sum_e x*_et, and two matches of one donor never share
    a K-step window, so being blocked at t is a disjoint union over those
    steps. The packing rows keep that mass at one or less, so alpha = 1/(2D)
    keeps every beta at 1/2 or better. ``lp`` is solved here when None.
    ``trials`` and ``rng`` are accepted and ignored: they fed the Monte Carlo
    estimate this replaced, and callers may still pass them.
    """
    if lp is None:
        lp = solve_ratelimit_lp(s, gamma)
    return _induced_availability(s, alpha * np.clip(lp.x, 0.0, None))


def nadaplp_rate_plan(
    s: Scenario,
    gamma: float,
    alpha: float,
    beta: np.ndarray,
    rng: np.random.Generator,
    lp: Optional[LpSolution] = None,
) -> np.ndarray:
    """Sample a rate-limited (U, T) plan: e at t with probability alpha*x*/(beta*p).

    x* is the rate-limited relaxation's optimum and ``beta`` the (U, T)
    array from estimate_beta; execution still honors the K-day rule (the
    simulator skips blocked donors), beta only corrects the pre-match
    mass for the chance of being blocked.
    """
    return _sample_plan(s, PolicySpec("nadaplp_rate", gamma, alpha, MODE_RATE), beta, rng, lp)


# ---------------------------------------------------------------------------
# helpers


def _over_availability(s: Scenario, x: np.ndarray) -> np.ndarray:
    """x / p per cell, taking 0 where p = 0 (solver noise, not signal)."""
    p = s.availability[s.edge_recipient]
    out = np.zeros_like(x)
    np.divide(x, p, out=out, where=p > 0.0)
    return out


def decision_cells(s: Scenario, mode: str) -> np.ndarray:
    """Flat (donor, step) indices, ``u * T + t``, of the cells a trial may decide.

    Fixed-time mode: the scheduled cells. Rate-limited mode: every cell,
    since a free donor may act at any step. Per-trial decision and plan
    streams hold one entry per cell in this order, so a fixed-time trial
    draws nothing for the cells its donors never act on.
    """
    if mode == MODE_FIXED:
        return np.flatnonzero(s.donor_schedule)
    return np.arange(s.n_donors * s.horizon)


def _draw_assignment(
    s: Scenario, probs: np.ndarray, uniforms: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    """One categorical draw per decision cell from per-edge probabilities.

    ``cells`` holds flat (donor, step) indices, ``decision_cells``'s layout,
    and ``uniforms`` one number per cell, shape (..., cells) with any
    leading trial axes; the result has the same shape. A cell takes the
    first of its donor's edges whose running probability total exceeds the
    cell's number, or -1 when none does, so two plans drawn from the same
    uniforms land on the same assignments wherever their probabilities
    agree. The totals run slot first, (D, cells), and never fall, so that
    edge's slot is the count of totals at or below the number. Table
    entries of -1 read an appended zero row of ``probs``; a count of D
    reads the table's -1 row.
    """
    cu, ct = np.divmod(cells, s.horizon)
    table = np.pad(s.donor_edge_table.T, ((0, 1), (0, 0)), constant_values=-1).take(cu, 1)
    cum = np.cumsum(np.pad(probs, ((0, 1), (0, 0)))[table, ct], axis=0)
    slot = (uniforms[..., None, :] >= cum[:-1]).sum(axis=-2)
    return table[slot, np.arange(cells.size)]


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
    shape (n, V, T). Plan kinds read ``assignment``, the trials'
    pre-matched edges, shape (n, cells); DRAW_KINDS read ``uniforms``,
    shape (n, cells, 2). Both are laid out over ``decision_cells(s,
    mode)``, and the i-th of those cells reads entry i alone, by the rule
    in ``_decide``.

    Fixed-time mode decides the scheduled cells at once; rate-limited mode
    walks the steps and decides only the free (trial, donor) pairs, and a
    match blocks the donor for the next K - 1 steps. A trial's result never
    depends on the others in the batch. Per-edge arrays are gathered slot
    first by ``take``, which, unlike a fancy index, keeps (n, D, cells) and
    (D, pairs) C-contiguous, so ``_decide`` reduces across contiguous cells.
    """
    n, U, T = available.shape[0], s.n_donors, s.horizon
    matched = np.full((n, U, T), -1, dtype=np.int64)
    if s.n_edges == 0:
        return matched
    coin = {"rand": 1.0, "max": 0.0}.get(kind, gamma)
    table = s.donor_edge_table.T
    edge = np.maximum(table, 0)
    rec, ok = s.edge_recipient[edge], table >= 0
    planned = up = draws = open_ = w = None
    if mode == MODE_FIXED:
        cells = decision_cells(s, mode)
        cu, ct = np.divmod(cells, T)
        table, edge, rec, ok = (a.take(cu, 1) for a in (table, edge, rec, ok))
        if kind in _PLAN_KINDS:
            planned = assignment
            up = available[np.arange(n)[:, None], s.edge_recipient[planned], ct]
        if kind in DRAW_KINDS:
            draws = uniforms
            open_ = available.reshape(n, -1).take(rec * T + ct, 1) & ok
            w = s.weights[edge, ct]
        matched.reshape(n, -1)[:, cells] = _decide(kind, coin, planned, up, table, open_, w, draws)
        return matched
    # Rate-limited cells are every (donor, step) in C order.
    if kind in _PLAN_KINDS:
        assignment = assignment.reshape(n, U, T)
    if kind in DRAW_KINDS:
        uniforms = uniforms.reshape(n, U, T, 2)
    next_free = np.zeros((n, U), dtype=np.int64)
    for tau in range(T):
        i, u = np.nonzero(next_free <= tau)
        if kind in _PLAN_KINDS:
            planned = assignment[i, u, tau]
            up = available[i, s.edge_recipient[planned], tau]
        if kind in DRAW_KINDS:
            draws = uniforms[i, u, tau]
            open_ = available[i, rec.take(u, 1), tau] & ok.take(u, 1)
            w = s.weights[edge.take(u, 1), tau]
        step = _decide(kind, coin, planned, up, table.take(u, 1), open_, w, draws)
        matched[i, u, tau] = step
        hit = step >= 0
        next_free[i[hit], u[hit]] = tau + s.rate_limit
    return matched


def _decide(kind, coin, planned, up, table, open_, w, draws) -> np.ndarray:
    """The decision rule on gathered cells: matched edge per cell, -1 for none.

    The cells share a trailing shape; ``table`` (D, cells) holds each
    cell's column of the transposed ``donor_edge_table`` and may lack the
    leading trial axis. ``planned`` and ``up`` are a plan kind's pre-matched
    edge and whether its recipient is up; ``open_`` and ``w`` hold, per slot
    (axis -2), whether the edge is real and its recipient up, and its
    weight at the cell's step; ``draws`` holds the cell's two uniforms.

    - a plan kind takes the pre-matched edge when its recipient is up;
    - the myopic rule flips ``draws[.., 0] < coin``, where the coin is 1
      for rand, 0 for max and gamma otherwise. Heads, every open edge is
      a candidate; tails, the open edges of largest weight. Of the m
      candidates in edge order it takes number k = min(floor(draws[.., 1]
      * m), m - 1), whose slot is the count of slots whose running
      candidate count is at most k;
    - adaptmatch takes the pre-matched edge when it lands, else the
      myopic pick.
    """
    choice = -1
    if kind in _PLAN_KINDS:
        choice = np.where((planned >= 0) & up, planned, -1)
    if kind in DRAW_KINDS:
        w = np.where(open_, w, -np.inf)
        cand = open_ & ((w == w.max(axis=-2, keepdims=True)) | (draws[..., None, :, 0] < coin))
        count = cand.sum(axis=-2)
        k = np.minimum((draws[..., 1] * count).astype(np.int64), count - 1)
        run = slot = 0
        for row in np.moveaxis(cand, -2, 0):
            run = run + row
            slot = slot + (run <= k)
        pick = np.where(count > 0, table[slot, np.arange(table.shape[-1])], -1)
        choice = np.where(choice >= 0, choice, pick)
    return choice
