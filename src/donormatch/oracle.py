"""Exhaustive reference implementations for tiny instances.

Everything here trades exponential time for being checkable by hand:
matchings are enumerated outright and policy expectations are computed
in closed form, so the fast implementations can be tested against
results that cannot be subtly wrong in the same way twice. Instances
beyond the enumeration bounds raise instead of truncating; a silently
approximate reference would defeat the point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import (
    MODE_FIXED,
    MODE_RATE,
    DemandRealization,
    Edge,
    Scenario,
)
from .policies import VALIDITY_TOL, PolicySpec, _over_availability, default_alpha
from .solver import (
    _check_inputs,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_ratelimit_lp,
)

MAX_SLOTS = 8
MAX_CHOICES = 6
MAX_STATES = 10_000

# Slack when filtering enumerated matchings on the proportionality band;
# keeps boundary cases in agreement with the constraint solvers.
PROP_TOL = 1e-9


class EnumerationError(ValueError):
    """The instance exceeds the exhaustive-search bounds."""


class _Enumeration:
    """Every per-(donor, step) choice combination for one realization.

    A slot is a (donor, step) where the donor may act: scheduled cells in
    fixed-time mode, all cells in rate-limited mode. Each slot chooses one
    available edge or none; rate-limited combinations with two choices of
    one donor closer than K steps are marked infeasible.
    """

    def __init__(self, s: Scenario, r: DemandRealization, mode: str):
        if mode not in (MODE_FIXED, MODE_RATE):
            raise ValueError(f"unknown mode {mode!r}")
        if s.n_donors * s.horizon > MAX_SLOTS:
            raise EnumerationError(
                f"{s.n_donors} donors over {s.horizon} steps exceeds the "
                f"{MAX_SLOTS}-slot enumeration bound"
            )
        self.scenario = s
        avail = np.asarray(r.available)

        self.slots: List[Tuple[int, int]] = []
        choices: List[np.ndarray] = []
        for ui in range(s.n_donors):
            for t in range(1, s.horizon + 1):
                if mode == MODE_FIXED and not s.donor_schedule[ui, t - 1]:
                    continue
                open_edges = _open_edges(s, avail, ui, t)
                if open_edges.size + 1 > MAX_CHOICES:
                    raise EnumerationError(
                        f"donor {s.donors[ui].id!r} has {open_edges.size} open "
                        f"edges at step {t}, over the {MAX_CHOICES - 1} allowed"
                    )
                self.slots.append((ui, t))
                choices.append(np.concatenate([[-1], open_edges]))

        if self.slots:
            grids = np.meshgrid(
                *[np.arange(c.size) for c in choices], indexing="ij"
            )
            picks = np.stack([g.ravel() for g in grids], axis=1)
            self.edge_of = np.stack(
                [choices[j][picks[:, j]] for j in range(len(self.slots))], axis=1
            )
        else:
            self.edge_of = np.zeros((1, 0), dtype=np.int64)
        n = self.edge_of.shape[0]

        self.recipient_weight = np.zeros((n, s.n_recipients))
        self.total_weight = np.zeros(n)
        for j, (_ui, t) in enumerate(self.slots):
            ej = self.edge_of[:, j]
            rows = np.flatnonzero(ej >= 0)
            w = s.weights[ej[rows], t - 1]
            np.add.at(
                self.recipient_weight, (rows, s.edge_recipient[ej[rows]]), w
            )
            np.add.at(self.total_weight, rows, w)

        self.feasible = np.ones(n, dtype=bool)
        if mode == MODE_RATE:
            for j in range(len(self.slots)):
                for k in range(j + 1, len(self.slots)):
                    (uj, tj), (uk, tk) = self.slots[j], self.slots[k]
                    if uj == uk and abs(tk - tj) < s.rate_limit:
                        both = (self.edge_of[:, j] >= 0) & (self.edge_of[:, k] >= 0)
                        self.feasible &= ~both

    def proportional(self, gamma: float) -> np.ndarray:
        band = _check_inputs(self.scenario, gamma)
        if band.size == 0:
            return np.ones(self.edge_of.shape[0], dtype=bool)
        sv = self.recipient_weight[:, band] / self.scenario.normalization[band]
        return gamma * sv.max(axis=1) <= sv.min(axis=1) + PROP_TOL

    def best(self, gamma: float) -> Tuple[float, np.ndarray]:
        keep = self.feasible & self.proportional(gamma)
        score = np.where(keep, self.total_weight, -np.inf)
        i = int(np.argmax(score))
        s = self.scenario
        matched = np.full((s.n_donors, s.horizon), -1, dtype=np.int64)
        for j, (ui, t) in enumerate(self.slots):
            matched[ui, t - 1] = self.edge_of[i, j]
        return float(self.total_weight[i]), matched


def brute_force_opt(
    s: Scenario, r: DemandRealization, gamma: float, mode: str = MODE_FIXED
) -> Tuple[float, np.ndarray]:
    """Exhaustive offline optimum: best proportional matching under r.

    Returns the objective and the matching as (U, T) edge indices, -1 for
    no match, the layout of ``MatchingOutcome.matched``.

    The empty matching always survives the filters, so the result exists
    for every input within the enumeration bounds.
    """
    return _Enumeration(s, r, mode).best(gamma)


def find_proportional_allocation(
    s: Scenario, gamma: float
) -> Optional[List[Edge]]:
    """A non-empty donor-disjoint proportional edge set, or None.

    The atemporal decision problem: gamma must be positive (at zero every
    non-empty set qualifies and the question is vacuous), weights are
    taken at the first step, and schedules play no role. Recipients with
    m_v = 0 are left out of the comparison, as from the solvers' band.
    Exhaustive over per-donor choices.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    band = _check_inputs(s, gamma)
    if s.n_donors > MAX_SLOTS:
        raise EnumerationError(
            f"{s.n_donors} donors exceeds the {MAX_SLOTS}-slot enumeration bound"
        )
    for es in s.donor_edges:
        if es.size + 1 > MAX_CHOICES:
            raise EnumerationError(
                f"a donor has {es.size} edges, over the {MAX_CHOICES - 1} allowed"
            )

    grids = np.meshgrid(
        *[np.arange(es.size + 1) for es in s.donor_edges], indexing="ij"
    )
    picks = np.stack([g.ravel() for g in grids], axis=1) if s.n_donors else np.zeros(
        (1, 0), dtype=np.int64
    )
    for row in picks:
        chosen = [
            int(s.donor_edges[ui][c - 1]) for ui, c in enumerate(row) if c > 0
        ]
        if not chosen:
            continue
        sv = np.zeros(s.n_recipients)
        for e in chosen:
            sv[s.edge_recipient[e]] += s.weights[e, 0]
        sv = sv[band] / s.normalization[band]
        if band.size == 0 or gamma * sv.max() <= sv.min() + PROP_TOL:
            return [s.edges[e] for e in chosen]
    return None


# ---------------------------------------------------------------------------
# exact policy expectations


def brute_force_policy_expectation(
    s: Scenario,
    policy: PolicySpec,
    r: DemandRealization,
    plan: Optional[np.ndarray] = None,
    beta: Optional[np.ndarray] = None,
) -> Dict[str, float]:
    """Exact E[Y_v] for one policy on one fixed realization.

    The expectation runs over the policy's own randomness: decision draws
    for the myopic kinds, the plan draw for plan-based kinds when no
    concrete plan is given. Pass ``plan``, a (U, T) array of pre-matched
    edge indices, to condition on one drawn plan instead; ``beta``, the
    (U, T) free-probability estimate, is required for the rate-limited
    rounding kind in distribution mode.
    """
    if s.n_donors * s.horizon * max(s.rate_limit, 1) > MAX_STATES:
        raise EnumerationError(
            "donor-step-window state space exceeds the "
            f"{MAX_STATES}-state bound"
        )
    avail = np.asarray(r.available)
    ey = np.zeros(s.n_recipients)

    pi = None
    if policy.needs_plan and plan is None:
        pi = _plan_distribution(s, policy, beta)

    for ui in range(s.n_donors):
        if policy.mode == MODE_FIXED:
            for t in range(1, s.horizon + 1):
                if not s.donor_schedule[ui, t - 1]:
                    continue
                _add_cell_expectation(s, policy, avail, ey, ui, t, plan, pi)
        else:
            _add_rate_walk_expectation(s, policy, avail, ey, ui, plan, pi)

    return {v.id: float(ey[i]) for i, v in enumerate(s.recipients)}


def _open_edges(s: Scenario, avail: np.ndarray, ui: int, t: int) -> np.ndarray:
    es = s.donor_edges[ui]
    return es[avail[s.edge_recipient[es], t - 1] == 1]


def _myopic_distribution(
    s: Scenario, open_edges: np.ndarray, t: int, kind: str, gamma: float
) -> np.ndarray:
    """Decision probabilities over the open edges for one (donor, step)."""
    n = open_edges.size
    if n == 0:
        return np.zeros(0)
    if kind == "rand":
        return np.full(n, 1.0 / n)
    w = s.weights[open_edges, t - 1]
    ties = (w == w.max()).astype(float)
    ties /= ties.sum()
    if kind == "max":
        return ties
    return gamma / n + (1.0 - gamma) * ties


def _add_cell_expectation(s, policy, avail, ey, ui, t, plan, pi):
    """Accumulate one fixed-time (donor, step) cell's expected weights."""
    kind = policy.kind
    open_edges = _open_edges(s, avail, ui, t)

    if kind in ("rand", "max", "randmax"):
        dist = _myopic_distribution(s, open_edges, t, kind, policy.gamma)
        np.add.at(ey, s.edge_recipient[open_edges], dist * s.weights[open_edges, t - 1])
        return

    if plan is not None:
        e = int(plan[ui, t - 1])
        if e >= 0 and avail[s.edge_recipient[e], t - 1]:
            ey[s.edge_recipient[e]] += s.weights[e, t - 1]
        elif kind == "adaptmatch":
            dist = _myopic_distribution(s, open_edges, t, "randmax", policy.gamma)
            np.add.at(
                ey, s.edge_recipient[open_edges], dist * s.weights[open_edges, t - 1]
            )
        return

    es = s.donor_edges[ui]
    lands = pi[es, t - 1] * avail[s.edge_recipient[es], t - 1]
    np.add.at(ey, s.edge_recipient[es], lands * s.weights[es, t - 1])
    if kind == "adaptmatch":
        miss = 1.0 - lands.sum()
        dist = _myopic_distribution(s, open_edges, t, "randmax", policy.gamma)
        np.add.at(
            ey, s.edge_recipient[open_edges], miss * dist * s.weights[open_edges, t - 1]
        )


def _add_rate_walk_expectation(s, policy, avail, ey, ui, plan, pi):
    """Accumulate one donor's expected weights under the K-day spacing rule.

    The myopic kinds and concrete plans block deterministically, so a
    plain walk suffices; a plan distribution needs the distribution over
    remaining-block states instead.
    """
    K = s.rate_limit
    kind = policy.kind

    if kind in ("rand", "max", "randmax") or plan is not None:
        free_at = 1
        for t in range(1, s.horizon + 1):
            if t < free_at:
                continue
            if plan is not None:
                e = int(plan[ui, t - 1])
                if e >= 0 and avail[s.edge_recipient[e], t - 1]:
                    ey[s.edge_recipient[e]] += s.weights[e, t - 1]
                    free_at = t + K
                continue
            open_edges = _open_edges(s, avail, ui, t)
            if open_edges.size == 0:
                continue
            dist = _myopic_distribution(s, open_edges, t, kind, policy.gamma)
            np.add.at(
                ey, s.edge_recipient[open_edges], dist * s.weights[open_edges, t - 1]
            )
            free_at = t + K
        return

    # Distribution over the remaining-block count: index 0 is free.
    state = np.zeros(K)
    state[0] = 1.0
    es = s.donor_edges[ui]
    for t in range(1, s.horizon + 1):
        free = state[0]
        lands = pi[es, t - 1] * avail[s.edge_recipient[es], t - 1]
        q = lands.sum()
        np.add.at(ey, s.edge_recipient[es], free * lands * s.weights[es, t - 1])
        nxt = np.zeros(K)
        nxt[: K - 1] += state[1:]
        nxt[0] += free * (1.0 - q)
        if K > 1:
            nxt[K - 1] += free * q
        else:
            nxt[0] += free * q
        state = nxt


def _plan_distribution(
    s: Scenario, policy: PolicySpec, beta: Optional[np.ndarray]
) -> np.ndarray:
    """Per-cell pre-match probabilities, mirroring the plan samplers.

    Raises ValueError when a (donor, step) distribution's mass exceeds one
    by more than VALIDITY_TOL: no plan can be drawn from it, and the walk
    over remaining-block states would take a negative stay-free chance.
    """
    alpha = policy.alpha
    if alpha is None:
        alpha = default_alpha(s, policy.mode)
    if policy.kind == "nadaplp":
        lp = solve_fixedtime_lp(s, policy.gamma)
        pi = _over_availability(s, np.clip(lp.x, 0.0, None)) * alpha
    elif policy.kind in ("nadapopt", "adaptmatch"):
        lp = solve_nadapopt_lp(s, policy.gamma)
        pi = np.clip(lp.x, 0.0, None)
    elif policy.kind == "nadaplp_rate":
        if beta is None:
            raise ValueError(
                "the rate-limited rounding kind needs the beta estimate in "
                "distribution mode"
            )
        lp = solve_ratelimit_lp(s, policy.gamma)
        probs = _over_availability(s, np.clip(lp.x, 0.0, None)) * alpha
        pi = probs / np.maximum(beta[s.edge_donor], 1e-12)
    else:
        raise ValueError(f"unsupported policy kind {policy.kind!r}")
    mass = np.zeros((s.n_donors, s.horizon))
    np.add.at(mass, s.edge_donor, pi)
    if mass.max(initial=0.0) > 1.0 + VALIDITY_TOL:
        ui, tau = np.unravel_index(np.argmax(mass), mass.shape)
        raise ValueError(
            f"{policy.kind} pre-match distribution has mass {mass[ui, tau]:.6f} > 1 "
            f"for donor {s.donors[ui].id!r} at step {tau + 1}"
        )
    return pi
