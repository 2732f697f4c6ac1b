"""Solvers for the offline and fractional matching formulations.

All five entry points share one reduction. Decision variables are the
active (edge, step) cells. Packing rows cap each donor at one match per
window of w steps: w = 1 in the fixed-time setting (one match per
notification day), w = K in the rate-limited setting, where the
availability indicator a_ut has been substituted out. With gamma > 0
the normalized recipient totals s_v are held in the proportionality
band: two auxiliary variables bound the smallest and largest s_v, and
one row keeps the smallest at least gamma times the largest.

Integral variants run branch and bound seeded with the empty matching,
which is always feasible. Fractional variants hit the simplex directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graph import DemandRealization, Scenario
from .milp import MilpError, solve_milp
from .simplex import SimplexError, solve_lp
from .windows import _induced_availability, _window_cells

FIXEDTIME_MILP = "fixedtime_milp"
FIXEDTIME_LP = "fixedtime_lp"
NADAPOPT_LP = "nadapopt_lp"
RATELIMIT_MILP = "ratelimit_milp"
RATELIMIT_LP = "ratelimit_lp"

_RATE_KINDS = (RATELIMIT_MILP, RATELIMIT_LP)


@dataclass(frozen=True)
class LpSolution:
    """Solution of one formulation, dense over the scenario's index order.

    ``x[e, t-1]`` is x_et (or y_et for the non-adaptive kind), binary for
    the integral kinds up to rounding. ``s[v]`` is the normalized matched
    weight, NaN when the scenario carries no normalization scores. ``a``
    is the induced donor availability and is populated only for the
    rate-limited kinds; elsewhere it is None.
    """

    kind: str
    x: np.ndarray
    s: np.ndarray
    a: Optional[np.ndarray]
    objective: float
    gamma: float


def solve_offline_opt(s: Scenario, r: DemandRealization, gamma: float) -> LpSolution:
    """Optimal offline matching for a known realization, fixed-time mode.

    Maximizes total matched weight over integral matchings that notify
    each donor at most once per scheduled day and, for gamma > 0, keep
    every ordered pair of recipients within the proportionality band.
    The empty matching is always feasible, so the solve cannot fail for
    want of a solution; gamma > 0 requires positive normalization scores.
    """
    _check_inputs(s, gamma)
    ce, ct = _cells(s, _realized(s, r), scheduled=True)
    cost = s.weights[ce, ct]
    return _solve_cells(s, FIXEDTIME_MILP, ce, ct, cost, np.ones(ce.size), gamma, True)


def solve_fixedtime_lp(s: Scenario, gamma: float) -> LpSolution:
    """Fractional relaxation over the availability distribution.

    The realization indicator is replaced by the distribution: each cell
    is bounded above by p_vt instead of being switched on or off. The
    objective Z_LP upper-bounds the expected offline optimum at the same
    gamma.
    """
    _check_inputs(s, gamma)
    ce, ct = _cells(s, s.availability > 0.0, scheduled=True)
    cost = s.weights[ce, ct]
    ub = s.availability[s.edge_recipient[ce], ct]
    return _solve_cells(s, FIXEDTIME_LP, ce, ct, cost, ub, gamma, False)


def solve_nadapopt_lp(s: Scenario, gamma: float) -> LpSolution:
    """Optimal non-adaptive pre-match probabilities y_et.

    Maximizes expected matched weight sum of w_et p_vt y_et subject to the
    per-donor-per-day budget sum_e y_et <= 1 on scheduled days, with the
    proportionality constraints applied to the expected normalized totals
    (these carry the p_vt factor, unlike the offline formulations).
    """
    _check_inputs(s, gamma)
    ce, ct = _cells(s, s.availability > 0.0, scheduled=True)
    p = s.availability[s.edge_recipient[ce], ct]
    cost = s.weights[ce, ct] * p
    return _solve_cells(s, NADAPOPT_LP, ce, ct, cost, np.ones(ce.size), gamma, False)


def solve_ratelimit_opt(s: Scenario, r: DemandRealization, gamma: float) -> LpSolution:
    """Optimal offline matching when notification days are chosen too.

    Donor availability is endogenous: matching u at step t blocks it for
    the next K - 1 steps. Substituting the availability identity into the
    packing constraint leaves one row per donor and step, summing the
    trailing window of width K. The result's ``a`` reports the induced
    availability pattern.
    """
    _check_inputs(s, gamma)
    ce, ct = _cells(s, _realized(s, r), scheduled=False)
    cost = s.weights[ce, ct]
    return _solve_cells(s, RATELIMIT_MILP, ce, ct, cost, np.ones(ce.size), gamma, True)


def solve_ratelimit_lp(s: Scenario, gamma: float) -> LpSolution:
    """Fractional rate-limited relaxation over the distribution."""
    _check_inputs(s, gamma)
    ce, ct = _cells(s, s.availability > 0.0, scheduled=False)
    cost = s.weights[ce, ct]
    ub = s.availability[s.edge_recipient[ce], ct]
    return _solve_cells(s, RATELIMIT_LP, ce, ct, cost, ub, gamma, False)


def _check_inputs(s: Scenario, gamma: float) -> None:
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma > 0.0:
        m = s.normalization
        if m is None:
            raise ValueError("gamma > 0 requires normalization scores on the scenario")
        if np.any(m <= 0.0):
            bad = [s.recipients[i].id for i in np.flatnonzero(m <= 0.0)[:5]]
            raise ValueError(
                f"gamma > 0 requires positive normalization scores, got m <= 0 for {bad}"
            )


def _realized(s: Scenario, r: DemandRealization) -> np.ndarray:
    avail = np.asarray(r.available)
    if avail.shape != (s.n_recipients, s.horizon):
        raise ValueError(
            f"realization shape {avail.shape} does not match "
            f"({s.n_recipients}, {s.horizon})"
        )
    return avail != 0


def _cells(
    s: Scenario, recipient_ok: np.ndarray, scheduled: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Active (edge, step) pairs, given the (V, T) mask of usable recipients."""
    mask = np.asarray(recipient_ok, dtype=bool)[s.edge_recipient]
    if scheduled:
        mask = mask & (s.donor_schedule[s.edge_donor] != 0)
    return np.nonzero(mask)


def _solve_cells(
    s: Scenario,
    kind: str,
    ce: np.ndarray,
    ct: np.ndarray,
    cost: np.ndarray,
    ub: np.ndarray,
    gamma: float,
    integral: bool,
) -> LpSolution:
    nc = ce.size
    if nc == 0:
        return _assemble(s, kind, ce, ct, np.zeros(0), cost, 0.0, gamma)

    nv = s.n_recipients
    rows, cols = _window_cells(s, ce, ct, s.rate_limit if kind in _RATE_KINDS else 1)
    m0 = int(rows[-1]) + 1

    if gamma > 0.0 and nv >= 2:
        # s_v = q_v . x with q_v the per-cell weight contribution over m_v.
        q = np.zeros((nv, nc))
        cr = s.edge_recipient[ce]
        q[cr, np.arange(nc)] = cost / s.normalization[cr]
        # Two auxiliaries sandwich the s_v values; one row ties them by gamma.
        smin, smax = nc, nc + 1
        A = np.zeros((m0 + 2 * nv + 1, nc + 2))
        b = np.concatenate([np.ones(m0), np.zeros(2 * nv + 1)])
        for v in range(nv):
            A[m0 + 2 * v, :nc] = q[v]
            A[m0 + 2 * v, smax] = -1.0
            A[m0 + 2 * v + 1, :nc] = -q[v]
            A[m0 + 2 * v + 1, smin] = 1.0
        A[-1, smin] = -1.0
        A[-1, smax] = gamma
        cap = float((q @ ub).max()) + 1.0
        cfull = np.concatenate([cost, [0.0, 0.0]])
        upfull = np.concatenate([ub, [cap, cap]])
    else:
        A = np.zeros((m0, nc))
        b = np.ones(m0)
        cfull, upfull = cost, ub
    A[rows, cols] = 1.0

    if integral:
        res = solve_milp(
            cfull, A, b, upfull, binary=np.arange(nc), incumbent_x=np.zeros(cfull.size)
        )
        if res.status != "optimal":
            raise MilpError("integral solve lost the empty-matching incumbent")
        xcells = res.x[:nc]
    else:
        lp = solve_lp(cfull, A, b, upfull)
        if lp.status != "optimal":
            raise SimplexError("relaxation reported infeasible; empty matching exists")
        xcells = lp.x[:nc]
    return _assemble(s, kind, ce, ct, xcells, cost, float(cost @ xcells), gamma)


def _assemble(
    s: Scenario,
    kind: str,
    ce: np.ndarray,
    ct: np.ndarray,
    xcells: np.ndarray,
    cost: np.ndarray,
    objective: float,
    gamma: float,
) -> LpSolution:
    x = np.zeros((s.n_edges, s.horizon))
    raw = np.zeros(s.n_recipients)
    if ce.size:
        x[ce, ct] = xcells
        raw = np.bincount(
            s.edge_recipient[ce], weights=cost * xcells, minlength=s.n_recipients
        ).astype(float)
    if s.normalization is None:
        sv = np.full(s.n_recipients, np.nan)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            sv = raw / s.normalization
    a = _induced_availability(s, x) if kind in _RATE_KINDS else None
    return LpSolution(kind, x, sv, a, float(objective), float(gamma))

