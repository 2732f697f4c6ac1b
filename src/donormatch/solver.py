"""Solvers for the offline and fractional matching formulations.

All five entry points build one model, in ``_solve_cells``, for every
route. Decision variables are the active (edge, step) cells. Packing
rows, the windows of ``windows._window_rows``, cap each donor at one
match per window of w steps: w = 1 in the fixed-time setting (one match
per notification day), w = K in the rate-limited setting, where the
availability indicator a_ut has been substituted out. With gamma > 0
one auxiliary L holds the normalized recipient totals s_v in the
proportionality band, two rows each: L <= s_v and gamma s_v <= L. The
band holds the recipients with a positive normalization score m_v only
(those with m_v = 0 have no place on the Gamma scale), and is dropped
when fewer than two are scored, or when a banded total cannot be raised:
that total pins L at 0, so every banded cell is fixed at 0.

Without a band most solves have closed forms:

- Windows one step wide (the fixed-time kinds, and the rate-limited ones
  at K = 1) leave one unit knapsack per (donor, step), integral or not:
  its cells fill in decreasing cost up to 1. Each knapsack's dual is the
  cost at which its capacity runs out, and the bound follows from these
  duals as for the interior point.
- The rate-limited integral solve at K > 1 is a per-donor dynamic program
  over the steps; its bound is the program's optimal value.

What remains, the banded solves and the unbanded rate-limited relaxation
at K > 1, goes to ``simplex.py``: to the dense simplex, or for the
integral kinds to its branch and bound, which starts from the empty
matching and reports a bound. A relaxation whose dense simplex tableau
would have more than SIMPLEX_MAX_ENTRIES entries goes instead to the
structured interior point in ``ipm.py``, which returns its solution with
a certified dual bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graph import DemandRealization, Scenario, scored_mask
from .simplex import MAX_CERTIFIED_GAP, branch_and_bound, solve_lp
from .windows import _induced_availability, _window_cells

FIXEDTIME_MILP = "fixedtime_milp"
FIXEDTIME_LP = "fixedtime_lp"
NADAPOPT_LP = "nadapopt_lp"
RATELIMIT_MILP = "ratelimit_milp"
RATELIMIT_LP = "ratelimit_lp"

_RATE_KINDS = (RATELIMIT_MILP, RATELIMIT_LP)
_INTEGRAL_KINDS = (FIXEDTIME_MILP, RATELIMIT_MILP)

# Largest dense simplex tableau, rows x (columns + rows) floats, of a
# relaxation the simplex still solves; larger ones go to the interior point.
# The enumeration-checkable relaxations stay under 600 entries; every bundled
# city's LP has more than 35,000.
SIMPLEX_MAX_ENTRIES = 10_000

# Most binaries a banded integral solve may branch over: city_small at
# gamma 0.5 (318) ran 698 s, then out of nodes; enumeration-checkable
# instances have at most 40. Without a band the integral solves have closed
# forms, so no limit applies.
MAX_BANDED_BINARIES = 64


@dataclass(frozen=True)
class LpSolution:
    """Solution of one formulation, dense over the scenario's index order.

    ``x[e, t-1]`` is x_et (or y_et for the non-adaptive kind), binary for
    the integral kinds up to rounding. ``s[v]`` is the normalized matched
    weight, NaN when the scenario carries no normalization scores and for
    recipients whose score is 0. ``a`` is the induced donor availability
    and is populated only for the rate-limited kinds; elsewhere it is None.
    ``bound`` is an upper bound on the optimum: the interior point's
    certified bound, the simplex's row-dual bound, branch and bound's
    largest open relaxation value, or on the closed forms the knapsack
    duals' bound or the dynamic program's optimal value.
    ``iterations`` is 0 for a closed form (a solve without cells included),
    counts interior-point iterations, or branch-and-bound nodes for the
    integral kinds; it is None for a relaxation the simplex solved.
    """

    kind: str
    x: np.ndarray
    s: np.ndarray
    a: Optional[np.ndarray]
    objective: float
    gamma: float
    bound: float = np.nan
    iterations: Optional[int] = None


def solve_offline_opt(s: Scenario, r: DemandRealization, gamma: float) -> LpSolution:
    """Optimal offline matching for a known realization, fixed-time mode.

    Maximizes total matched weight over integral matchings that notify
    each donor at most once per scheduled day and, for gamma > 0, keep
    every ordered pair of scored recipients within the proportionality
    band. The empty matching is always feasible, so the solve cannot fail
    for want of a solution; gamma > 0 requires normalization scores, and
    a banded solve over more than MAX_BANDED_BINARIES cells is refused.
    """
    ce, ct = _cells(s, _realized(s, r), scheduled=True)
    cost = s.weights[ce, ct]
    return _solve_cells(s, FIXEDTIME_MILP, ce, ct, cost, np.ones(ce.size), gamma)


def solve_fixedtime_lp(s: Scenario, gamma: float) -> LpSolution:
    """Fractional relaxation over the availability distribution.

    The realization indicator is replaced by the distribution: each cell
    is bounded above by p_vt instead of being switched on or off. The
    objective Z_LP upper-bounds the expected offline optimum at the same
    gamma.
    """
    ce, ct = _cells(s, s.availability > 0.0, scheduled=True)
    cost = s.weights[ce, ct]
    ub = s.availability[s.edge_recipient[ce], ct]
    return _solve_cells(s, FIXEDTIME_LP, ce, ct, cost, ub, gamma)


def solve_nadapopt_lp(s: Scenario, gamma: float) -> LpSolution:
    """Optimal non-adaptive pre-match probabilities y_et.

    Maximizes expected matched weight sum of w_et p_vt y_et subject to the
    per-donor-per-day budget sum_e y_et <= 1 on scheduled days, with the
    proportionality constraints applied to the expected normalized totals
    (these carry the p_vt factor, unlike the offline formulations).
    """
    ce, ct = _cells(s, s.availability > 0.0, scheduled=True)
    p = s.availability[s.edge_recipient[ce], ct]
    cost = s.weights[ce, ct] * p
    return _solve_cells(s, NADAPOPT_LP, ce, ct, cost, np.ones(ce.size), gamma)


def solve_ratelimit_opt(s: Scenario, r: DemandRealization, gamma: float) -> LpSolution:
    """Optimal offline matching when notification days are chosen too.

    Donor availability is endogenous: matching u at step t blocks it for
    the next K - 1 steps. Substituting the availability identity into the
    packing constraint leaves one row per donor and step, summing the
    trailing window of width K. The result's ``a`` reports the induced
    availability pattern.
    """
    ce, ct = _cells(s, _realized(s, r), scheduled=False)
    cost = s.weights[ce, ct]
    return _solve_cells(s, RATELIMIT_MILP, ce, ct, cost, np.ones(ce.size), gamma)


def solve_ratelimit_lp(s: Scenario, gamma: float) -> LpSolution:
    """Fractional rate-limited relaxation over the distribution."""
    ce, ct = _cells(s, s.availability > 0.0, scheduled=False)
    cost = s.weights[ce, ct]
    ub = s.availability[s.edge_recipient[ce], ct]
    return _solve_cells(s, RATELIMIT_LP, ce, ct, cost, ub, gamma)


def _check_inputs(s: Scenario, gamma: float) -> np.ndarray:
    """Validate gamma and return the recipients the proportionality band holds.

    Those are the recipients with m_v > 0, for gamma > 0 only; the array
    is empty when fewer than two qualify, since the band then says nothing.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return np.zeros(0, dtype=np.int64)
    if s.normalization is None:
        raise ValueError("gamma > 0 requires normalization scores on the scenario")
    scored = np.flatnonzero(scored_mask(s.normalization, [v.id for v in s.recipients]))
    return scored if scored.size >= 2 else scored[:0]


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
) -> LpSolution:
    band = _check_inputs(s, gamma)
    integral = kind in _INTEGRAL_KINDS
    nb, q, v = band.size, None, None
    if nb:
        # s_j = q.x over the cells whose recipient is band[j], at v = j; q is 0
        # off the band, where any v will do.
        r = s.edge_recipient[ce]
        v = np.minimum(np.searchsorted(band, r), nb - 1)
        q = np.divide(cost, s.normalization[r], out=np.zeros(ce.size), where=band[v] == r)
        if (np.bincount(v, q, minlength=nb) == 0.0).any():
            # A banded total that no cell can raise pins L, and with it every
            # banded total, at 0: the cells that count are fixed at 0.
            keep = q == 0.0
            ce, ct, cost, ub, nb = ce[keep], ct[keep], cost[keep], ub[keep], 0
    nc = ce.size
    if nc == 0:
        return _assemble(s, kind, ce, ct, np.zeros(0), cost, gamma, 0.0, 0)
    width = s.rate_limit if kind in _RATE_KINDS else 1
    if not nb and (width == 1 or integral):
        closed_form = _unit_knapsacks if width == 1 else _spaced_best
        xc, bound = closed_form(s, ce, ct, cost, ub)
        return _assemble(s, kind, ce, ct, xc, cost, gamma, bound, 0)

    cfull, upfull = cost, ub
    if nb:  # L, the band's one auxiliary, is the last column
        cap = float(np.bincount(v, q * ub, minlength=nb).max()) + 1.0
        cfull, upfull = np.append(cost, 0.0), np.append(ub, cap)
    window = _window_cells(s, ce, ct, width)
    ru, _, rows, cols = window
    m0 = ru.size
    nrow, ncol = (m0 + 2 * nb, nc + 1) if nb else (m0, nc)
    entries = nrow * (ncol + nrow)
    if not integral and entries > SIMPLEX_MAX_ENTRIES:
        # Imported on first use: where no bytecode cache is kept, compiling
        # it takes about a seventh of the package's import time.
        from .ipm import solve_window_lp

        res = solve_window_lp(s, ce, ct, cfull, upfull, width, window, q, v, nb, gamma)
        return _assemble(s, kind, ce, ct, res.x, cost, gamma, res.bound, res.iterations)
    if integral and nc > MAX_BANDED_BINARIES:
        raise ValueError(
            f"{kind} at gamma {gamma:g} has {nc} binaries; branch and bound under "
            f"the proportionality band is limited to {MAX_BANDED_BINARIES}"
        )

    A = np.zeros((nrow, ncol))
    A[rows, cols] = 1.0
    b = (np.arange(nrow) < m0).astype(float)
    if nb:
        # Band rows L - s_j <= 0 and gamma s_j - L <= 0.
        cells = np.arange(nc)
        A[m0 + 2 * v, cells] -= q
        A[m0 + 2 * v + 1, cells] = gamma * q
        A[m0::2, nc], A[m0 + 1 :: 2, nc] = 1.0, -1.0

    if integral:
        xb, bound, nodes = branch_and_bound(cfull, A, b, upfull, nc)
        return _assemble(s, kind, ce, ct, xb[:nc], cost, gamma, bound, nodes)
    lp = solve_lp(cfull, A, b, upfull)
    return _assemble(s, kind, ce, ct, lp.x[:nc], cost, gamma, lp.bound, None)


def _unit_knapsacks(
    s: Scenario, ce: np.ndarray, ct: np.ndarray, cost: np.ndarray, ub: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Optimum of the one-step windows, sum x <= 1 per (donor, step): (x, bound).

    Each (donor, step) fills its cells in decreasing cost, ties in cell
    order, up to 1; cells of cost 0 stay at 0. Its dual y is the cost of
    the cell where the capacity runs out, or 0 if it never does, and the
    bound is sum y + sum ub max(0, c - y).
    """
    group = s.edge_donor[ce] * s.horizon + ct
    order = np.lexsort((-cost, group))
    cs, us = cost[order], np.where(cost[order] > 0.0, ub[order], 0.0)
    starts = np.r_[True, group[order][1:] != group[order][:-1]]
    run = np.cumsum(starts) - 1
    rank = np.arange(ce.size) - np.flatnonzero(starts)[run]
    # One row per (donor, step), its cells heaviest first.
    c, room = np.zeros((2, run[-1] + 1, rank.max() + 1))
    c[run, rank], room[run, rank] = cs, us
    filled = np.cumsum(room, axis=1)
    before = np.pad(filled[:, :-1], ((0, 0), (1, 0)))
    y = np.where(filled >= 1.0, c, 0.0).max(axis=1)
    xc = np.empty(ce.size)
    xc[order] = np.minimum(room, np.maximum(1.0 - before, 0.0))[run, rank]
    return xc, float(y.sum() + us @ np.maximum(cs - y[run], 0.0))


def _spaced_best(
    s: Scenario, ce: np.ndarray, ct: np.ndarray, cost: np.ndarray, ub: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Integral optimum with matches of a donor K or more steps apart: (x, bound).

    Every ub is 1. A donor matched at step t takes its heaviest cell there,
    the one the unit knapsack of (donor, step) fills. Per donor, best[t] =
    max(best[t-1], w[t] + best[t-K]) over those cells' weights w, for all
    donors at once; the bound is the sum of the donors' best[T-1], and x
    is read back from the last step.
    """
    U, T, K = s.n_donors, s.horizon, s.rate_limit
    heads = np.flatnonzero(_unit_knapsacks(s, ce, ct, cost, ub)[0])
    w = np.zeros((U, T))
    pick = np.zeros((U, T), dtype=np.int64)
    at = s.edge_donor[ce[heads]], ct[heads]
    w[at], pick[at] = cost[heads], heads
    best = np.zeros((U, K + T))  # best[:, K + t]; the first K columns are 0
    take = np.zeros((U, T), dtype=bool)
    for t in range(T):
        with_t = w[:, t] + best[:, t]
        take[:, t] = with_t > best[:, K + t - 1]
        best[:, K + t] = np.where(take[:, t], with_t, best[:, K + t - 1])
    xc = np.zeros(ce.size)
    next_t = np.full(U, T - 1)
    for t in range(T - 1, -1, -1):
        here = next_t == t
        xc[pick[here & take[:, t], t]] = 1.0
        next_t[here] = np.where(take[here, t], t - K, t - 1)
    return xc, float(best[:, -1].sum())


def _assemble(
    s: Scenario,
    kind: str,
    ce: np.ndarray,
    ct: np.ndarray,
    xcells: np.ndarray,
    cost: np.ndarray,
    gamma: float,
    bound: float,
    iterations: Optional[int],
) -> LpSolution:
    """The LpSolution of the cells' values, once its bound is within MAX_CERTIFIED_GAP."""
    objective = float(cost @ xcells) if ce.size else 0.0
    gap = (bound - objective) / (1.0 + abs(objective))
    if not gap <= MAX_CERTIFIED_GAP:
        raise RuntimeError(f"{kind} at gamma {gamma:g}: certified gap {gap:.2g}")
    x = np.zeros((s.n_edges, s.horizon))
    raw = np.zeros(s.n_recipients)
    if ce.size:
        x[ce, ct] = xcells
        raw = np.bincount(
            s.edge_recipient[ce], weights=cost * xcells, minlength=s.n_recipients
        ).astype(float)
    sv = np.full(s.n_recipients, np.nan)
    if s.normalization is not None:
        scored = scored_mask(s.normalization, [v.id for v in s.recipients])
        sv[scored] = raw[scored] / s.normalization[scored]
    a = _induced_availability(s, x) if kind in _RATE_KINDS else None
    return LpSolution(kind, x, sv, a, objective, float(gamma), float(bound), iterations)
