"""Dense bounded-variable simplex for problems of the form

    max c.x   s.t.  A x <= b,  lower <= x <= upper.

Two-phase: rows whose right-hand side turns negative after the lower-bound
shift get an artificial variable, phase 1 drives the artificials to zero,
phase 2 optimizes the real objective from the feasible basis. Nonbasic
variables may sit at either bound (the usual bounded-variable rules, with
bound flips). Dantzig pricing with a Bland fallback after a long run of
degenerate steps.

Desk-scale instances only: the tableau is dense and each pivot costs
O(rows x columns).

``branch_and_bound`` adds binary columns by best-first search over these.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
MAX_ITERS = 20000

# Branch and bound: integrality tolerance, relative stopping gap, node budget.
INT_TOL = 1e-6
REL_GAP = 1e-6
MAX_NODES = 20000

_LOWER, _UPPER, _BASIC = 0, 1, 2


class SimplexError(RuntimeError):
    """Solver failure (stall, tiny pivots, or verification mismatch)."""


@dataclass
class LpResult:
    status: str               # "optimal" or "infeasible"
    x: Optional[np.ndarray]   # None when infeasible
    objective: float


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    upper: np.ndarray,
    lower: Optional[np.ndarray] = None,
) -> LpResult:
    """Maximize c.x subject to A x <= b and lower <= x <= upper.

    Parameters
    ----------
    c : ndarray, shape (n,)
    A : ndarray, shape (m, n)
    b : ndarray, shape (m,)
    upper : ndarray, shape (n,)
        Finite or +inf per-variable upper bounds.
    lower : ndarray, shape (n,), optional
        Per-variable lower bounds, default all zero. Branch-and-bound fixes
        variables by setting lower = upper.

    Returns
    -------
    LpResult
        status "optimal" with x and the objective, or "infeasible".
        Unboundedness cannot occur for box-bounded structurals and raises
        SimplexError, as do stalls past the iteration cap.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c)) if len(c) else np.zeros((len(b), 0))
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = A.shape

    if lower is None:
        lo = np.zeros(n)
    else:
        lo = np.asarray(lower, dtype=float)
    if np.any(lo > upper + 1e-12):
        return LpResult("infeasible", None, -np.inf)

    ub = np.maximum(upper - lo, 0.0)
    rhs = b - A @ lo if n else b.astype(float).copy()

    # Equality form: rows with negative rhs are negated and get an artificial.
    sign = np.where(rhs < 0, -1.0, 1.0)
    art_rows = np.flatnonzero(rhs < 0)
    n_art = art_rows.size
    ncols = n + m + n_art

    M = np.zeros((m, ncols))
    if n:
        M[:, :n] = A * sign[:, None]
    M[np.arange(m), n + np.arange(m)] = sign
    M[art_rows, n + m + np.arange(n_art)] = 1.0

    u_all = np.concatenate([ub, np.full(m, np.inf), np.full(n_art, np.inf)])
    xB = rhs * sign
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)
    status = np.full(ncols, _LOWER, dtype=np.int8)
    status[basis] = _BASIC

    if n_art:
        c1 = np.zeros(ncols)
        c1[n + m :] = -1.0
        d1 = c1 - c1[basis] @ M
        _pivot_until_optimal(M, xB, basis, status, u_all, d1)
        art_mask = basis >= n + m
        if xB[art_mask].sum() > FEAS_TOL:
            return LpResult("infeasible", None, -np.inf)
        u_all[n + m :] = 0.0

    c2 = np.zeros(ncols)
    c2[:n] = c
    d2 = c2 - c2[basis] @ M
    _pivot_until_optimal(M, xB, basis, status, u_all, d2)

    x = np.zeros(n)
    x[status[:n] == _UPPER] = ub[status[:n] == _UPPER]
    struct_basic = basis < n
    x[basis[struct_basic]] = xB[struct_basic]
    x = np.clip(x + lo, lo, upper)

    resid = A @ x - b if n else -b
    if resid.size and resid.max() > FEAS_TOL * 10 * max(1.0, np.abs(b).max()):
        raise SimplexError(f"solution violates a row by {resid.max():g}")
    return LpResult("optimal", x, float(c @ x))


def branch_and_bound(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, upper: np.ndarray, n_binary: int
) -> Tuple[np.ndarray, float, int]:
    """Maximize c.x over A x <= b, 0 <= x <= upper, x_j in {0, 1} for j < n_binary.

    Best-first search over the relaxations, binaries pinned through their
    bounds. As b >= 0, x = 0 is feasible and is the first incumbent.
    Returns (x, bound, nodes): the best integral point, an upper bound on
    the optimum (the largest relaxation value open when the search stops,
    else c.x) and the nodes popped. A node LP failure, or a search past
    MAX_NODES nodes, raises SimplexError.
    """
    c, b, upper = (np.asarray(v, dtype=float) for v in (c, b, upper))
    if (b < 0.0).any():
        raise ValueError("branch and bound needs b >= 0, so that x = 0 is feasible")
    best_x, best_obj = np.zeros(c.size), 0.0
    counter = itertools.count()
    heap = []

    def push(lo, up):
        res = solve_lp(c, A, b, up, lo)
        if res.status == "optimal":
            heapq.heappush(heap, (-res.objective, next(counter), res.x, lo, up))

    push(np.zeros(c.size), upper)
    nodes = 0
    while heap:
        neg_bound, _, x, lo, up = heapq.heappop(heap)
        nodes += 1
        if nodes > MAX_NODES:
            raise SimplexError(f"node budget {MAX_NODES} exhausted")
        if -neg_bound <= best_obj + max(1e-9, REL_GAP * abs(best_obj)):
            return best_x, max(-neg_bound, best_obj), nodes  # nothing open beats it

        frac = np.abs(x[:n_binary] - np.round(x[:n_binary]))
        if n_binary == 0 or frac.max() <= INT_TOL:
            x[:n_binary] = np.round(x[:n_binary])
            obj = float(c @ x)
            if obj > best_obj:
                best_obj, best_x = obj, x
            continue

        j = int(np.argmax(frac))
        lo_hi, up_lo = lo.copy(), up.copy()
        lo_hi[j], up_lo[j] = 1.0, 0.0
        push(lo, up_lo)    # x_j = 0 child
        push(lo_hi, up)    # x_j = 1 child
    return best_x, best_obj, nodes


def _pivot_until_optimal(M, xB, basis, status, u_all, d) -> None:
    """Run bounded-variable pivots in place until no improving column remains."""
    m = M.shape[0]
    bland = False
    degen_streak = 0

    for _ in range(MAX_ITERS):
        can_move = u_all > 0
        entering = ((status == _LOWER) & (d > COST_TOL) & can_move) | (
            (status == _UPPER) & (d < -COST_TOL)
        )
        cand = np.flatnonzero(entering)
        if cand.size == 0:
            return
        q = cand[0] if bland else cand[np.argmax(np.abs(d[cand]))]
        dirn = 1.0 if status[q] == _LOWER else -1.0
        col = M[:, q] * dirn

        if m:
            ubas = u_all[basis]
            dec = col > PIVOT_TOL
            inc = (col < -PIVOT_TOL) & np.isfinite(ubas)
            t_lo = np.full(m, np.inf)
            t_hi = np.full(m, np.inf)
            t_lo[dec] = np.maximum(xB[dec], 0.0) / col[dec]
            t_hi[inc] = np.maximum(ubas[inc] - xB[inc], 0.0) / (-col[inc])
            t_row = np.minimum(t_lo, t_hi)
            rmin = t_row.min()
        else:
            rmin = np.inf

        theta_flip = u_all[q]
        theta = min(rmin, theta_flip)
        if not np.isfinite(theta):
            raise SimplexError("no ratio limit found (numerically unbounded)")

        degen_streak = degen_streak + 1 if theta < 1e-10 else 0
        if degen_streak > 60:
            bland = True

        if m and theta > 0:
            xB -= theta * col

        if rmin > theta_flip:
            status[q] = _UPPER if status[q] == _LOWER else _LOWER
            continue

        ties = np.flatnonzero(t_row <= rmin + 1e-12)
        if bland:
            r = ties[np.argmin(basis[ties])]
        else:
            r = ties[np.argmax(np.abs(col[ties]))]
        piv = M[r, q]
        if abs(piv) < PIVOT_TOL:
            raise SimplexError("pivot element below tolerance")

        leaving = basis[r]
        status[leaving] = _LOWER if t_lo[r] <= t_hi[r] else _UPPER
        xB[r] = theta if dirn > 0 else u_all[q] - theta

        Mr = M[r] / piv
        M[r] = Mr
        colq = M[:, q].copy()
        colq[r] = 0.0
        M -= np.outer(colq, Mr)
        d -= d[q] * Mr
        M[:, q] = 0.0
        M[r, q] = 1.0
        d[q] = 0.0
        basis[r] = q
        status[q] = _BASIC

    raise SimplexError(f"no convergence within {MAX_ITERS} pivots")
