"""Reference computations the benchmark checks the program against.

Nothing here calls into donormatch: every function reads the scenario's
arrays (weights, availability, schedule, edge endpoints, normalization)
and computes its answer its own way, so that a fault in the program's
solvers or simulator cannot also hide in its check.

- ``fixedtime_bound_gamma0``: the fixed-time relaxation at gamma = 0 in
  closed form (a fractional knapsack per scheduled donor-step).
- ``highs_lp``: each LP kind written out from its definition as a sparse
  model and solved with scipy's HiGHS.
- ``optimum_per_realization``: the gamma = 0 offline optimum of sampled
  realizations, which every fixed-time policy is bounded by trial for
  trial and which the Max policy attains.
- ``bernstein_halfwidth``: a deviation bound for Monte Carlo means of a
  bounded variable, used where the exact expectation is known.
"""

from __future__ import annotations

import math

import numpy as np

FIXEDTIME = "fixedtime_lp"
NADAPOPT = "nadapopt_lp"
RATELIMIT = "ratelimit_lp"


def fixedtime_bound_gamma0(s) -> float:
    """Z_LP at gamma = 0: fill each scheduled cell's heaviest edges up to p."""
    total = 0.0
    p_edge = s.availability[s.edge_recipient]  # (E, T)
    for ui, edges in enumerate(s.donor_edges):
        if edges.size == 0:
            continue
        for tau in np.flatnonzero(s.donor_schedule[ui]):
            w = s.weights[edges, tau]
            p = p_edge[edges, tau]
            room = 1.0
            for j in np.argsort(-w, kind="stable"):
                if room <= 0.0:
                    break
                take = min(p[j], room)
                total += w[j] * take
                room -= take
    return total


def _cells(s, kind):
    """(edge, step) columns of one LP kind, with objective and upper bound."""
    p_edge = s.availability[s.edge_recipient]
    if kind == RATELIMIT:
        mask = np.ones((s.n_edges, s.horizon), dtype=bool)
    else:
        mask = s.donor_schedule[s.edge_donor] != 0
    ce, ct = np.nonzero(mask)
    w = s.weights[ce, ct]
    p = p_edge[ce, ct]
    if kind == NADAPOPT:
        return ce, ct, w * p, np.ones(ce.size)
    return ce, ct, w, p


def highs_lp(s, kind: str, gamma: float) -> float:
    """Objective of one relaxation, solved by HiGHS from a sparse model.

    Columns are the donor-step cells (every step for the rate-limited
    kind, scheduled steps otherwise, including cells whose recipient is
    never available). Packing rows: one per scheduled donor-step, or one
    per donor and step over the trailing K-step window, unclipped
    duplicates included. For gamma > 0 one extra column L carries the
    proportionality band: gamma * s_v <= L <= s_v for every recipient v,
    which holds exactly when gamma * max s <= min s.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    ce, ct, cost, ub = _cells(s, kind)
    nc = ce.size
    if nc == 0:
        return 0.0
    cd = s.edge_donor[ce]
    rows, cols = [], []
    nrow = 0
    if kind == RATELIMIT:
        K = s.rate_limit
        for u in range(s.n_donors):
            mine = np.flatnonzero(cd == u)
            for tau in range(s.horizon):
                sel = mine[(ct[mine] > tau - K) & (ct[mine] <= tau)]
                rows.append(np.full(sel.size, nrow))
                cols.append(sel)
                nrow += 1
    else:
        key = cd * s.horizon + ct
        _, group = np.unique(key, return_inverse=True)
        rows.append(group)
        cols.append(np.arange(nc))
        nrow = int(group.max()) + 1
    vals = [np.ones(sum(r.size for r in rows))]
    b = [np.ones(nrow)]

    ncols = nc
    bounds_hi = list(ub)
    V = s.n_recipients
    if gamma > 0.0:
        m = np.asarray(s.normalization, dtype=float)
        ncols = nc + 1
        L = nc
        cr = s.edge_recipient[ce]
        q = cost / m[cr]
        cells = np.arange(nc)
        # L - s_v <= 0
        rows += [nrow + cr, np.arange(nrow, nrow + V)]
        cols += [cells, np.full(V, L)]
        vals += [-q, np.ones(V)]
        # gamma * s_v - L <= 0
        rows += [nrow + V + cr, np.arange(nrow + V, nrow + 2 * V)]
        cols += [cells, np.full(V, L)]
        vals += [gamma * q, -np.ones(V)]
        b.append(np.zeros(2 * V))
        nrow += 2 * V
        bounds_hi.append(None)

    A = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrow, ncols),
    ).tocsr()
    c = np.zeros(ncols)
    c[:nc] = -cost
    res = linprog(
        c,
        A_ub=A,
        b_ub=np.concatenate(b),
        bounds=[(0.0, hi) for hi in bounds_hi],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS {kind} at gamma {gamma}: {res.message}")
    return float(-res.fun)


def optimum_per_realization(s, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma = 0 fixed-time offline optimum on ``draws`` sampled realizations.

    Given a realization the scheduled cells decouple, so the optimum takes
    the heaviest available edge in each one. Recipients are available
    independently per step with probability p_vt.
    """
    order = np.argsort(s.edge_donor, kind="stable")
    donor_sorted = s.edge_donor[order]
    starts = np.flatnonzero(np.r_[True, donor_sorted[1:] != donor_sorted[:-1]])
    donors = donor_sorted[starts]
    sched = s.donor_schedule[donors] != 0  # (U', T)
    w = s.weights[order]  # (E, T)
    rec = s.edge_recipient[order]
    out = np.empty(draws)
    chunk = 100
    for lo in range(0, draws, chunk):
        n = min(chunk, draws - lo)
        hit = rng.random((n, s.n_recipients, s.horizon)) < s.availability
        gain = w[None, :, :] * hit[:, rec, :]
        best = np.maximum.reduceat(gain, starts, axis=1)  # (n, U', T)
        out[lo : lo + n] = (best * sched[None]).sum(axis=(1, 2))
    return out


def bernstein_halfwidth(mean: float, upper: float, n: int, delta: float) -> float:
    """Half-width that a mean of n draws of X in [0, upper] exceeds w.p. <= delta.

    Bernstein's inequality with the variance replaced by its largest
    value for a variable on [0, upper] with this mean, mean*(upper-mean)
    (Bhatia-Davis). Unlike a normal approximation it stays valid for rare
    outcomes that a short run may not see at all.
    """
    var = max(mean * (upper - mean), 0.0)
    log_term = math.log(2.0 / delta)
    a = upper * log_term / (3.0 * n)
    return a + math.sqrt(a * a + 2.0 * log_term * var / n)
