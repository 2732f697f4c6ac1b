"""Trailing donor windows, the one shape every matching budget takes.

A donor is matched at most once per window of ``width`` steps, the
steps [t - width + 1, t]: width 1 in fixed-time mode (one match per
scheduled day), width K in rate-limited mode. The packing rows of both
LP solvers (``_window_rows``: the windows no other window holds), the
induced donor availability and the blocking estimate in
``policies.estimate_beta`` all read their windows from here, as
differences of one padded cumulative sum over the steps.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .graph import Scenario


def _mass_by_donor_step(s: Scenario, x: np.ndarray) -> np.ndarray:
    """(U, T) sums of a per-(edge, step) array over each donor's edges."""
    mass = np.zeros((s.n_donors, s.horizon))
    np.add.at(mass, s.edge_donor, x)
    return mass


def _prior_sum(values: np.ndarray, width: int) -> np.ndarray:
    """Sums over the width - 1 steps before each step, along the last axis.

    Entry t holds the sum of steps [t - width + 1, t - 1], clipped at the
    first step, so entry 0 is always 0 and width 1 gives all zeros.
    """
    cum = np.cumsum(values, axis=-1)
    pad = np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1)
    steps = np.arange(values.shape[-1])
    return pad[..., steps] - pad[..., np.maximum(steps - width + 1, 0)]


def _induced_availability(s: Scenario, x: np.ndarray) -> np.ndarray:
    """a_ut = 1 minus the donor's matched mass in the previous K - 1 steps."""
    prior = _prior_sum(_mass_by_donor_step(s, x), s.rate_limit)
    return np.clip(1.0 - prior, 0.0, 1.0)


def _window_rows(
    s: Scenario, ce: np.ndarray, ct: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(donor, step) ends of the windows that are packing rows, in that order.

    Rows are the windows no other window holds, one of each run of equal
    windows; the rest are implied, since x >= 0, and the rows of a donor
    are then independent. Window t is kept when it holds a cell, when
    window t + 1 does not hold it (a cell at t - width + 1 leaves, or t is
    the last step) and when window t - 1 does not strictly hold it (a cell
    enters at t, or none at t - width leaves).
    """
    T = s.horizon
    busy = np.zeros((s.n_donors, T), dtype=bool)
    busy[s.edge_donor[ce], ct] = True
    before = np.pad(busy, ((0, 0), (width, 0)))  # column t holds step t - width
    leaves_next = before[:, 1 : T + 1] | (np.arange(T) == T - 1)
    held = _prior_sum(busy, width) + busy > 0
    return np.nonzero(leaves_next & (busy | ~before[:, :T]) & held)


def _window_cells(
    s: Scenario, ce: np.ndarray, ct: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``_window_rows`` (ru, rt) and their (row, cell) incidence over the active cells.

    Row i holds the cells of donor ru[i] with step in [rt[i] - width + 1, rt[i]].
    """
    ru, rt = _window_rows(s, ce, ct, width)
    per = np.zeros((s.n_donors, s.horizon), dtype=np.int64)
    np.add.at(per, (s.edge_donor[ce], ct), 1)
    # Sorted by (donor, step), the cells of (u, t) start at offset[u * T + t].
    order = np.lexsort((ct, s.edge_donor[ce]))
    offset = np.concatenate([[0], np.cumsum(per.ravel())])
    first = offset[ru * s.horizon + np.maximum(rt - width + 1, 0)]
    size = (_prior_sum(per, width) + per)[ru, rt]
    rows = np.repeat(np.arange(ru.size), size)
    within = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
    return ru, rt, rows, order[np.repeat(first, size) + within]
