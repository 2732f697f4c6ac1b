"""Branch and bound, ``simplex.branch_and_bound``, against enumeration, and
its warm-started children against cold solves."""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest

from conftest import random_instance, random_realization
from donormatch import simplex, solver
from donormatch.simplex import INT_TOL, REL_GAP, _child, branch_and_bound, solve_lp


def brute_best(c, A, b):
    """Best c.x over every binary x with A x <= b."""
    best = -np.inf
    for bits in itertools.product([0.0, 1.0], repeat=len(c)):
        x = np.array(bits)
        if np.all(A @ x <= b + 1e-9):
            best = max(best, float(np.dot(c, x)))
    return best


def test_relaxation_fractional_but_milp_integral():
    # max x1 + x2, x1 + x2 <= 1.5 -> LP gives 1.5, MILP 1.0
    c = np.array([1.0, 1.0])
    x, bound, nodes = branch_and_bound(c, [[1.0, 1.0]], [1.5], [1.0, 1.0], n_binary=2)
    assert c @ x == pytest.approx(1.0, abs=1e-9)
    assert set(x.tolist()) <= {0.0, 1.0}
    assert bound == pytest.approx(1.0, abs=1e-9) and nodes >= 2


def test_incumbent_returned_when_nothing_better():
    x, bound, _ = branch_and_bound(c=[-1.0], A=[[1.0]], b=[1.0], upper=[1.0], n_binary=1)
    assert x.tolist() == [0.0]
    assert bound == pytest.approx(0.0, abs=1e-12)


def test_a_negative_right_hand_side_is_rejected():
    # 0.8 <= x <= 0.2 would leave no incumbent: x = 0 must be feasible.
    with pytest.raises(ValueError, match="b >= 0"):
        branch_and_bound(c=[1.0], A=[[1.0], [-1.0]], b=[0.2, -0.8], upper=[1.0], n_binary=1)


@pytest.mark.parametrize("seed", range(60))
def test_random_binary_programs_match_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.5, size=m)

    x, bound, _ = branch_and_bound(c, A, b, np.ones(n), n)
    ref = brute_best(c, A, b)
    assert np.isin(x, (0.0, 1.0)).all() and np.all(A @ x <= b + 1e-9)
    assert c @ x == pytest.approx(ref, abs=1e-7)
    assert bound >= c @ x
    assert bound - c @ x <= max(1e-9, REL_GAP * abs(c @ x))


def children(c, A, b, upper, n_binary, levels=3):
    """(warm, cold) results of every child in the first ``levels`` levels of the tree.

    Each node branches on its most fractional binary, as branch_and_bound
    does. warm is ``_child`` on a copy of the parent's final tableau; cold
    is ``solve_lp`` afresh under the child's bounds. The dual pivots must
    keep the tableau dual feasible, so the primal pass that ends ``_child``
    starts from an optimal tableau.
    """
    c, b, upper = (np.asarray(v, dtype=float) for v in (c, b, upper))
    A = np.asarray(A, dtype=float).reshape(b.size, c.size)
    layer, out = [(solve_lp(c, A, b, upper), np.zeros(c.size), upper)], []
    for _ in range(levels):
        below = []
        for res, lo, up in layer:
            frac = np.abs(res.x[:n_binary] - np.round(res.x[:n_binary]))
            if frac.max() <= INT_TOL:
                continue
            j = int(np.argmax(frac))
            for value in (0.0, 1.0):
                lo_child, up_child = lo.copy(), up.copy()
                (lo_child if value else up_child)[j] = value
                with mock.patch.object(simplex, "_pivot_until_optimal", confirm_optimal):
                    warm = _child(c, A, b, tuple(a.copy() for a in res._final), j, value)
                out.append((warm, solve_lp(c, A, b, up_child, lo_child)))
                if warm.status == "optimal":
                    below.append((warm, lo_child, up_child))
        layer = below
    return out


_pivot_until_optimal = simplex._pivot_until_optimal


def confirm_optimal(M, xB, basis, status, u_all, d):
    """The primal pass, entered only with no movable column that would improve."""
    up = status == simplex._UPPER
    improving = np.where(up, -d, d) > simplex.COST_TOL
    assert not (improving & (status != simplex._BASIC) & (u_all > 0.0)).any()
    _pivot_until_optimal(M, xB, basis, status, u_all, d)


def assert_same(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.bound >= warm.objective - 1e-12


def test_warm_children_match_cold_solves_on_random_programs():
    counts = {"optimal": 0, "infeasible": 0}
    for seed in range(80):
        rng = np.random.default_rng(3000 + seed)
        n, m = int(rng.integers(3, 9)), int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m) * (rng.random(m) < 0.9)  # some rows at b = 0
        # A binary capped at 0.5 can branch while nonbasic at its upper bound.
        upper = np.where(rng.random(n) < 0.15, 0.5, 1.0)
        for warm, cold in children(rng.normal(size=n), A, b, upper, n):
            assert_same(warm, cold)
            counts[cold.status] += 1
    assert counts["optimal"] >= 150 and counts["infeasible"] >= 40


def test_warm_children_match_cold_solves_on_banded_instances(monkeypatch):
    programs = []

    def record(c, A, b, upper, n_binary):
        programs.append((c, A, b, upper, n_binary))
        return branch_and_bound(c, A, b, upper, n_binary)

    monkeypatch.setattr(solver, "branch_and_bound", record)
    rng = np.random.default_rng(77)
    while len(programs) < 30:
        s = random_instance(rng)
        r = random_realization(s, rng)
        for solve in (solver.solve_offline_opt, solver.solve_ratelimit_opt):
            solve(s, r, float(rng.choice([0.5, 1.0])))
    compared = 0
    for c, A, b, upper, n_binary in programs:
        for warm, cold in children(c, A, b, upper, n_binary):
            assert_same(warm, cold)
            compared += 1
    assert compared >= 150


def test_branching_leaves_the_callers_arrays_alone():
    # The 1-child is re-optimized in its parent's arrays; at the root those
    # must not be the caller's. x_0 = 1.5 at the root, so x_0 branches.
    c, A, b, upper = np.ones(1), np.ones((1, 1)), np.array([1.5]), np.array([2.0])
    x, bound, nodes = branch_and_bound(c, A, b, upper, 1)
    assert x.tolist() == [1.0] and nodes == 3
    assert upper.tolist() == [2.0] and b.tolist() == [1.5] and A.tolist() == [[1.0]]
