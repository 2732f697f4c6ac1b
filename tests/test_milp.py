"""Branch and bound, ``simplex.branch_and_bound``, against enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from donormatch.simplex import REL_GAP, branch_and_bound


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
