from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from donormatch.simplex import SimplexError, solve_lp


def test_single_variable_capped_by_row():
    res = solve_lp(c=[1.0], A=[[1.0]], b=[0.5], upper=[1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.x[0] == pytest.approx(0.5, abs=1e-9)


def test_picks_heavier_column():
    res = solve_lp(c=[0.9, 1.0], A=[[1.0, 1.0]], b=[1.0], upper=[1.0, 1.0])
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_bound_flip_then_pivot():
    res = solve_lp(
        c=[2.0, 1.0], A=[[1.0, 1.0]], b=[1.5], upper=[1.0, 1.0]
    )
    assert res.objective == pytest.approx(2.5, abs=1e-9)
    assert res.x == pytest.approx([1.0, 0.5], abs=1e-9)


def test_no_rows_maximizes_at_bounds():
    res = solve_lp(c=[1.0, -1.0], A=np.zeros((0, 2)), b=[], upper=[0.7, 0.7])
    assert res.objective == pytest.approx(0.7, abs=1e-9)
    assert res.x == pytest.approx([0.7, 0.0], abs=1e-9)


def test_no_variables():
    res = solve_lp(c=[], A=np.zeros((1, 0)), b=[1.0], upper=[])
    assert res.status == "optimal"
    assert res.objective == 0.0


def test_fixed_variables_shift_rhs_negative():
    # Fixing x1 = 1 leaves x2 <= 0.5 via phase 1.
    res = solve_lp(
        c=[0.0, 1.0],
        A=[[1.0, 1.0]],
        b=[1.5],
        upper=[1.0, 1.0],
        lower=[1.0, 0.0],
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 0.5], abs=1e-9)


def test_infeasible_fixing_detected():
    res = solve_lp(
        c=[1.0, 1.0],
        A=[[1.0, 1.0]],
        b=[1.0],
        upper=[1.0, 1.0],
        lower=[1.0, 1.0],
    )
    assert res.status == "infeasible"


def test_lower_above_upper_is_infeasible():
    res = solve_lp(c=[1.0], A=[[1.0]], b=[2.0], upper=[0.0], lower=[1.0])
    assert res.status == "infeasible"


def test_degenerate_redundant_rows():
    A = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    res = solve_lp(c=[1.0, 1.0], A=A, b=[1.0, 1.0, 1.0], upper=[2.0, 2.0])
    assert res.objective == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(150))
def test_random_lp_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.2, 2.0, size=m)
    upper = rng.uniform(0.1, 2.0, size=n)
    lower = np.zeros(n)
    if seed % 3 == 0:
        lower = upper * rng.uniform(0.0, 0.9, size=n)
    if seed % 5 == 0 and n >= 2:
        lower[0] = upper[0]  # a fixed variable

    ours = None
    try:
        ours = solve_lp(c, A, b, upper, lower)
    except SimplexError:
        pytest.fail("simplex error on a plain random LP")

    ref = linprog(
        -c, A_ub=A, b_ub=b, bounds=list(zip(lower, upper)), method="highs"
    )
    if ref.status == 2:
        assert ours.status == "infeasible"
    else:
        assert ref.status == 0
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(-ref.fun, abs=2e-7)
        assert np.all(A @ ours.x <= b + 1e-6)
        assert np.all(ours.x >= lower - 1e-9)
        assert np.all(ours.x <= upper + 1e-9)


def test_a_degenerate_stall_switches_to_blands_rule_and_still_solves():
    # 584 rows x_i - x_j <= 0 with b = 0: every vertex near the origin is
    # degenerate, so the largest-coefficient rule stalls and the solve falls
    # back to Bland's rule (11 times on this instance).
    rng = np.random.default_rng(3)
    mask = rng.random((60, 60)) < 0.15
    np.fill_diagonal(mask, False)
    i, j = np.nonzero(mask)
    A = np.zeros((i.size, 60))
    A[np.arange(i.size), i] = 1.0
    A[np.arange(i.size), j] = -1.0
    c = rng.uniform(-1.0, 1.0, 60)
    b, upper = np.zeros(i.size), np.ones(60)
    assert A.shape == (584, 60)

    res = solve_lp(c, A, b, upper)
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.objective == pytest.approx(-ref.fun, abs=1e-9)
    assert np.all(A @ res.x <= 1e-9)
    assert np.all((res.x >= -1e-12) & (res.x <= 1.0 + 1e-12))
