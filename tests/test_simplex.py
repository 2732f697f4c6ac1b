from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from donormatch.simplex import SimplexError, _child, solve_lp


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


def fixed(c, A, b, upper, *fixings):
    """The root LP re-optimized by ``_child`` after each (j, value) fixing in turn."""
    c, A, b = np.asarray(c, float), np.asarray(A, float), np.asarray(b, float)
    res = solve_lp(c, A, b, upper)
    for j, value in fixings:
        assert res.status == "optimal"
        res = _child(c, A, b, res._final, j, value)
    return res


def test_fixed_variables_shift_rhs_negative():
    # Fixing x1 = 1 shifts the row's room to 0.5, which the root's x2 = 1 breaks.
    res = fixed([0.0, 1.0], [[1.0, 1.0]], [1.5], [1.0, 1.0], (0, 1.0))
    assert res.status == "optimal"
    assert res.x == pytest.approx([1.0, 0.5], abs=1e-9)
    assert res.objective == pytest.approx(0.5, abs=1e-9) and res.bound >= 0.5 - 1e-12


def test_infeasible_fixing_detected():
    res = fixed([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 1.0], (0, 1.0), (1, 1.0))
    assert res.status == "infeasible" and res.x is None


def test_lower_above_upper_is_infeasible():
    res = fixed([1.0], [[1.0]], [2.0], [0.0], (0, 1.0))
    assert res.status == "infeasible"


@pytest.mark.parametrize(
    "b, upper",
    [([-0.5], [1.0]), ([np.nan], [1.0]), ([1.0], [-1.0]), ([1.0], [np.nan])],
    ids=["negative b", "NaN b", "negative upper", "NaN upper"],
)
def test_a_program_where_zero_may_be_infeasible_is_refused(b, upper):
    with pytest.raises(ValueError, match="b >= 0 and upper >= 0"):
        solve_lp(c=[1.0], A=[[1.0]], b=b, upper=upper)


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

    try:
        ours = solve_lp(c, A, b, upper)
    except SimplexError:
        pytest.fail("simplex error on a plain random LP")

    ref = linprog(-c, A_ub=A, b_ub=b, bounds=list(zip(np.zeros(n), upper)), method="highs")
    assert ref.status == 0
    assert ours.status == "optimal"
    assert ours.objective == pytest.approx(-ref.fun, abs=2e-7)
    assert np.all(A @ ours.x <= b + 1e-6)
    assert np.all(ours.x >= -1e-9)
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
