"""Solver layer: hand-solved instances, cross-formulation relations, invariants."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    all_ones_realization,
    random_instance,
    random_realization,
    single_edge_instance,
    two_recipient_instance,
)
from donormatch.graph import (
    MODE_FIXED,
    MODE_RATE,
    DemandRealization,
    Donor,
    Recipient,
    build_scenario,
    outcome_from_matches,
    validate_outcome,
    validate_scenario,
    with_normalization,
)
from donormatch import solver
from donormatch.oracle import brute_force_opt
from donormatch.policies import PolicySpec
from donormatch.simplex import REL_GAP, branch_and_bound, solve_lp
from donormatch.simulate import draw_realization, run_policy
from donormatch.solver import (
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_offline_opt,
    solve_ratelimit_lp,
    solve_ratelimit_opt,
)
from donormatch.synthgen import generate_city, load_bundled_config
from donormatch.windows import _window_cells


@pytest.fixture
def interior(monkeypatch):
    """Send every relaxation, however small, to the interior point."""
    monkeypatch.setattr(solver, "SIMPLEX_MAX_ENTRIES", 0)


def wide_instance(n=1_700):
    """n one-step donors with an edge each to A and B, both scored."""
    return build_scenario(
        donors=[Donor(f"u{i}", 0.0, 0.0) for i in range(n)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.0, 0.1)],
        edges=[(f"u{i}", v) for i in range(n) for v in ("A", "B")],
        weights=[1.0] * (2 * n),
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"A": 1.0, "B": 1.0},
    )


def waiting_instance(eps=0.01):
    """One donor, one recipient, weights (eps, 1.0) over two steps, K=2."""
    return build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[("u", "v")],
        weights=[[eps, 1.0]],
        availability=None,
        horizon=2,
        rate_limit=2,
    )


# ---------------------------------------------------------------------------
# frozen hand solutions


def test_fixedtime_lp_single_edge_caps_at_availability():
    sol = solve_fixedtime_lp(single_edge_instance(p=0.5), gamma=0.0)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.x[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert sol.a is None


def test_offline_opt_gamma_zero_takes_heavier_edge():
    s = two_recipient_instance()
    sol = solve_offline_opt(s, all_ones_realization(s), gamma=0.0)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    b = s.edges.index(("u", "B"))
    a = s.edges.index(("u", "A"))
    assert sol.x[b, 0] == 1.0
    assert sol.x[a, 0] == 0.0


def test_offline_opt_gamma_one_forces_empty_matching():
    s = two_recipient_instance()
    sol = solve_offline_opt(s, all_ones_realization(s), gamma=1.0)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert not sol.x.any()
    assert sol.s == pytest.approx([0.0, 0.0])


def test_availability_is_read_through_each_edges_recipient():
    # As many edges as recipients, with edge 0 going to the second one: a
    # cell's availability must come from its edge's recipient row, not
    # from the row at the edge's own index.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.0, 0.1, kind="dynamic")],
        edges=[("u", "B"), ("u", "A")],
        weights=[1.0, 0.5],
        availability={"B": [0.0, 0.6]},
        horizon=2,
        rate_limit=1,
    )
    # Step 1 offers A alone: 0.5. Step 2 caps B at 0.6 and fills the
    # donor's budget with 0.4 of A: 0.6 + 0.2.
    assert solve_fixedtime_lp(s, 0.0).objective == pytest.approx(1.3, abs=1e-9)
    r = DemandRealization(np.array([[1, 1], [0, 1]], dtype=np.int8))
    want, _ = brute_force_opt(s, r, 0.0)
    assert solve_offline_opt(s, r, 0.0).objective == pytest.approx(want, abs=1e-9)


def test_nadapopt_gamma_one_splits_the_donor():
    s = two_recipient_instance()
    sol = solve_nadapopt_lp(s, gamma=1.0)
    assert sol.objective == pytest.approx(0.95, abs=1e-9)
    a = s.edges.index(("u", "A"))
    b = s.edges.index(("u", "B"))
    assert sol.x[a, 0] == pytest.approx(0.5, abs=1e-6)
    assert sol.x[b, 0] == pytest.approx(0.5, abs=1e-6)
    # s_A = y_A / 0.45 * 0.9 = 2 y_A and likewise for B, so both equal 1.
    assert sol.s == pytest.approx([1.0, 1.0], abs=1e-6)


def test_nadapopt_gamma_zero_is_per_donor_max():
    s = two_recipient_instance()
    sol = solve_nadapopt_lp(s, gamma=0.0)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[s.edges.index(("u", "B")), 0] == pytest.approx(1.0, abs=1e-9)


def test_ratelimit_opt_waits_for_the_heavy_step():
    s = waiting_instance()
    sol = solve_ratelimit_opt(s, all_ones_realization(s), gamma=0.0)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0, 0] == 0.0 and sol.x[0, 1] == 1.0
    assert sol.a is not None
    assert sol.a[0, 0] == 1.0 and sol.a[0, 1] == 1.0


def test_ratelimit_lp_matches_the_waiting_bound():
    sol = solve_ratelimit_lp(waiting_instance(), gamma=0.0)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_ratelimit_lp_single_notification_budget():
    # K >= T leaves one notification for the whole horizon, so Z_LP is the
    # best single cell of the donor.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("a", 0.0, 0.0), Recipient("b", 0.0, 0.0)],
        edges=[("u", "a"), ("u", "b")],
        weights=[[0.2, 0.7, 0.4], [0.6, 0.1, 0.65]],
        availability=None,
        horizon=3,
        rate_limit=3,
    )
    sol = solve_ratelimit_lp(s, gamma=0.0)
    assert sol.objective == pytest.approx(0.7, abs=1e-9)


def test_ratelimit_k1_decomposes_per_step():
    s = build_scenario(
        donors=[Donor("u0", 0.0, 0.0), Donor("u1", 0.0, 0.0)],
        recipients=[Recipient("a", 0.0, 0.0), Recipient("b", 0.0, 0.0)],
        edges=[("u0", "a"), ("u0", "b"), ("u1", "b")],
        weights=[[0.3, 0.9], [0.5, 0.2], [0.8, 0.1]],
        availability=None,
        horizon=2,
        rate_limit=1,
    )
    sol = solve_ratelimit_opt(s, all_ones_realization(s), gamma=0.0)
    # Per step each donor takes its best edge: (0.5 + 0.8) + (0.9 + 0.1).
    assert sol.objective == pytest.approx(2.3, abs=1e-9)


def test_empty_edge_set_gives_zero_everywhere():
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[],
        weights=[],
        availability=None,
        horizon=2,
        rate_limit=2,
        normalization={"v": 1.0},
    )
    r = all_ones_realization(s)
    assert solve_offline_opt(s, r, 0.5).objective == 0.0
    assert solve_fixedtime_lp(s, 0.5).objective == 0.0
    assert solve_nadapopt_lp(s, 0.5).objective == 0.0
    assert solve_ratelimit_opt(s, r, 0.5).objective == 0.0
    assert solve_ratelimit_lp(s, 0.5).objective == 0.0


def test_nadapopt_unscheduled_donor_gets_nothing():
    s = two_recipient_instance()
    muted = dataclasses.replace(s, donor_schedule=np.zeros_like(s.donor_schedule))
    sol = solve_nadapopt_lp(muted, gamma=0.0)
    assert sol.objective == 0.0
    assert not sol.x.any()


# ---------------------------------------------------------------------------
# cross-formulation relations


def test_horizon_one_rate_equals_fixed():
    rng = np.random.default_rng(4210)
    for _ in range(15):
        s = random_instance(rng, max_steps=1)
        # everyone notified on the single day, else fixed mode sits idle
        s = dataclasses.replace(s, donor_schedule=np.ones_like(s.donor_schedule))
        r = random_realization(s, rng)
        fixed = solve_offline_opt(s, r, gamma=0.0)
        rate = solve_ratelimit_opt(s, r, gamma=0.0)
        assert rate.objective == pytest.approx(fixed.objective, abs=1e-9)


def test_deterministic_lp_is_tight_at_gamma_zero():
    rng = np.random.default_rng(977)
    for _ in range(10):
        s = random_instance(rng)
        det = dataclasses.replace(s, availability=np.ones_like(s.availability))
        r = all_ones_realization(det)
        lp = solve_fixedtime_lp(det, gamma=0.0)
        milp = solve_offline_opt(det, r, gamma=0.0)
        assert lp.objective == pytest.approx(milp.objective, abs=1e-7)


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_deterministic_lp_bounds_milp(gamma):
    rng = np.random.default_rng(31 + int(gamma * 10))
    for _ in range(10):
        s = random_instance(rng)
        det = dataclasses.replace(s, availability=np.ones_like(s.availability))
        r = all_ones_realization(det)
        assert (
            solve_fixedtime_lp(det, gamma).objective + 1e-7
            >= solve_offline_opt(det, r, gamma).objective
        )
        assert (
            solve_ratelimit_lp(det, gamma).objective + 1e-7
            >= solve_ratelimit_opt(det, r, gamma).objective
        )


def _rate_limit_one_matches_fixed_time():
    # With K = 1 and first_notify = 1 every donor is scheduled every day,
    # so both kinds get one packing row per donor and step: the same LP.
    rng = np.random.default_rng(2024)
    for _ in range(30):
        s = random_instance(rng)
        s = dataclasses.replace(
            s,
            donors=[dataclasses.replace(d, first_notify=1) for d in s.donors],
            rate_limit=1,
            donor_schedule=np.ones_like(s.donor_schedule),
        )
        assert validate_scenario(s) == []
        for gamma in (0.0, 0.5, 1.0):
            rate = solve_ratelimit_lp(s, gamma)
            fixed = solve_fixedtime_lp(s, gamma)
            assert np.array_equal(rate.x, fixed.x)
            assert rate.objective == fixed.objective


def test_rate_limit_one_solves_the_fixed_time_lp():
    _rate_limit_one_matches_fixed_time()


def test_rate_limit_one_solves_the_fixed_time_lp_on_the_interior_point(interior):
    _rate_limit_one_matches_fixed_time()


def test_milp_objective_monotone_in_gamma():
    rng = np.random.default_rng(88)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for _ in range(10):
        s = random_instance(rng)
        r = random_realization(s, rng)
        for solve in (solve_offline_opt, solve_ratelimit_opt):
            objs = [solve(s, r, g).objective for g in grid]
            for lo, hi in zip(objs[1:], objs):
                assert lo <= hi + 1e-7


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_branch_and_bound_reports_a_bound_within_its_gap(gamma):
    rng = np.random.default_rng(4100 + int(gamma * 10))
    branched = 0
    for _ in range(20):
        s = random_instance(rng)
        r = random_realization(s, rng)
        for solve in (solve_offline_opt, solve_ratelimit_opt):
            sol = solve(s, r, gamma)
            if sol.iterations == 0:
                continue  # no band left: a closed form
            branched += 1
            assert sol.bound >= sol.objective
            assert sol.bound - sol.objective <= max(1e-9, REL_GAP * abs(sol.objective))
    assert branched >= 10


# ---------------------------------------------------------------------------
# validation and structural invariants


def test_gamma_outside_unit_interval_rejected():
    s = two_recipient_instance()
    with pytest.raises(ValueError):
        solve_fixedtime_lp(s, gamma=1.2)
    with pytest.raises(ValueError):
        solve_fixedtime_lp(s, gamma=-0.1)


def test_positive_gamma_needs_positive_normalization():
    bare = two_recipient_instance(normalization=False)
    with pytest.raises(ValueError):
        solve_nadapopt_lp(bare, gamma=0.5)
    # A zero score leaves its recipient out of the band, and one scored
    # recipient is no band at all: the LP is the gamma = 0 one.
    zeroed = dataclasses.replace(
        two_recipient_instance(), normalization=np.array([0.0, 0.5])
    )
    banded, free = solve_nadapopt_lp(zeroed, gamma=0.5), solve_nadapopt_lp(zeroed, gamma=0.0)
    assert np.array_equal(banded.x, free.x) and banded.objective == free.objective
    assert np.isnan(banded.s[0]) and banded.s[1] == pytest.approx(2.0)
    negative = dataclasses.replace(
        two_recipient_instance(), normalization=np.array([-0.1, 0.5])
    )
    with pytest.raises(ValueError, match="nonnegative normalization"):
        solve_nadapopt_lp(negative, gamma=0.5)
    # NaN is refused as negative is, by the rule metrics.gamma_of follows.
    undefined = dataclasses.replace(negative, normalization=np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match=r"not >= 0 for \['A'\]"):
        solve_nadapopt_lp(undefined, gamma=0.5)
    # gamma = 0 runs without scores; normalized totals are just undefined.
    sol = solve_nadapopt_lp(bare, gamma=0.0)
    assert np.isnan(sol.s).all()


def test_realization_shape_mismatch_rejected():
    s = two_recipient_instance()
    with pytest.raises(ValueError, match="shape"):
        solve_offline_opt(s, DemandRealization(np.ones((3, 1))), gamma=0.0)


def test_a_large_banded_integral_solve_is_refused_before_branching():
    # At this seed city_small has 318 binaries fixed-time and 2,124
    # rate-limited; under the band the fixed-time solve used to run 698 s
    # and then out of nodes. At gamma 0 the root LP is integral and both
    # kinds still solve.
    s = generate_city(load_bundled_config("city_small"))
    s = with_normalization(s, np.ones(s.n_recipients))
    r = draw_realization(s, np.random.default_rng([0, 9]))
    for solve in (solve_offline_opt, solve_ratelimit_opt):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"has \d+ binaries"):
            solve(s, r, 0.5)
        assert time.perf_counter() - start < 1.0
        assert solve(s, r, 0.0).objective > 0.0


@pytest.mark.parametrize("n", [2, 40])
def test_a_banded_total_no_cell_can_raise_unbands_the_integral_solves(n):
    # B is scored but never realized, so s_B = 0 pins every banded total at
    # 0: A's cells are fixed at 0 and no band is left to branch over, even
    # with 2n = 80 binaries, past MAX_BANDED_BINARIES.
    s = build_scenario(
        donors=[Donor(f"u{i}", 0.0, 0.0) for i in range(n)],
        recipients=[Recipient(v, 0.0, 0.0) for v in "ABC"],
        edges=[(f"u{i}", v) for i in range(n) for v in "ABC"],
        weights=[1.0, 1.0, 0.5] * n,
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"A": 1.0, "B": 1.0, "C": 0.0},
    )
    r = DemandRealization(np.array([[1], [0], [1]]))
    for solve, mode in ((solve_offline_opt, MODE_FIXED), (solve_ratelimit_opt, MODE_RATE)):
        sol = solve(s, r, 0.5)
        assert (sol.x[s.edge_recipient != 2] == 0.0).all()
        assert sol.objective == pytest.approx(0.5 * n)
        if n == 2:
            assert sol.objective == pytest.approx(brute_force_opt(s, r, 0.5, mode=mode)[0])


def test_a_wide_unbanded_integral_solve_has_a_closed_form():
    # 1,700 donors would make a 1700 x (3400 + 1700) dense tableau for
    # branch and bound; at gamma 0 each donor takes its heaviest edge.
    wide = wide_instance()
    start = time.perf_counter()
    sol = solve_offline_opt(wide, all_ones_realization(wide), 0.0)
    assert time.perf_counter() - start < 1.0
    assert sol.objective == 1700.0 and sol.iterations == 0
    # Riverton's rate-limited LP, 2791 x 14132 in the dense model (380 MB),
    # solves on the interior point, as does city_small's.
    s = generate_city(load_bundled_config("riverton"))
    s = with_normalization(s, np.ones(s.n_recipients))
    start = time.perf_counter()
    sol = solve_ratelimit_lp(s, 0.5)
    assert time.perf_counter() - start < 10.0
    assert sol.objective > 0.0
    assert (sol.bound - sol.objective) / (1.0 + sol.objective) <= 1e-7
    small = generate_city(load_bundled_config("city_small"))
    assert solve_ratelimit_lp(small, 0.0).objective > 0.0


def _per_donor_step(s, sol):
    out = np.zeros((s.n_donors, s.horizon))
    np.add.at(out, s.edge_donor, sol.x)
    return out


def _check_packing(s, sol, mode):
    per_donor_step = _per_donor_step(s, sol)
    if mode == "fixed":
        assert (per_donor_step <= 1.0 + 1e-6).all()
        off_schedule = per_donor_step[s.donor_schedule == 0]
        assert (off_schedule <= 1e-9).all()
    else:
        for tau in range(s.horizon):
            lo = max(0, tau - s.rate_limit + 1)
            window = per_donor_step[:, lo : tau + 1].sum(axis=1)
            assert (window <= 1.0 + 1e-6).all()


def _availability_by_loop(s, sol):
    """1 minus each donor's mass over its previous K - 1 steps, clipped."""
    per_donor_step = _per_donor_step(s, sol)
    a = np.ones_like(per_donor_step)
    for tau in range(s.horizon):
        lo = max(0, tau - s.rate_limit + 1)
        a[:, tau] = 1.0 - per_donor_step[:, lo:tau].sum(axis=1)
    return np.clip(a, 0.0, 1.0)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_window_rows_match_a_loop_over_donors_and_steps(width):
    rng = np.random.default_rng(300 + width)
    for _ in range(40):
        s = random_instance(rng, max_steps=4, cell_budget=None)
        ce, ct = np.nonzero(rng.random((s.n_edges, s.horizon)) < 0.6)
        _, _, rows, cols = _window_cells(s, ce, ct, width)
        got = [sorted(cols[rows == i].tolist()) for i in np.unique(rows)]
        # Per donor, the non-empty window cell sets that no other window of
        # the donor strictly contains, one per run of equal sets.
        want = []
        for u in range(s.n_donors):
            sets = [
                set(np.flatnonzero((s.edge_donor[ce] == u) & (ct > tau - width) & (ct <= tau)))
                for tau in range(s.horizon)
            ]
            last = None
            for cells in sets:
                if cells and cells != last and not any(cells < other for other in sets):
                    want.append(sorted(cells))
                    last = cells
        assert got == want
        assert np.array_equal(np.unique(rows), np.arange(len(want)))


@pytest.mark.parametrize(
    "gamma, route",
    [pytest.param(g, "simplex", id=f"{g}") for g in (0.0, 0.4, 1.0)]
    + [pytest.param(g, "interior", id=f"interior-{g}") for g in (0.0, 0.4, 1.0)],
)
def test_solution_invariants_on_random_instances(gamma, route, request):
    if route == "interior":
        request.getfixturevalue("interior")
    rng = np.random.default_rng(140 + int(gamma * 10))
    for _ in range(12):
        s = random_instance(rng)
        r = random_realization(s, rng)
        cases = [
            (solve_offline_opt(s, r, gamma), "fixed", True),
            (solve_fixedtime_lp(s, gamma), "fixed", False),
            (solve_nadapopt_lp(s, gamma), "fixed", False),
            (solve_ratelimit_opt(s, r, gamma), "rate", True),
            (solve_ratelimit_lp(s, gamma), "rate", False),
        ]
        for sol, mode, integral in cases:
            assert sol.gamma == gamma
            assert sol.x.shape == (s.n_edges, s.horizon)
            assert (sol.x >= -1e-9).all()
            if integral:
                assert np.isin(sol.x, (0.0, 1.0)).all()
            _check_packing(s, sol, mode)
            if mode == "rate":
                assert sol.a is not None and sol.a.shape == (
                    s.n_donors,
                    s.horizon,
                )
                assert ((sol.a >= 0.0) & (sol.a <= 1.0)).all()
                assert sol.a == pytest.approx(_availability_by_loop(s, sol), abs=1e-12)
            else:
                assert sol.a is None
            # recompute s_v from x; the p factor rides along for nadapopt
            w = s.weights.copy()
            if sol.kind == "nadapopt_lp":
                w = w * s.availability[s.edge_recipient]
            raw = np.zeros(s.n_recipients)
            np.add.at(raw, s.edge_recipient, (w * sol.x).sum(axis=1))
            assert sol.s * s.normalization == pytest.approx(raw, abs=1e-7)
            assert sol.objective == pytest.approx(raw.sum(), abs=1e-7)
            if gamma > 0:
                assert gamma * sol.s.max() <= sol.s.min() + 1e-6


# ---------------------------------------------------------------------------
# the interior point


_LP_KINDS = {
    "fixedtime_lp": solve_fixedtime_lp,
    "nadapopt_lp": solve_nadapopt_lp,
    "ratelimit_lp": solve_ratelimit_lp,
}


@pytest.mark.parametrize(
    "gamma", [0.0, 0.5, 1.0], ids=["no-band", "inequality-band", "equality-band"]
)
@pytest.mark.parametrize("width", [1, 3])
def test_window_lp_operators_match_the_dense_matrix(width, gamma):
    # A x, A'y, the packing solve and the normal solve of the interior point,
    # each against the dense A built from the window incidence and the band:
    # L - s_v <= 0 and gamma s_v - L <= 0 per recipient, or s_v - L = 0.
    from donormatch.ipm import _WindowLp

    rng = np.random.default_rng(900 + 10 * width + int(10 * gamma))
    e, f = ([-1.0, gamma], [1.0, -1.0]) if gamma < 1.0 else ([1.0], [-1.0])
    for _ in range(10):
        s = random_instance(rng, max_donors=4, max_recipients=3, max_steps=8, cell_budget=None)
        ce, ct = np.nonzero(rng.random(s.weights.shape) < 0.6)
        if ce.size == 0:
            continue
        window = _window_cells(s, ce, ct, width)
        _, _, rows, cols = window
        nc, m0 = ce.size, window[0].size
        nb = s.n_recipients if gamma > 0.0 else 0
        v = s.edge_recipient[ce]
        q = np.where(rng.random(nc) < 0.8, rng.uniform(0.1, 1.0, nc), 0.0)
        n = nc + 1 if nb else nc
        lp = _WindowLp(
            s, ce, ct, rng.random(n), rng.uniform(0.5, 1.0, n), width, window, q, v, nb, gamma
        )
        A = np.zeros((m0 + len(e) * nb, n))
        A[rows, cols] = 1.0
        for i in range(len(e) if nb else 0):
            for j in range(nb):
                A[m0 + i * nb + j, :nc] = e[i] * q * (v == j)
                A[m0 + i * nb + j, nc] = f[i]
        x, y = rng.normal(size=n), rng.normal(size=A.shape[0])
        np.testing.assert_allclose(lp.mul(x), A @ x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(lp.tmul(y), A.T @ y, rtol=0.0, atol=1e-12)

        theta, extra = rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 1.0, A.shape[0])
        r = rng.normal(size=(m0, 2))
        P = A[:m0, :nc]
        want = np.linalg.solve(P @ np.diag(theta[:nc]) @ P.T + np.diag(extra[:m0]), r)
        got = lp._packing_solver(theta[:nc], extra[:m0])(r)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        r = rng.normal(size=A.shape[0])
        want = np.linalg.solve(A @ np.diag(theta) @ A.T + np.diag(extra), r)
        np.testing.assert_allclose(lp.normal_solver(theta, extra)(r), want, rtol=0.0, atol=1e-9)


def _lp_cells(s, kind):
    """Cells, costs and upper bounds of one relaxation, built afresh."""
    rate = kind == "ratelimit_lp"
    mask = (s.availability > 0.0)[s.edge_recipient]
    if not rate:
        mask &= s.donor_schedule[s.edge_donor] != 0
    ce, ct = np.nonzero(mask)
    p = s.availability[s.edge_recipient[ce], ct]
    cost = s.weights[ce, ct] * (p if kind == "nadapopt_lp" else 1.0)
    ub = np.ones(ce.size) if kind == "nadapopt_lp" else p
    return ce, ct, cost, ub


def _highs_objective(s, kind, gamma):
    """Optimum by scipy's HiGHS, from one row per donor and window end."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    ce, ct, cost, ub = _lp_cells(s, kind)
    nc = ce.size
    if nc == 0:
        return 0.0
    width = s.rate_limit if kind == "ratelimit_lp" else 1
    rows, cols, vals, rhs = [], [], [], []
    for u in range(s.n_donors):
        for t in range(s.horizon):
            sel = np.flatnonzero((s.edge_donor[ce] == u) & (ct > t - width) & (ct <= t))
            if sel.size:
                rows += [len(rhs)] * sel.size
                cols += sel.tolist()
                vals += [1.0] * sel.size
                rhs.append(1.0)
    m = s.normalization
    band = np.flatnonzero(m > 0.0) if gamma > 0.0 and m is not None else []
    if len(band) >= 2:
        # One auxiliary L (column nc): gamma s_v <= L <= s_v.
        for v in band:
            sel = np.flatnonzero(s.edge_recipient[ce] == v)
            q = cost[sel] / m[v]
            for sign in (-1.0, gamma):
                rows += [len(rhs)] * (sel.size + 1)
                cols += sel.tolist() + [nc]
                vals += (sign * q).tolist() + [-1.0 if sign > 0 else 1.0]
                rhs.append(0.0)
        cost, ub = np.append(cost, 0.0), np.append(ub, np.inf)
    A = coo_matrix((vals, (rows, cols)), shape=(len(rhs), cost.size))
    res = linprog(-cost, A_ub=A.tocsr(), b_ub=rhs, bounds=list(zip(np.zeros(cost.size), ub)))
    assert res.status == 0
    return -res.fun


def _check_certificate(s, sol, kind):
    """Bound above the objective, gap <= 1e-7, and a feasible x."""
    gap = (sol.bound - sol.objective) / (1.0 + abs(sol.objective))
    assert -1e-12 <= gap <= 1e-7
    _check_feasible(s, sol, kind)


def _check_feasible(s, sol, kind):
    """x in [0, ub], every window within 1e-9, the band within 1e-9."""
    ce, ct, _, ub = _lp_cells(s, kind)
    upper = np.zeros_like(sol.x)
    upper[ce, ct] = ub
    assert (sol.x >= 0.0).all() and (sol.x <= upper).all()
    mass = _per_donor_step(s, sol)
    width = s.rate_limit if kind == "ratelimit_lp" else 1
    for t in range(s.horizon):
        assert (mass[:, max(0, t - width + 1) : t + 1].sum(axis=1) <= 1.0 + 1e-9).all()
    if sol.gamma > 0.0 and np.isfinite(sol.s).sum() >= 2:
        scored = sol.s[np.isfinite(sol.s)]
        assert sol.gamma * scored.max() <= scored.min() + 1e-9


@pytest.mark.parametrize(
    "gamma, route",
    [pytest.param(g, "interior", id=f"{g}") for g in (0.0, 0.5, 1.0)]
    + [pytest.param(g, "simplex", id=f"simplex-{g}") for g in (0.0, 0.5, 1.0)],
)
def test_interior_point_matches_highs_on_random_instances(gamma, route, request):
    # The dense simplex runs on the same rows and band as the interior
    # point, so both routes answer to the independent HiGHS model.
    pytest.importorskip("scipy")
    if route == "interior":
        request.getfixturevalue("interior")
    rng = np.random.default_rng(700 + int(gamma * 10))
    for _ in range(10):
        s = random_instance(rng, max_donors=4, max_steps=8, cell_budget=None)
        # Days without demand leave gaps in the donors' windows.
        gaps = rng.random(s.availability.shape) < 0.4
        s = dataclasses.replace(s, availability=np.where(gaps, 0.0, s.availability))
        for kind, solve in _LP_KINDS.items():
            sol = solve(s, gamma)
            want = _highs_objective(s, kind, gamma)
            assert sol.objective == pytest.approx(want, rel=1e-7, abs=1e-9)
            # The dense simplex (no iterations counted), a closed form (0)
            # or the interior point: each certifies its answer.
            assert sol.iterations is not None or route == "simplex"
            _check_certificate(s, sol, kind)


def test_interior_point_matches_highs_on_city_small():
    pytest.importorskip("scipy")
    s = generate_city(load_bundled_config("city_small"))
    s = with_normalization(s, np.random.default_rng(3).uniform(0.5, 2.0, s.n_recipients))
    for gamma in (0.0, 0.5, 1.0):
        for kind, solve in _LP_KINDS.items():
            sol = solve(s, gamma)
            # Unbanded one-step windows have a closed form; the rest are
            # above the simplex cut-off.
            closed = gamma == 0.0 and kind != "ratelimit_lp"
            assert sol.iterations == 0 if closed else sol.iterations > 0
            want = _highs_objective(s, kind, gamma)
            assert sol.objective == pytest.approx(want, rel=1e-7)
            _check_certificate(s, sol, kind)


def test_interior_point_takes_the_equality_band_and_no_band(interior):
    # gamma = 1 holds s_A = s_B = L with free duals: the hand solution.
    s = two_recipient_instance()
    sol = solve_nadapopt_lp(s, 1.0)
    assert sol.objective == pytest.approx(0.95, abs=1e-8)
    assert sol.s == pytest.approx([1.0, 1.0], abs=1e-8)
    _check_certificate(s, sol, "nadapopt_lp")
    # One scored recipient is no band: gamma 0.5 solves the gamma 0 LP.
    zeroed = dataclasses.replace(s, normalization=np.array([0.0, 0.5]))
    banded, free = solve_nadapopt_lp(zeroed, 0.5), solve_nadapopt_lp(zeroed, 0.0)
    assert banded.objective == pytest.approx(free.objective, abs=1e-9)
    assert banded.objective == pytest.approx(1.0, abs=1e-8)


def test_the_simplex_certifies_its_relaxation():
    sol = solve_nadapopt_lp(two_recipient_instance(), 1.0)
    assert sol.iterations is None and sol.bound >= sol.objective
    assert (sol.bound - sol.objective) / (1.0 + sol.objective) <= 1e-7
    r = all_ones_realization(two_recipient_instance())
    assert solve_offline_opt(two_recipient_instance(), r, 0.5).iterations >= 1


# ---------------------------------------------------------------------------
# the closed forms


def closed_form_instance(rng, rate_limit, one_scored):
    """At most 8 donor-steps, weights in {0, 0.25, 0.5, 1}, availability in {0, 0.3, 0.6}.

    Coarse weights give ties and zero cells, and a dynamic recipient open
    with p <= 0.6 leaves a (donor, step) with one open edge below 1 in
    total. With ``one_scored`` only the first recipient has a score, so a
    gamma > 0 solve drops its band.
    """
    while True:
        U, T = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if U * T <= 8:
            break
    V = int(rng.integers(1, 4))
    edges = [(f"u{i}", f"v{j}") for i in range(U) for j in range(V) if rng.random() < 0.7]
    edges = edges or [("u0", "v0")]
    dynamic = rng.random(V) < 0.5
    return build_scenario(
        donors=[
            Donor(f"u{i}", 0.0, 0.0, first_notify=int(rng.integers(1, rate_limit + 1)))
            for i in range(U)
        ],
        recipients=[
            Recipient(f"v{j}", 0.0, 0.0, kind="dynamic" if dynamic[j] else "static")
            for j in range(V)
        ],
        edges=edges,
        weights=[rng.choice([0.0, 0.25, 0.5, 1.0], size=T) for _ in edges],
        availability={
            f"v{j}": rng.choice([0.0, 0.3, 0.6], size=T) for j in range(V) if dynamic[j]
        },
        horizon=T,
        rate_limit=rate_limit,
        normalization={
            f"v{j}": 0.0 if one_scored and j else float(rng.uniform(0.2, 1.5))
            for j in range(V)
        },
    )


def _dense_optimum(s, ce, ct, cost, ub, width, integral):
    """The same packing model, solved by the dense simplex or branch and bound."""
    if ce.size == 0:
        return 0.0
    _, _, rows, cols = _window_cells(s, ce, ct, width)
    A = np.zeros((rows[-1] + 1, ce.size))
    A[rows, cols] = 1.0
    b = np.ones(A.shape[0])
    if integral:
        return float(cost @ branch_and_bound(cost, A, b, ub, ce.size)[0])
    return solve_lp(cost, A, b, ub).objective


def _matched(s, sol):
    """(U, T) matched edge indices of an integral solution."""
    matched = np.full((s.n_donors, s.horizon), -1)
    e, t = np.nonzero(sol.x)
    matched[s.edge_donor[e], t] = e
    return matched


@pytest.mark.parametrize("rate_limit", [1, 2, 3, 9])
def test_closed_forms_match_highs_the_simplex_and_enumeration(rate_limit):
    # Unbanded solves with one-step windows are unit knapsacks, and the
    # rate-limited integral solve at K > 1 is the per-donor program; K = 9
    # is past every horizon here. Each answer carries a bound within
    # MAX_CERTIFIED_GAP of its objective.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(500 + rate_limit)
    for i in range(30):
        one_scored = i % 3 == 2
        s = closed_form_instance(rng, rate_limit, one_scored)
        gamma = 0.5 if one_scored else 0.0
        for kind, solve in _LP_KINDS.items():
            if kind == "ratelimit_lp" and rate_limit > 1:
                continue  # windows of K steps: the simplex or the interior point
            sol = solve(s, gamma)
            assert sol.iterations == 0
            _check_certificate(s, sol, kind)
            assert sol.bound >= sol.objective - 1e-12
            assert sol.objective == pytest.approx(_highs_objective(s, kind, gamma), abs=1e-9)
            width = rate_limit if kind == "ratelimit_lp" else 1
            dense = _dense_optimum(s, *_lp_cells(s, kind), width, False)
            assert sol.objective == pytest.approx(dense, abs=1e-9)
        r = random_realization(s, rng)
        for solve, mode in ((solve_offline_opt, MODE_FIXED), (solve_ratelimit_opt, MODE_RATE)):
            sol = solve(s, r, gamma)
            assert sol.iterations == 0 and np.isin(sol.x, (0.0, 1.0)).all()
            gap = (sol.bound - sol.objective) / (1.0 + sol.objective)
            assert -1e-12 <= gap <= solver.MAX_CERTIFIED_GAP
            outcome = outcome_from_matches(s, _matched(s, sol))
            assert validate_outcome(s, outcome, r, mode) == []
            assert outcome.total_weight == pytest.approx(sol.objective, abs=1e-12)
            want, _ = brute_force_opt(s, r, gamma, mode=mode)
            assert sol.objective == pytest.approx(want, abs=1e-12)
            ce, ct = np.nonzero((r.available != 0)[s.edge_recipient])
            if mode == MODE_FIXED:
                keep = s.donor_schedule[s.edge_donor[ce], ct] != 0
                ce, ct = ce[keep], ct[keep]
            width = rate_limit if mode == MODE_RATE else 1
            dense = _dense_optimum(s, ce, ct, s.weights[ce, ct], np.ones(ce.size), width, True)
            assert sol.objective == pytest.approx(dense, abs=1e-9)


def test_the_knapsacks_fill_heaviest_first_and_leave_zero_cells_empty():
    # u's step holds A (0.5, p = 0.6), B (0.5, p = 0.3), C (1.0, p = 0.3)
    # and D (0, p = 1): C fills 0.3, then the tied A and B in edge order,
    # A to 0.6 and B to the remaining 0.1; the capacity runs out at cost
    # 0.5. w's one cell, p = 0.6 < 1, leaves its knapsack a dual of 0.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0), Donor("w", 0.0, 0.0)],
        recipients=[
            Recipient("A", 0.0, 0.0, kind="dynamic"),
            Recipient("B", 0.0, 0.0, kind="dynamic"),
            Recipient("C", 0.0, 0.0, kind="dynamic"),
            Recipient("D", 0.0, 0.0),
        ],
        edges=[("u", "A"), ("u", "B"), ("u", "C"), ("u", "D"), ("w", "A")],
        weights=[0.5, 0.5, 1.0, 0.0, 0.25],
        availability={"A": 0.6, "B": 0.3, "C": 0.3},
        horizon=1,
        rate_limit=1,
    )
    sol = solve_fixedtime_lp(s, 0.0)
    assert sol.x[:, 0] == pytest.approx([0.6, 0.1, 0.3, 0.0, 0.6], abs=1e-15)
    assert sol.objective == pytest.approx(0.3 + 0.35 + 0.15, abs=1e-15)
    # Duals 0.5 and 0: 0.5 + 0.3 (1.0 - 0.5) + 0.6 * 0.25.
    assert sol.bound == pytest.approx(0.5 + 0.15 + 0.15, abs=1e-15)


def test_the_rate_limited_optimum_solves_at_city_scale():
    # Branch and bound refused riverton at gamma 0: its dense tableau would
    # be 2160 x 10611. The per-donor program answers it, at least as well
    # as Max does on the same realization.
    s = generate_city(load_bundled_config("riverton"))
    r = draw_realization(s, np.random.default_rng([0, 11]))
    start = time.perf_counter()
    sol = solve_ratelimit_opt(s, r, 0.0)
    assert time.perf_counter() - start < 1.0
    assert sol.iterations == 0 and np.isin(sol.x, (0.0, 1.0)).all()
    assert (sol.bound - sol.objective) / (1.0 + sol.objective) <= solver.MAX_CERTIFIED_GAP
    outcome = outcome_from_matches(s, _matched(s, sol))
    assert validate_outcome(s, outcome, r, MODE_RATE) == []
    assert outcome.total_weight == pytest.approx(sol.objective, rel=1e-12)
    greedy = run_policy(s, PolicySpec("max", mode=MODE_RATE), r, np.random.default_rng(0))
    assert greedy.outcome.total_weight <= sol.objective + 1e-9


def test_interior_point_repeats_bit_for_bit():
    s = generate_city(load_bundled_config("city_small"))
    s = with_normalization(s, np.ones(s.n_recipients))
    for solve in (solve_fixedtime_lp, solve_ratelimit_lp):
        first, second = solve(s, 0.5), solve(s, 0.5)
        assert np.array_equal(first.x, second.x) and first.bound == second.bound


def test_an_interior_point_solve_loads_no_scipy():
    # Importing scipy.optimize alone adds about 47 MB of peak memory, which
    # the solver must not pay: the interior point is numpy only. Nor does a
    # desk-scale solve, which the simplex takes, load the interior point:
    # where no bytecode is cached, each imported module is compiled anew.
    code = (
        "import sys, numpy as np, donormatch as dm\n"
        "d = dm.build_scenario([dm.Donor('u', 0.0, 0.0)], [dm.Recipient('A', 0.0, 0.0),"
        " dm.Recipient('B', 0.0, 0.1)], [('u', 'A'), ('u', 'B')], [0.9, 1.0], None, 1, 1,"
        " {'A': 0.45, 'B': 0.5})\n"
        "assert dm.solve_nadapopt_lp(d, 0.5).iterations is None\n"
        "print('donormatch.ipm' in sys.modules)\n"
        "s = dm.generate_city(dm.load_bundled_config('city_small'))\n"
        "s = dm.with_normalization(s, np.ones(s.n_recipients))\n"
        "assert dm.solve_fixedtime_lp(s, 0.5).iterations > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["False", "[]"]
