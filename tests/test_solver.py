"""Solver layer: hand-solved instances, cross-formulation relations, invariants."""

from __future__ import annotations

import dataclasses

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
    DemandRealization,
    Donor,
    Recipient,
    build_scenario,
    validate_scenario,
)
from donormatch.oracle import brute_force_opt
from donormatch.solver import (
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_offline_opt,
    solve_ratelimit_lp,
    solve_ratelimit_opt,
)
from donormatch.windows import _window_cells


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


def test_rate_limit_one_solves_the_fixed_time_lp():
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
    zeroed = dataclasses.replace(
        two_recipient_instance(), normalization=np.array([0.0, 0.5])
    )
    with pytest.raises(ValueError, match="normalization"):
        solve_nadapopt_lp(zeroed, gamma=0.5)
    # gamma = 0 runs without scores; normalized totals are just undefined.
    sol = solve_nadapopt_lp(bare, gamma=0.0)
    assert np.isnan(sol.s).all()


def test_realization_shape_mismatch_rejected():
    s = two_recipient_instance()
    with pytest.raises(ValueError, match="shape"):
        solve_offline_opt(s, DemandRealization(np.ones((3, 1))), gamma=0.0)


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
        rows, cols = _window_cells(s, ce, ct, width)
        got = [sorted(cols[rows == i].tolist()) for i in np.unique(rows)]
        # One row per donor and step, skipping empty windows and repeats
        # of the donor's last row.
        want = []
        for u in range(s.n_donors):
            last = None
            for tau in range(s.horizon):
                mine = (s.edge_donor[ce] == u) & (ct > tau - width) & (ct <= tau)
                cells = np.flatnonzero(mine).tolist()
                if cells and cells != last:
                    want.append(cells)
                    last = cells
        assert got == want
        assert np.array_equal(np.unique(rows), np.arange(len(want)))


@pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
def test_solution_invariants_on_random_instances(gamma):
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
