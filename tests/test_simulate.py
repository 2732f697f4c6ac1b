"""Simulation driver: realization draws, single runs, Monte Carlo aggregation."""

from __future__ import annotations

import dataclasses
from statistics import NormalDist

import numpy as np
import pytest

from conftest import (
    all_ones_realization,
    random_instance,
    random_realization,
    reference_draw,
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
    matched_weights,
    validate_outcome,
    weight_total,
    with_normalization,
)
from donormatch import simulate
from donormatch.policies import (
    PolicySpec,
    _match_edges,
    decision_cells,
    default_alpha,
    estimate_beta,
    nadaplp_plan,
    nadaplp_rate_plan,
    nadapopt_plan,
    plan_probabilities,
)
from donormatch.simulate import (
    _CTR_DECIDE,
    _CTR_PLAN,
    _CTR_REALIZATION,
    _draws,
    _stream,
    _trial_key,
    draw_realization,
    estimate_normalization,
    monte_carlo_evaluate,
    run_policy,
)
from donormatch.solver import (
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_ratelimit_lp,
)
from donormatch.synthgen import generate_city, load_bundled_config
from donormatch.windows import _prior_sum


# ---------------------------------------------------------------------------
# realization draws


def test_draw_realization_endpoints():
    s = two_recipient_instance()  # both recipients static
    r = draw_realization(s, np.random.default_rng(1))
    assert (r.available == 1).all()
    s0 = single_edge_instance(p=0.0)
    r0 = draw_realization(s0, np.random.default_rng(1))
    assert (r0.available == 0).all()


def test_draw_realization_matches_the_distribution():
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0, kind="dynamic")],
        edges=[("u", "v")],
        weights=[1.0],
        availability={"v": [0.9, 0.1]},
        horizon=2,
        rate_limit=1,
    )
    rng = np.random.default_rng(2)
    n = 10_000
    hits = np.zeros(2)
    for _ in range(n):
        hits += draw_realization(s, rng).available[0]
    for t, p in enumerate((0.9, 0.1)):
        se = np.sqrt(p * (1 - p) / n)
        assert abs(hits[t] / n - p) < 3 * se


# ---------------------------------------------------------------------------
# single runs


def test_run_policy_max_takes_the_heavy_edge():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    tr = run_policy(s, PolicySpec("max"), r, np.random.default_rng(3))
    assert tr.outcome.total_weight == pytest.approx(1.0)
    assert tr.outcome.recipient_weight.tolist() == [0.0, 1.0]
    assert tr.outcome.matched.tolist() == [[s.edges.index(("u", "B"))]]
    assert validate_outcome(s, tr.outcome, r) == []


def test_run_policy_needs_a_plan_for_plan_kinds():
    s = two_recipient_instance()
    with pytest.raises(ValueError, match="requires"):
        run_policy(s, PolicySpec("nadapopt"), all_ones_realization(s), np.random.default_rng(3))


def test_run_policy_is_deterministic_in_the_generator_state():
    rng = np.random.default_rng(4)
    s = random_instance(rng)
    r = random_realization(s, rng)
    for spec in (PolicySpec("rand"), PolicySpec("randmax", gamma=0.5)):
        a = run_policy(s, spec, r, np.random.default_rng(99))
        b = run_policy(s, spec, r, np.random.default_rng(99))
        assert np.array_equal(a.outcome.matched, b.outcome.matched)


def decided_cells(s, mode):
    """(U, T) booleans: the cells a trial may decide, every cell in rate mode."""
    return s.donor_schedule != 0 if mode == MODE_FIXED else np.ones(s.donor_schedule.shape, bool)


def reference_matches(s, policy, avail, plan, uniforms):
    """The decision rules read cell by cell: (U, T) matched edge indices.

    ``plan`` is (U, T). ``uniforms`` is (cells, 2): counting the cells the
    mode may decide donor by donor, each over its steps, the i-th reads
    row i.
    """
    decided = decided_cells(s, policy.mode)
    row = np.cumsum(decided).reshape(decided.shape) - 1
    coin = {"rand": 1.0, "max": 0.0}.get(policy.kind, policy.gamma)
    next_free = np.zeros(s.n_donors, dtype=np.int64)
    matched = np.full((s.n_donors, s.horizon), -1, dtype=np.int64)
    for t in range(s.horizon):
        for u in range(s.n_donors):
            if policy.mode == MODE_FIXED and not s.donor_schedule[u, t]:
                continue
            if policy.mode == MODE_RATE and t < next_free[u]:
                continue
            e = -1 if plan is None else plan[u, t]
            if e < 0 or not avail[s.edge_recipient[e], t]:
                e = -1
                up = [f for f in s.donor_edges[u] if avail[s.edge_recipient[f], t]]
                if policy.kind in ("rand", "max", "randmax", "adaptmatch") and up:
                    coin_draw, pick_draw = uniforms[row[u, t]]
                    if not coin_draw < coin:
                        best = max(s.weights[f, t] for f in up)
                        up = [f for f in up if s.weights[f, t] == best]
                    e = up[min(int(pick_draw * len(up)), len(up) - 1)]
            if e >= 0:
                matched[u, t] = e
                next_free[u] = t + s.rate_limit
    return matched


def test_run_policy_matches_the_cell_by_cell_rules():
    # Ties included: weights on a coarse grid make equal maxima common.
    rng = np.random.default_rng(21)
    kinds = {
        MODE_FIXED: ("rand", "max", "randmax", "nadapopt", "adaptmatch"),
        MODE_RATE: ("rand", "max", "randmax", "nadaplp_rate"),
    }
    for trial in range(30):
        s = random_instance(rng, max_donors=4, max_recipients=4, max_steps=6, cell_budget=None)
        s = dataclasses.replace(s, weights=np.round(s.weights * 2) / 2)
        r = random_realization(s, rng)
        plan = np.full((s.n_donors, s.horizon), -1, dtype=np.int64)
        for u, eu in enumerate(s.donor_edges):
            for t in range(s.horizon):
                if eu.size and rng.random() < 0.6:
                    plan[u, t] = rng.choice(eu)
        for mode in (MODE_FIXED, MODE_RATE):
            for kind in kinds[mode]:
                spec = PolicySpec(kind, gamma=0.4, mode=mode)
                cells = int(decided_cells(s, mode).sum())
                uniforms = np.random.default_rng(trial).random((cells, 2))
                want = reference_matches(
                    s, spec, r.available, plan if spec.needs_plan else None, uniforms
                )
                got = run_policy(
                    s, spec, r, np.random.default_rng(trial), plan=plan
                )
                assert np.array_equal(got.outcome.matched, want), (trial, mode, kind)


def batch_instance(K):
    """24 trials' draws on one scenario, for checking one kernel call per batch.

    One kernel call holds 24 different trials, so a trial row or a (trial,
    donor) pair mixed up in the gather or the step walk shows. u3 has no
    edges, v3 is never up, weights on {0.5, 1} tie often, plans leave about
    a third of their cells at -1; K = 9 exceeds the horizon of 6. Donors
    start on day 1 or 2, so fixed-time schedules differ between donors.
    """
    rng = np.random.default_rng(30 + K)
    U, V, T, n = 4, 4, 6, 24
    edges = [(f"u{i}", f"v{j}") for i in range(U - 1) for j in range(V) if (i + j) % V != 3]
    s = build_scenario(
        donors=[Donor(f"u{i}", 0.0, 0.0, first_notify=1 + i % 2) for i in range(U)],
        recipients=[Recipient(f"v{j}", 0.0, 0.0) for j in range(V)],
        edges=edges,
        weights=rng.integers(1, 3, size=(len(edges), T)) / 2.0,
        availability=None,
        horizon=T,
        rate_limit=K,
    )
    assert s.donor_edges[U - 1].size == 0
    avail = rng.random((n, V, T)) < 0.7
    avail[:, V - 1] = False
    uniforms = rng.random((n, U, T, 2))
    plans = np.full((n, U, T), -1, dtype=np.int64)
    for u, eu in enumerate(s.donor_edges):
        if eu.size:
            pick = rng.choice(eu, size=(n, T))
            plans[:, u] = np.where(rng.random((n, T)) < 0.65, pick, -1)
    return s, avail, uniforms, plans


def assert_batch_matches_the_cell_by_cell_rules(K, mode, kinds):
    s, avail, uniforms, plans = batch_instance(K)
    # The kernel reads each trial's streams over the decision cells only.
    n, cells = len(avail), decision_cells(s, mode)
    uniforms = uniforms.reshape(n, -1, 2)[:, cells]
    for kind in kinds:
        spec = PolicySpec(kind, gamma=0.4, mode=mode)
        plan = plans if spec.needs_plan else None
        assignment = None if plan is None else plan.reshape(n, -1)[:, cells]
        got = _match_edges(s, mode, kind, spec.gamma, avail, assignment, uniforms)
        for j in range(n):
            want = reference_matches(
                s, spec, avail[j], None if plan is None else plan[j], uniforms[j]
            )
            assert np.array_equal(got[j], want), (K, kind, j)


@pytest.mark.parametrize("K", [1, 2, 9])
def test_a_rate_batch_matches_the_cell_by_cell_rules_in_every_trial(K):
    kinds = ("rand", "max", "randmax", "nadaplp_rate")
    assert_batch_matches_the_cell_by_cell_rules(K, MODE_RATE, kinds)


@pytest.mark.parametrize("K", [1, 2, 9])
def test_a_fixed_time_batch_matches_the_cell_by_cell_rules_in_every_trial(K):
    kinds = ("rand", "max", "randmax", "nadapopt", "adaptmatch")
    assert_batch_matches_the_cell_by_cell_rules(K, MODE_FIXED, kinds)


# ---------------------------------------------------------------------------
# aggregation


def test_rand_mean_total_on_the_worked_instance():
    s = two_recipient_instance()
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("rand"),
        10_000,
        realization_mode="fixed",
        rng=np.random.default_rng(5),
        realization=all_ones_realization(s),
    )
    assert agg.std_err_total > 0
    assert abs(agg.mean_total_weight - 0.95) < 3 * agg.std_err_total
    for vid, want in (("A", 0.45), ("B", 0.5)):
        got = agg.mean_recipient_weight[vid]
        assert abs(got - want) < 3 * max(agg.std_err_recipient[vid], 1e-12)


def fold_matched_weights(s, matched, donor_first=False):
    """Y_v of (U, T) matched edges, added one by one over t, then u."""
    y = [0.0] * s.n_recipients
    cells = [(u, t) for t in range(s.horizon) for u in range(s.n_donors)]
    for u, t in sorted(cells) if donor_first else cells:
        e = matched[u, t]
        if e >= 0:
            v = s.edge_recipient[e]
            y[v] = y[v] + float(s.weights[e, t])
    return y


def mixed_magnitude_instance(rng, U=30, T=4):
    """Every donor reaches v0, most also v1; weights span 16 decades."""
    edges = [(f"u{i}", "v0") for i in range(U)] + [(f"u{i}", "v1") for i in range(0, U, 3)]
    return build_scenario(
        donors=[Donor(f"u{i}", 0.0, 0.0) for i in range(U)],
        recipients=[Recipient("v0", 0.0, 0.0), Recipient("v1", 0.0, 0.0)],
        edges=edges,
        weights=rng.random((len(edges), T)) * 10.0 ** rng.integers(-8, 8, size=(len(edges), T)),
        availability=None,
        horizon=T,
        rate_limit=1,
    )


def test_recipient_totals_add_in_step_then_donor_order(monkeypatch):
    # Weights over 16 decades on one recipient make the sum depend on its
    # order, so a pairwise or donor-first sum fails here; the check that
    # the donor-first fold differs shows the data can tell.
    rng = np.random.default_rng(19)
    s = mixed_magnitude_instance(rng)
    table = np.pad(s.donor_edge_table, ((0, 0), (0, 1)), constant_values=-1)
    pick = rng.integers(0, table.shape[1], size=(50, s.n_donors, s.horizon))
    matched = table[np.arange(s.n_donors)[:, None], pick]
    want = [fold_matched_weights(s, m) for m in matched]
    assert matched_weights(s, matched).tolist() == want
    assert matched_weights(s, matched[7]).tolist() == want[7]
    assert [fold_matched_weights(s, m, donor_first=True) for m in matched] != want

    monkeypatch.setattr(simulate, "CHUNK_CELLS", 7 * s.n_donors * s.horizon)
    agg = monte_carlo_evaluate(
        s, PolicySpec("rand"), 30, rng=np.random.default_rng(4), keep_trials=True
    )
    kept = [tr.outcome.matched for tr in agg.trials]
    want = [fold_matched_weights(s, m) for m in kept]
    assert agg.recipient_totals.tolist() == want
    assert agg.totals.tolist() == weight_total(np.array(want)).tolist()
    counts = np.zeros((s.n_edges, s.horizon))
    for m in kept:
        for u, t in zip(*np.nonzero(m >= 0)):
            counts[m[u, t], t] += 1
    assert np.array_equal(agg.match_counts, counts)


def test_deterministic_policy_has_zero_standard_error():
    s = two_recipient_instance()
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("max"),
        50,
        realization_mode="fixed",
        rng=np.random.default_rng(6),
        realization=all_ones_realization(s),
    )
    assert agg.trial_count == 50
    assert agg.std_err_total == 0.0
    assert agg.mean_total_weight == pytest.approx(1.0)
    assert agg.match_counts[s.edges.index(("u", "B")), 0] == 50


def test_a_single_trial_reports_zero_standard_errors():
    s = two_recipient_instance()
    agg = monte_carlo_evaluate(s, PolicySpec("rand"), 1, rng=np.random.default_rng(6))
    assert agg.trial_count == 1 and agg.mean_total_weight > 0
    assert agg.std_err_total == 0.0
    assert agg.std_err_recipient == {"A": 0.0, "B": 0.0}


def test_identical_seeds_reproduce_every_trial():
    rng = np.random.default_rng(7)
    s = random_instance(rng)
    runs = []
    for _ in range(2):
        runs.append(
            monte_carlo_evaluate(
                s,
                PolicySpec("randmax", gamma=0.5),
                100,
                realization_mode="resampled",
                rng=np.random.default_rng(1234),
                keep_trials=True,
            )
        )
    a, b = runs
    assert np.array_equal(a.totals, b.totals)
    for ta, tb in zip(a.trials, b.trials):
        assert np.array_equal(ta.outcome.matched, tb.outcome.matched)
        assert ta.seed == tb.seed


def test_mode_rules_hold_on_every_trial():
    # Plan kinds run at gamma 0 so that no normalization scores are needed.
    kinds = {
        MODE_FIXED: ("rand", "max", "randmax", "nadaplp", "nadapopt", "adaptmatch"),
        MODE_RATE: ("rand", "max", "randmax", "nadaplp_rate"),
    }
    rng = np.random.default_rng(8)
    for _ in range(4):
        s = random_instance(rng)
        r = random_realization(s, rng)
        for mode in (MODE_FIXED, MODE_RATE):
            for kind in kinds[mode]:
                gamma = 0.5 if kind == "randmax" else 0.0
                agg = monte_carlo_evaluate(
                    s,
                    PolicySpec(kind, gamma=gamma, mode=mode),
                    30,
                    realization_mode="fixed",
                    rng=rng,
                    realization=r,
                    keep_trials=True,
                )
                counts = np.zeros_like(agg.match_counts)
                for j, tr in enumerate(agg.trials):
                    assert validate_outcome(s, tr.outcome, r, mode=mode) == []
                    assert np.array_equal(tr.outcome.recipient_weight, agg.recipient_totals[j])
                    ui, tau = np.nonzero(tr.outcome.matched >= 0)
                    counts[tr.outcome.matched[ui, tau], tau] += 1
                assert np.array_equal(agg.match_counts, counts)
                assert agg.recipient_totals.sum(axis=1) == pytest.approx(agg.totals, abs=1e-12)
                matched_weight = (agg.match_counts * s.weights).sum()
                assert matched_weight == pytest.approx(agg.totals.sum(), abs=1e-9)


def test_policy_means_stay_under_the_relaxation_bound():
    rng = np.random.default_rng(9)
    for _ in range(5):
        s = random_instance(rng)
        bound = solve_fixedtime_lp(s, 0.0).objective
        for spec in (PolicySpec("rand"), PolicySpec("max")):
            agg = monte_carlo_evaluate(
                s, spec, 300, realization_mode="resampled", rng=rng
            )
            assert agg.mean_total_weight <= bound + 3 * agg.std_err_total + 1e-9


def test_plan_policies_run_end_to_end():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    for spec in (
        PolicySpec("nadaplp", gamma=0.5),
        PolicySpec("nadapopt", gamma=0.5),
        PolicySpec("adaptmatch", gamma=0.5),
    ):
        agg = monte_carlo_evaluate(
            s,
            spec,
            200,
            realization_mode="fixed",
            rng=np.random.default_rng(10),
            realization=r,
            keep_trials=True,
        )
        assert agg.trial_count == 200
        for tr in agg.trials:
            assert validate_outcome(s, tr.outcome, r) == []


def test_each_trials_plan_is_the_samplers_draw_from_its_plan_stream():
    # monte_carlo_evaluate draws a chunk's plans at once; trial j must still
    # be run_policy on its own realization and decision streams, with the
    # public sampler's plan from its own plan stream.
    rng = np.random.default_rng(30)
    trials = 2 * 16 + 5  # two full chunks and a partial one
    for _ in range(4):
        s = random_instance(rng)
        fixed, nadapopt, rate = (
            solve_fixedtime_lp(s, 0.5), solve_nadapopt_lp(s, 0.5), solve_ratelimit_lp(s, 0.5)
        )
        alpha_fixed, alpha_rate = default_alpha(s, MODE_FIXED), default_alpha(s, MODE_RATE)
        beta = estimate_beta(s, 0.5, alpha_rate, lp=rate)
        cases = [
            (
                PolicySpec("nadaplp", gamma=0.5),
                lambda g: nadaplp_plan(s, 0.5, alpha_fixed, g, lp=fixed),
            ),
            (PolicySpec("nadapopt", gamma=0.5), lambda g: nadapopt_plan(s, 0.5, g, lp=nadapopt)),
            (
                PolicySpec("adaptmatch", gamma=0.5),
                lambda g: nadapopt_plan(s, 0.5, g, lp=nadapopt),
            ),
            (
                PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE),
                lambda g: nadaplp_rate_plan(s, 0.5, alpha_rate, beta, g, lp=rate),
            ),
        ]
        for policy, sample in cases:
            seed = int(rng.integers(1 << 30))
            agg = monte_carlo_evaluate(
                s,
                policy,
                trials,
                realization_mode="resampled",
                rng=np.random.default_rng(seed),
                beta=beta if policy.kind == "nadaplp_rate" else None,
                keep_trials=True,
            )
            keys = _trial_key(np.random.default_rng(seed), trials)
            for j, key in enumerate(keys):
                r = draw_realization(s, _stream(key, _CTR_REALIZATION))
                plan = sample(_stream(key, _CTR_PLAN))
                want = run_policy(s, policy, r, _stream(key, _CTR_DECIDE), plan=plan)
                assert np.array_equal(agg.trials[j].outcome.matched, want.outcome.matched), (
                    policy.kind,
                    j,
                )


def sparse_rate_city():
    """city_small with no static recipient and one to three edges a donor.

    A free donor can find all its edges closed: it goes unmatched and stays
    free, and which donors are blocked differs between trials, paths the
    bundled rate cities never take.
    """
    cfg = dataclasses.replace(
        load_bundled_config("city_small"), static_fraction=0.0, edge_radius_km=6.0
    )
    s = generate_city(cfg)
    return with_normalization(s, np.ones(s.n_recipients))


def test_rate_trials_match_run_policy_where_free_donors_go_unmatched(monkeypatch):
    # Each trial of the batched kernel must be run_policy on its own streams
    # where free donors go unmatched.
    s = sparse_rate_city()
    K = s.rate_limit
    monkeypatch.setattr(simulate, "CHUNK_CELLS", 16 * s.n_donors * s.horizon)
    rng = np.random.default_rng(33)
    lp = solve_ratelimit_lp(s, 0.5)
    alpha = default_alpha(s, MODE_RATE)
    beta = estimate_beta(s, 0.5, alpha, lp=lp)
    trials = 2 * 16 + 5
    for policy in (
        PolicySpec("rand", mode=MODE_RATE),
        PolicySpec("max", mode=MODE_RATE),
        PolicySpec("randmax", gamma=0.5, mode=MODE_RATE),
        PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE),
    ):
        seed = int(rng.integers(1 << 30))
        agg = monte_carlo_evaluate(
            s, policy, trials, realization_mode="resampled",
            rng=np.random.default_rng(seed), lp=lp, beta=beta, keep_trials=True,
        )
        keys = _trial_key(np.random.default_rng(seed), trials)
        unmatched_free, blocking = 0, set()
        for j, key in enumerate(keys):
            r = draw_realization(s, _stream(key, _CTR_REALIZATION))
            plan = None
            if policy.needs_plan:
                plan = nadaplp_rate_plan(s, 0.5, alpha, beta, _stream(key, _CTR_PLAN), lp=lp)
            want = run_policy(s, policy, r, _stream(key, _CTR_DECIDE), plan=plan)
            got = agg.trials[j].outcome
            assert np.array_equal(got.matched, want.outcome.matched), (policy.kind, j)
            assert agg.totals[j] == want.outcome.total_weight
            assert validate_outcome(s, got, r, MODE_RATE) == []
            blocked = _prior_sum((got.matched >= 0).astype(float), K) > 0
            unmatched_free += int((~blocked & (got.matched < 0)).sum())
            blocking.add(blocked.tobytes())
        assert unmatched_free > 0 and len(blocking) > 1, policy.kind


def test_rate_trials_read_their_streams_as_full_donor_by_step_blocks(monkeypatch):
    # Rate-limited decision cells are every (donor, step) in C order, so a
    # rate trial reads what it would read from its streams drawn as (U, T, 2)
    # and (U, T) blocks: cell (u, t) takes entry [u, t], and rate-mode outputs
    # do not depend on how fixed-time cells are laid out.
    s = sparse_rate_city()
    U, T = s.n_donors, s.horizon
    monkeypatch.setattr(simulate, "CHUNK_CELLS", 8 * U * T)
    lp = solve_ratelimit_lp(s, 0.5)
    alpha = default_alpha(s, MODE_RATE)
    beta = estimate_beta(s, 0.5, alpha, lp=lp)
    probs = plan_probabilities(s, PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE), lp, beta)
    rng = np.random.default_rng(34)
    trials = 19  # two full chunks and a partial one
    for policy in (
        PolicySpec("rand", mode=MODE_RATE),
        PolicySpec("max", mode=MODE_RATE),
        PolicySpec("randmax", gamma=0.5, mode=MODE_RATE),
        PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE),
    ):
        seed = int(rng.integers(1 << 30))
        agg = monte_carlo_evaluate(
            s, policy, trials, realization_mode="resampled",
            rng=np.random.default_rng(seed), lp=lp, beta=beta, keep_trials=True,
        )
        keys = _trial_key(np.random.default_rng(seed), trials)
        for j, key in enumerate(keys):
            avail = draw_realization(s, _stream(key, _CTR_REALIZATION)).available
            plan = None
            if policy.needs_plan:
                plan = reference_draw(s, probs, _stream(key, _CTR_PLAN).random((U, T)))
            uniforms = _stream(key, _CTR_DECIDE).random((U, T, 2))
            want = reference_matches(s, policy, avail, plan, uniforms.reshape(U * T, 2))
            assert np.array_equal(agg.trials[j].outcome.matched, want), (policy.kind, j)


@pytest.mark.parametrize("realization_mode", ["resampled", "fixed"])
@pytest.mark.parametrize(
    "policy",
    [PolicySpec(kind, gamma=0.5, mode=mode) if kind == "randmax" else PolicySpec(kind, mode=mode)
     for mode in (MODE_FIXED, MODE_RATE) for kind in ("rand", "max", "randmax")],
    ids=lambda p: f"{p.mode}-{p.kind}",
)
def test_each_trial_decides_from_its_own_streams(policy, realization_mode, monkeypatch):
    # The myopic kinds read a realization and a decision stream per trial;
    # monte_carlo_evaluate draws them a chunk at a time, yet trial j must be
    # run_policy on its own streams (or on the one fixed realization, drawn
    # from the master generator right after the keys).
    rng = np.random.default_rng(31)
    trials = 2 * 16 + 5  # two full chunks and a partial one
    for _ in range(3):
        s = random_instance(rng)
        monkeypatch.setattr(simulate, "CHUNK_CELLS", 16 * s.n_donors * s.horizon)
        seed = int(rng.integers(1 << 30))
        agg = monte_carlo_evaluate(
            s, policy, trials, realization_mode=realization_mode,
            rng=np.random.default_rng(seed), keep_trials=True,
        )
        master = np.random.default_rng(seed)
        keys = _trial_key(master, trials)
        fixed = draw_realization(s, master)
        for j, key in enumerate(keys):
            r = fixed
            if realization_mode == "resampled":
                r = draw_realization(s, _stream(key, _CTR_REALIZATION))
            want = run_policy(s, policy, r, _stream(key, _CTR_DECIDE))
            assert np.array_equal(agg.trials[j].outcome.matched, want.outcome.matched), j
            assert agg.totals[j] == want.outcome.total_weight


@pytest.mark.parametrize("counter", [_CTR_PLAN, _CTR_REALIZATION, _CTR_DECIDE])
def test_batched_draws_equal_each_keys_own_stream(counter):
    keys = _trial_key(np.random.default_rng(32), 6)
    keys = np.concatenate([keys, keys[5:6], keys[:1]])  # a key twice in a row, and once apart
    # 15 and 7 numbers leave a Philox block part-used between keys
    for shape in [(3, 5), (7,), (2, 3, 2), (0, 4)]:
        got = _draws(keys, counter, shape)
        assert got.shape == (len(keys), *shape)
        for key, block in zip(keys, got):
            assert np.array_equal(block, _stream(key, counter).random(shape))
        one = _draws(keys[4:5], counter, shape)
        assert np.array_equal(one[0], _stream(keys[4], counter).random(shape))


def test_rate_rounding_policy_respects_the_spacing():
    rng = np.random.default_rng(11)
    for _ in range(3):
        s = random_instance(rng)
        agg = monte_carlo_evaluate(
            s,
            PolicySpec("nadaplp_rate", gamma=0.0, mode=MODE_RATE),
            40,
            realization_mode="fixed",
            rng=rng,
            keep_trials=True,
        )
        for tr in agg.trials:
            for row in tr.outcome.matched:
                assert np.all(np.diff(np.flatnonzero(row >= 0)) >= s.rate_limit)


def test_adaptmatch_never_scores_below_its_plan():
    # B is stochastic, so pre-matches on B sometimes miss; the plan policy
    # then scores nothing while the fallback can still take A.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[
            Recipient("A", 0.0, 0.0),
            Recipient("B", 0.0, 0.1, kind="dynamic"),
        ],
        edges=[("u", "A"), ("u", "B")],
        weights=[0.9, 1.0],
        availability={"B": 0.6},
        horizon=1,
        rate_limit=1,
        normalization={"A": 0.63, "B": 0.3},
    )
    results = {}
    for kind in ("nadapopt", "adaptmatch"):
        results[kind] = monte_carlo_evaluate(
            s,
            PolicySpec(kind, gamma=0.5),
            400,
            realization_mode="resampled",
            rng=np.random.default_rng(12),
        )
    gap = results["adaptmatch"].totals - results["nadapopt"].totals
    assert (gap >= -1e-12).all()
    assert gap.sum() > 0  # the fallback actually fires sometimes


# ---------------------------------------------------------------------------
# normalization estimation


def test_estimate_normalization_recovers_the_exact_scores():
    s = two_recipient_instance(normalization=False)
    est = estimate_normalization(
        s, trials=4_000, r=all_ones_realization(s), rng=np.random.default_rng(13)
    )
    assert est["A"] == pytest.approx(0.45, rel=0, abs=1e-12)
    assert est["B"] == pytest.approx(0.5, rel=0, abs=1e-12)


def test_estimate_normalization_single_recipient_equals_rand_mean():
    s = single_edge_instance(p=0.5)
    r = draw_realization(s, np.random.default_rng(14))
    est = estimate_normalization(s, trials=200, r=r, rng=np.random.default_rng(15))
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("rand"),
        200,
        realization_mode="fixed",
        rng=np.random.default_rng(15),
        realization=r,
    )
    assert est["v"] == pytest.approx(agg.mean_total_weight, abs=1e-12)


def test_expectation_protocol_redraws_the_realization():
    s = single_edge_instance(p=0.5)
    est = estimate_normalization(
        s,
        trials=4_000,
        rng=np.random.default_rng(16),
        protocol="expectation",
    )
    assert est["v"] == 0.5


@pytest.mark.parametrize("mode", [MODE_FIXED, MODE_RATE])
def test_rand_monte_carlo_meets_the_exact_scores_on_a_city(mode):
    # The oracle cannot enumerate city_small; the closed form can. Each
    # recipient's Monte Carlo mean lies within a Bonferroni z (0.1 % over
    # both modes and every recipient) of its standard errors of the exact score.
    s = generate_city(load_bundled_config("city_small"))
    exact = estimate_normalization(s, protocol="expectation", mode=mode)
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("rand", mode=mode),
        4_000,
        realization_mode="resampled",
        rng=np.random.default_rng(17),
    )
    z = NormalDist().inv_cdf(1.0 - 0.001 / (4 * s.n_recipients))
    for v, m in exact.items():
        assert abs(agg.mean_recipient_weight[v] - m) <= z * agg.std_err_recipient[v], v


def test_argument_validation():
    s = two_recipient_instance()
    with pytest.raises(ValueError, match="protocol"):
        estimate_normalization(s, protocol="sometimes")
    with pytest.raises(ValueError, match="realization"):
        estimate_normalization(s, protocol="fixed")
    with pytest.raises(ValueError, match=r"realization shape \(1, 1\)"):
        estimate_normalization(s, r=DemandRealization(np.ones((1, 1), np.int8)))
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_evaluate(s, PolicySpec("rand"), 0)
    with pytest.raises(ValueError, match="realization_mode"):
        monte_carlo_evaluate(s, PolicySpec("rand"), 1, realization_mode="bogus")


@pytest.mark.parametrize(
    "spec",
    [
        PolicySpec("randmax", gamma=0.5),
        PolicySpec("nadapopt"),
        PolicySpec("rand", mode=MODE_RATE),
        PolicySpec("nadaplp_rate", mode=MODE_RATE),
    ],
    ids=lambda spec: f"{spec.mode}-{spec.kind}",
)
def test_results_do_not_depend_on_the_chunk_budget(spec, monkeypatch):
    rng = np.random.default_rng(12)
    s = random_instance(rng, max_donors=4, max_recipients=4, max_steps=6, cell_budget=None)
    cells, trials = s.n_donors * s.horizon, 23
    runs = []
    # one trial a chunk, three a chunk with a short last one, all at once
    for budget in (cells, 3 * cells + 1, trials * cells):
        monkeypatch.setattr(simulate, "CHUNK_CELLS", budget)
        runs.append(
            monte_carlo_evaluate(
                s, spec, trials, realization_mode="resampled",
                rng=np.random.default_rng(5), keep_trials=True,
            )
        )
    want = runs[-1]
    for got in runs[:-1]:
        assert np.array_equal(got.totals, want.totals)
        assert np.array_equal(got.recipient_totals, want.recipient_totals)
        assert np.array_equal(got.match_counts, want.match_counts)
        for a, b in zip(got.trials, want.trials):
            assert np.array_equal(a.outcome.matched, b.outcome.matched)
