"""Exhaustive references: frozen hand values and agreement with the fast paths."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    all_ones_realization,
    random_instance,
    random_realization,
    two_recipient_instance,
    two_step_rate_instance,
)
from donormatch.graph import (
    MODE_FIXED,
    MODE_RATE,
    DemandRealization,
    Donor,
    Recipient,
    build_scenario,
    with_normalization,
)
from donormatch.oracle import (
    EnumerationError,
    brute_force_opt,
    brute_force_policy_expectation,
    find_proportional_allocation,
)
from donormatch.policies import PolicySpec, default_alpha, estimate_beta
from donormatch.simulate import estimate_normalization, monte_carlo_evaluate, run_policy
from donormatch.solver import (
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_offline_opt,
    solve_ratelimit_lp,
    solve_ratelimit_opt,
)


def square_instance(normalization=(1.0, 1.0)):
    """Two donors, two recipients, all four unit edges, one step."""
    return build_scenario(
        donors=[Donor("d1", 0.0, 0.0), Donor("d2", 0.0, 0.1)],
        recipients=[Recipient("A", 0.1, 0.0), Recipient("B", 0.1, 0.1)],
        edges=[("d1", "A"), ("d1", "B"), ("d2", "A"), ("d2", "B")],
        weights=[1.0, 1.0, 1.0, 1.0],
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"A": normalization[0], "B": normalization[1]},
    )


# ---------------------------------------------------------------------------
# exhaustive offline optimum


def test_offline_enumeration_on_the_worked_instance():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    obj, matching = brute_force_opt(s, r, gamma=0.0)
    assert obj == pytest.approx(1.0, abs=1e-12)
    assert matching.tolist() == [[s.edges.index(("u", "B"))]]
    obj, matching = brute_force_opt(s, r, gamma=1.0)
    assert obj == 0.0
    assert matching.tolist() == [[-1]]


def test_rate_enumeration_waits_for_the_heavy_step():
    s = two_step_rate_instance(w1=0.01, w2=1.0)
    r = all_ones_realization(s)
    obj, matching = brute_force_opt(s, r, gamma=0.0, mode=MODE_RATE)
    assert obj == pytest.approx(1.0, abs=1e-12)
    assert matching.tolist() == [[-1, 0]]
    # Fixed-time mode is stuck with the scheduled first day.
    obj, matching = brute_force_opt(s, r, gamma=0.0, mode=MODE_FIXED)
    assert obj == pytest.approx(0.01, abs=1e-12)
    assert matching.tolist() == [[0, -1]]


def test_enumeration_bounds_are_hard_errors():
    rng = np.random.default_rng(1)
    big = random_instance(rng, max_donors=3, max_recipients=2, max_steps=3, cell_budget=None)
    while big.n_donors * big.horizon <= 8:
        big = random_instance(rng, max_donors=3, max_recipients=2, max_steps=3, cell_budget=None)
    with pytest.raises(EnumerationError, match="slot"):
        brute_force_opt(big, all_ones_realization(big), 0.0)

    fanout = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient(f"v{i}", 0.0, 0.0) for i in range(6)],
        edges=[("u", f"v{i}") for i in range(6)],
        weights=[1.0] * 6,
        availability=None,
        horizon=1,
        rate_limit=1,
    )
    with pytest.raises(EnumerationError, match="open"):
        brute_force_opt(fanout, all_ones_realization(fanout), 0.0)


def test_enumeration_validates_gamma():
    s = two_recipient_instance(normalization=False)
    r = all_ones_realization(s)
    with pytest.raises(ValueError, match="gamma"):
        brute_force_opt(s, r, gamma=1.5)
    with pytest.raises(ValueError, match="normalization"):
        brute_force_opt(s, r, gamma=0.5)


def test_enumeration_agrees_with_the_constraint_solvers():
    rng = np.random.default_rng(2)
    for _ in range(15):
        s = random_instance(rng)
        r = random_realization(s, rng)
        for gamma in (0.0, 0.5, 1.0):
            want, _ = brute_force_opt(s, r, gamma, mode=MODE_FIXED)
            got = solve_offline_opt(s, r, gamma).objective
            assert got == pytest.approx(want, abs=1e-6)
            want, _ = brute_force_opt(s, r, gamma, mode=MODE_RATE)
            got = solve_ratelimit_opt(s, r, gamma).objective
            assert got == pytest.approx(want, abs=1e-6)


def test_enumeration_agrees_with_the_constraint_solvers_when_a_score_is_zero():
    # A recipient with m_v = 0 has no place on the Gamma scale: the MILPs
    # and the enumeration both leave it out of the band and hold the rest.
    rng = np.random.default_rng(12)
    for _ in range(15):
        s = random_instance(rng, max_recipients=4)
        m = s.normalization.copy()
        m[rng.integers(s.n_recipients)] = 0.0
        s = with_normalization(s, m)
        r = random_realization(s, rng)
        for gamma in (0.5, 1.0):
            for mode, solve in ((MODE_FIXED, solve_offline_opt), (MODE_RATE, solve_ratelimit_opt)):
                want, _ = brute_force_opt(s, r, gamma, mode=mode)
                sol = solve(s, r, gamma)
                assert sol.objective == pytest.approx(want, abs=1e-6)
                assert np.isnan(sol.s[m == 0.0]).all()
                sv = sol.s[m > 0.0]
                if sv.size >= 2:
                    assert gamma * sv.max() <= sv.min() + 1e-6


# ---------------------------------------------------------------------------
# exact policy expectations


def test_myopic_expectations_on_the_worked_instance():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    got = brute_force_policy_expectation(s, PolicySpec("rand"), r)
    assert got["A"] == pytest.approx(0.45, abs=1e-12)
    assert got["B"] == pytest.approx(0.5, abs=1e-12)
    got = brute_force_policy_expectation(s, PolicySpec("max"), r)
    assert got == {"A": 0.0, "B": 1.0}
    got = brute_force_policy_expectation(s, PolicySpec("randmax", gamma=0.4), r)
    assert got["A"] == pytest.approx(0.18, abs=1e-12)
    assert got["B"] == pytest.approx(0.80, abs=1e-12)


def test_rate_walk_blocks_after_each_match():
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[("u", "v")],
        weights=[[1.0, 1.0, 1.0]],
        availability=None,
        horizon=3,
        rate_limit=2,
    )
    r = all_ones_realization(s)
    got = brute_force_policy_expectation(s, PolicySpec("rand", mode=MODE_RATE), r)
    assert got == {"v": 2.0}  # matches on days 1 and 3, blocked on day 2


def test_expectation_conditions_on_a_concrete_plan():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    a = s.edges.index(("u", "A"))
    plan = np.array([[a]], dtype=np.int64)
    got = brute_force_policy_expectation(s, PolicySpec("nadapopt"), r, plan=plan)
    assert got == {"A": 0.9, "B": 0.0}
    empty = np.full((1, 1), -1, dtype=np.int64)
    got = brute_force_policy_expectation(
        s, PolicySpec("adaptmatch", gamma=0.0), r, plan=empty
    )
    assert got == {"A": 0.0, "B": 1.0}


def test_rate_walk_on_a_concrete_plan_matches_the_simulator():
    # Every decision is fixed by the plan and the realization: d1's match
    # at t = 1 blocks t = 2, 3 (K = 3); d2's pre-match at t = 3 finds B down,
    # so it does not block, and d2 matches A at t = 4.
    s = build_scenario(
        donors=[Donor("d1", 0.0, 0.0), Donor("d2", 0.0, 0.1)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.1, 0.0, kind="dynamic")],
        edges=[("d1", "A"), ("d1", "B"), ("d2", "A"), ("d2", "B")],
        weights=[0.1, 0.2, 0.3, 0.4],
        availability={"B": 0.5},
        horizon=6,
        rate_limit=3,
    )
    r = DemandRealization(np.array([[1] * 6, [1, 1, 0, 1, 1, 1]], dtype=np.int8))
    plan = np.array([[0, 1, 1, 1, 0, -1], [-1, -1, 3, 2, 3, -1]], dtype=np.int64)
    policy = PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE)
    got = brute_force_policy_expectation(s, policy, r, plan=plan)
    assert got == pytest.approx({"A": 0.4, "B": 0.2}, abs=1e-12)
    sim = run_policy(s, policy, r, np.random.default_rng(0), plan=plan).outcome
    np.testing.assert_allclose(sim.recipient_weight, [got["A"], got["B"]], rtol=0, atol=1e-12)


def two_donor_plan_instance():
    """d1 holds edges 0 and 1, d2 edges 2 and 3, three steps."""
    return build_scenario(
        donors=[Donor("d1", 0.0, 0.0), Donor("d2", 0.0, 0.1)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.1, 0.0)],
        edges=[("d1", "A"), ("d1", "B"), ("d2", "A"), ("d2", "B")],
        weights=[0.1, 0.2, 0.3, 0.4],
        availability=None,
        horizon=3,
        rate_limit=1,
    )


@pytest.mark.parametrize(
    "entry",
    [
        lambda s, r, plan: run_policy(
            s, PolicySpec("adaptmatch", gamma=0.5), r, np.random.default_rng(0), plan=plan
        ),
        lambda s, r, plan: brute_force_policy_expectation(
            s, PolicySpec("adaptmatch", gamma=0.5), r, plan=plan
        ),
    ],
    ids=["run_policy", "oracle"],
)
def test_a_malformed_plan_is_refused(entry):
    s = two_donor_plan_instance()
    r = all_ones_realization(s)
    good = np.array([[0, 1, -1], [3, -1, 2]], dtype=np.int64)
    entry(s, r, good)
    entry(s, r, good.tolist())
    with pytest.raises(ValueError, match=r"shape \(3, 2\), expected .* \(2, 3\)"):
        entry(s, r, good.T)
    with pytest.raises(ValueError, match=r"shape \(2, 8\)"):
        entry(s, r, np.full((2, 8), -1))
    with pytest.raises(ValueError, match="integer edge indices"):
        entry(s, r, good.astype(float))
    for u, t, e in ((0, 1, 2), (1, 0, 0), (0, 2, 4), (1, 1, -2)):
        bad = good.copy()
        bad[u, t] = e
        with pytest.raises(
            ValueError, match=rf"plan entry {e} for donor 'd{u + 1}' at step {t + 1} "
        ):
            entry(s, r, bad)


def assert_close_to_monte_carlo(s, policy, r, exact, trials=4_000, seed=3, beta=None):
    agg = monte_carlo_evaluate(
        s,
        policy,
        trials,
        realization_mode="fixed",
        rng=np.random.default_rng(seed),
        realization=r,
        beta=beta,
    )
    for vid, want in exact.items():
        se = max(agg.std_err_recipient[vid], 1e-9)
        assert abs(agg.mean_recipient_weight[vid] - want) < 3 * se + 1e-9, (
            policy.kind,
            vid,
        )


def test_expectations_match_monte_carlo_for_myopic_kinds():
    rng = np.random.default_rng(4)
    s = random_instance(rng)
    r = random_realization(s, rng)
    for mode in (MODE_FIXED, MODE_RATE):
        for spec in (
            PolicySpec("rand", mode=mode),
            PolicySpec("max", mode=mode),
            PolicySpec("randmax", gamma=0.5, mode=mode),
        ):
            exact = brute_force_policy_expectation(s, spec, r)
            assert_close_to_monte_carlo(s, spec, r, exact)


def test_expectations_match_monte_carlo_for_plan_kinds():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    for spec in (
        PolicySpec("nadaplp", gamma=0.5),
        PolicySpec("nadapopt", gamma=0.5),
        PolicySpec("adaptmatch", gamma=0.5),
    ):
        exact = brute_force_policy_expectation(s, spec, r)
        assert_close_to_monte_carlo(s, spec, r, exact)


def test_expectations_match_monte_carlo_when_the_plan_misses():
    # B is absent in this realization, so pre-matches on B fall through and
    # only the fallback branch can score.
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
    r = DemandRealization(np.array([[1], [0]], dtype=np.int8))
    spec = PolicySpec("adaptmatch", gamma=0.5)
    exact = brute_force_policy_expectation(s, spec, r)
    assert exact["B"] == 0.0
    assert exact["A"] > 0.0
    assert_close_to_monte_carlo(s, spec, r, exact)


def test_expectations_match_monte_carlo_for_the_rate_rounding_kind():
    s = two_step_rate_instance(w1=0.6, w2=1.0)
    r = all_ones_realization(s)
    spec = PolicySpec("nadaplp_rate", gamma=0.0, alpha=0.4, mode=MODE_RATE)
    beta = estimate_beta(s, 0.0, 0.4)
    exact = brute_force_policy_expectation(s, spec, r, beta=beta)
    assert_close_to_monte_carlo(s, spec, r, exact, beta=beta)


def dynamic_rate_instance(rng, K, staggered=False):
    """One or two donors, every recipient dynamic, at most 6 recipient-steps.

    ``staggered`` draws each donor's first notification day from 1..K, so
    that fixed-time schedules leave some cells out.
    """
    T = int(rng.integers(max(2, K), 5))
    V = 1 if T > 3 else int(rng.integers(1, 3))
    U = int(rng.integers(1, 3))
    edges = [(f"u{i}", f"v{j}") for i in range(U) for j in range(V) if rng.random() < 0.7]
    edges += [(f"u{i}", "v0") for i in range(U) if not any(u == f"u{i}" for u, _ in edges)]
    return build_scenario(
        donors=[
            Donor(f"u{i}", 0.0, 0.0, int(rng.integers(1, K + 1)) if staggered else 1)
            for i in range(U)
        ],
        recipients=[Recipient(f"v{j}", 0.0, 0.0, kind="dynamic") for j in range(V)],
        edges=edges,
        weights=[rng.uniform(0.05, 1.0, size=T) for _ in edges],
        availability={f"v{j}": rng.uniform(0.2, 1.0, size=T) for j in range(V)},
        horizon=T,
        rate_limit=K,
        normalization={f"v{j}": float(rng.uniform(0.2, 1.5)) for j in range(V)},
    )


def expectation_over_realizations(s, spec, beta=None):
    """E[Y_v] over the policy's draws and every realization, recipient order."""
    got = np.zeros(s.n_recipients)
    cells = s.n_recipients * s.horizon
    for bits in range(1 << cells):
        up = (bits >> np.arange(cells)).reshape(s.availability.shape) & 1
        weight = np.where(up == 1, s.availability, 1.0 - s.availability).prod()
        exact = brute_force_policy_expectation(
            s, spec, DemandRealization(up.astype(np.int8)), beta=beta
        )
        got += weight * np.array([exact[v.id] for v in s.recipients])
    return got


@pytest.mark.parametrize("K", [1, 2, 3])
def test_rate_rounding_with_the_closed_form_beta_meets_its_plan_exactly(K):
    # With beta from estimate_beta, a donor matches e at t with probability
    # exactly alpha * x*_et, so E[Y_v] over the policy's draws and every
    # realization is alpha * sum x* w over v's cells.
    rng = np.random.default_rng(40 + K)
    for _ in range(8):
        s = dynamic_rate_instance(rng, K)
        alpha = default_alpha(s, MODE_RATE)
        for gamma in (0.0, 0.5):
            lp = solve_ratelimit_lp(s, gamma)
            beta = estimate_beta(s, gamma, alpha, lp=lp)
            if K == 1:
                assert (beta == 1.0).all()
            spec = PolicySpec("nadaplp_rate", gamma=gamma, mode=MODE_RATE)
            got = expectation_over_realizations(s, spec, beta)
            per_edge = alpha * (np.clip(lp.x, 0.0, None) * s.weights).sum(axis=1)
            want = np.bincount(s.edge_recipient, per_edge, minlength=s.n_recipients)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "kind, solve", [("nadaplp", solve_fixedtime_lp), ("nadapopt", solve_nadapopt_lp)]
)
def test_fixed_time_roundings_meet_their_relaxations_exactly(kind, solve):
    # nadaplp pre-matches e at t with probability alpha * x*/p and nadapopt
    # with y*, and the recipient is up with probability p, so E[Y_v] over the
    # plan draw and every realization is alpha * sum x* w, or sum y* p w,
    # over v's cells. The oracle takes the probabilities from
    # plan_probabilities; this closed form does not.
    rng = np.random.default_rng(22)
    for _ in range(10):
        s = dynamic_rate_instance(rng, int(rng.integers(1, 3)), staggered=True)
        scale = default_alpha(s, MODE_FIXED)
        if kind == "nadapopt":
            scale = s.availability[s.edge_recipient]
        for gamma in (0.0, 0.5):
            lp = solve(s, gamma)
            got = expectation_over_realizations(s, PolicySpec(kind, gamma=gamma))
            per_edge = (np.clip(lp.x, 0.0, None) * scale * s.weights).sum(axis=1)
            want = np.bincount(s.edge_recipient, per_edge, minlength=s.n_recipients)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_normalization_scores_are_rands_exact_expectation(K):
    # The closed form against the oracle, in both modes: over every
    # realization with p the availability, and on one drawn realization with
    # p in {0, 1}. The staggered instances give donors one or two edges, the
    # last instance five, so the integral has degree four.
    rng = np.random.default_rng(60 + K)
    unused = np.random.default_rng(0)
    before = unused.bit_generator.state
    instances = [dynamic_rate_instance(rng, K, staggered=True) for _ in range(6)]
    instances += [random_instance(rng, 2, 4, 2) for _ in range(3)]
    instances.append(
        build_scenario(
            donors=[Donor("u", 0.0, 0.0)],
            recipients=[Recipient(f"v{j}", 0.0, 0.0, kind="dynamic") for j in range(5)],
            edges=[("u", f"v{j}") for j in range(5)],
            weights=[rng.uniform(0.05, 1.0, size=2) for _ in range(5)],
            availability={f"v{j}": rng.uniform(0.2, 1.0, size=2) for j in range(5)},
            horizon=2,
            rate_limit=K,
        )
    )
    for s in instances:
        r = random_realization(s, rng)
        for mode in (MODE_FIXED, MODE_RATE):
            spec = PolicySpec("rand", mode=mode)
            got = estimate_normalization(s, rng=unused, protocol="expectation", mode=mode)
            want = expectation_over_realizations(s, spec)
            np.testing.assert_allclose(list(got.values()), want, rtol=0, atol=1e-12)
            got = estimate_normalization(s, r=r, rng=unused, mode=mode)
            want = brute_force_policy_expectation(s, spec, r)
            assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert unused.bit_generator.state == before
    with pytest.raises(ValueError, match="unknown mode 'fixed'"):
        estimate_normalization(s, protocol="expectation", mode="fixed")


def test_rate_distribution_mode_takes_beta_from_the_relaxation_it_solves():
    # Without beta the oracle takes estimate_beta of its own relaxation, as
    # monte_carlo_evaluate does. With every recipient up a beta below one
    # moves the answer, so a beta of all ones must give another one.
    rng = np.random.default_rng(14)
    for K in (2, 3):
        for _ in range(4):
            s = dynamic_rate_instance(rng, K)
            r = all_ones_realization(s)
            policy = PolicySpec("nadaplp_rate", gamma=0.5, mode=MODE_RATE)
            beta = estimate_beta(s, 0.5, default_alpha(s, MODE_RATE))
            got = brute_force_policy_expectation(s, policy, r)
            want = brute_force_policy_expectation(s, policy, r, beta=beta)
            assert got == pytest.approx(want, rel=0, abs=1e-15)
            ones = np.ones_like(beta)
            assert brute_force_policy_expectation(s, policy, r, beta=ones) != got


def test_a_plan_distribution_with_mass_over_one_is_refused():
    # x* = 0.5 = p at every step; at alpha = 1 the donor pre-matches with
    # probability 1 at step 1, so beta_2 is 1/2 and step 2's mass 2. The
    # simulator refuses that plan, and so must the oracle.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("b", 0.0, 0.0, kind="dynamic")],
        edges=[("u", "b")],
        weights=[[1.0, 1.0, 1.0]],
        availability={"b": 0.5},
        horizon=3,
        rate_limit=2,
    )
    r = all_ones_realization(s)
    spec = PolicySpec("nadaplp_rate", gamma=0.0, alpha=1.0, mode=MODE_RATE)
    beta = estimate_beta(s, 0.0, 1.0)
    for evaluate in (
        lambda: brute_force_policy_expectation(s, spec, r, beta=beta),
        lambda: monte_carlo_evaluate(
            s, spec, 10, realization_mode="fixed", rng=np.random.default_rng(1),
            realization=r, beta=beta,
        ),
    ):
        with pytest.raises(ValueError, match=r"mass \d\.\d+ > 1 for donor 'u' at step 2"):
            evaluate()


# ---------------------------------------------------------------------------
# proportional-allocation search


def test_two_balanced_donors_split_across_the_recipients():
    got = find_proportional_allocation(square_instance(), gamma=1.0)
    assert got is not None and len(got) == 2
    assert {v for _u, v in got} == {"A", "B"}
    assert {u for u, _v in got} == {"d1", "d2"}


def test_a_single_donor_cannot_balance_two_recipients():
    s = two_recipient_instance(normalization=False)
    s = build_scenario(
        donors=s.donors,
        recipients=s.recipients,
        edges=s.edges,
        weights=s.weights,
        availability=s.availability,
        horizon=1,
        rate_limit=1,
        normalization={"A": 1.0, "B": 1.0},
    )
    assert find_proportional_allocation(s, gamma=1.0) is None


def test_one_edge_is_proportional_to_itself():
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[("u", "v")],
        weights=[0.3],
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"v": 1.0},
    )
    assert find_proportional_allocation(s, gamma=1.0) == [("u", "v")]


def test_allocation_search_validates_its_inputs():
    s = square_instance()
    with pytest.raises(ValueError, match="gamma"):
        find_proportional_allocation(s, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        find_proportional_allocation(s, gamma=1.5)
    bare = two_recipient_instance(normalization=False)
    with pytest.raises(ValueError, match="normalization"):
        find_proportional_allocation(bare, gamma=0.5)
    wide = build_scenario(
        donors=[Donor(f"d{i}", 0.0, 0.0) for i in range(9)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[(f"d{i}", "v") for i in range(9)],
        weights=[1.0] * 9,
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"v": 1.0},
    )
    with pytest.raises(EnumerationError, match="donors"):
        find_proportional_allocation(wide, gamma=1.0)
