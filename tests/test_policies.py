"""Policies: parsing, decision distributions, plan sampling, beta estimates."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    all_ones_realization,
    random_instance,
    reference_draw,
    single_edge_instance,
    two_recipient_instance,
    two_step_rate_instance,
)
from donormatch.graph import (
    MODE_RATE,
    DemandRealization,
    Donor,
    Recipient,
    build_scenario,
    donor_max_degree,
)
from donormatch.policies import (
    PolicySpec,
    _draw_assignment,
    estimate_beta,
    nadaplp_plan,
    nadaplp_rate_plan,
    nadapopt_plan,
    parse_policy,
    plan_probabilities,
)
from donormatch.simulate import run_policy
from donormatch.solver import (
    FIXEDTIME_LP,
    NADAPOPT_LP,
    RATELIMIT_LP,
    LpSolution,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_ratelimit_lp,
)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_bare_kind_names():
    assert parse_policy("max") == PolicySpec("max")
    assert parse_policy("rand") == PolicySpec("rand")
    assert parse_policy(" Max ") == PolicySpec("max")


def test_parse_bare_number_is_the_gamma():
    assert parse_policy("randmax:0.3") == PolicySpec("randmax", gamma=0.3)
    assert parse_policy("adaptmatch:0.5") == PolicySpec("adaptmatch", gamma=0.5)


def test_parse_key_value_parameters():
    got = parse_policy("nadaplp:alpha=0.1,gamma=0.5")
    assert got == PolicySpec("nadaplp", gamma=0.5, alpha=0.1)
    got = parse_policy("nadaplp_rate:gamma=0.2", mode=MODE_RATE)
    assert got.kind == "nadaplp_rate" and got.gamma == 0.2


def test_parse_skips_empty_items():
    assert parse_policy("randmax:0.3,") == PolicySpec("randmax", gamma=0.3)
    got = parse_policy("nadaplp:alpha=0.1,,gamma=0.5")
    assert got == PolicySpec("nadaplp", gamma=0.5, alpha=0.1)


@pytest.mark.parametrize(
    "text, mode",
    [
        ("nadaplp:alpha=nan", "fixed"),
        ("nadaplp:alpha=inf", "fixed"),
        ("nadaplp_rate:alpha=nan", MODE_RATE),
        ("nadaplp_rate:alpha=inf,gamma=0.5", MODE_RATE),
    ],
)
def test_parse_refuses_a_non_finite_alpha(text, mode):
    # NaN would make every pre-match probability NaN and pass the mass check.
    with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
        parse_policy(text, mode=mode)


def test_parse_rejects_malformed_strings():
    with pytest.raises(ValueError, match="unknown policy"):
        parse_policy("greedy")
    with pytest.raises(ValueError, match="unknown policy parameter"):
        parse_policy("nadaplp:beta=0.1")
    with pytest.raises(ValueError, match="more than one bare number"):
        parse_policy("randmax:0.3,0.4")


def test_labels_parse_back_to_the_same_spec():
    specs = [
        PolicySpec("max"),
        PolicySpec("rand"),
        PolicySpec("randmax", gamma=0.25),
        PolicySpec("adaptmatch", gamma=0.5),
        PolicySpec("nadaplp", gamma=0.5, alpha=0.1),
        PolicySpec("nadaplp_rate", gamma=0.2, alpha=0.05, mode=MODE_RATE),
    ]
    for spec in specs:
        assert parse_policy(spec.label(), mode=spec.mode) == spec


def test_spec_validates_parameters_and_mode_pairing():
    with pytest.raises(ValueError, match="gamma"):
        PolicySpec("randmax", gamma=1.5)
    with pytest.raises(ValueError, match="alpha"):
        PolicySpec("max", alpha=0.5)
    with pytest.raises(ValueError, match="rate-limited"):
        PolicySpec("nadaplp_rate")
    with pytest.raises(ValueError, match="fixed-time"):
        PolicySpec("nadapopt", mode=MODE_RATE)
    with pytest.raises(ValueError, match="unknown mode"):
        PolicySpec("rand", mode="sometimes")


# ---------------------------------------------------------------------------
# myopic decisions, one donor at one step


def decide(s, policy, r, rng, plan=None):
    """The edge the donor matches in one run of the policy, or None."""
    e = run_policy(s, policy, r, rng, plan=plan).outcome.matched[0, 0]
    return s.edges[e] if e >= 0 else None


def test_rand_decide_is_uniform_over_available_edges():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    rng = np.random.default_rng(7)
    n = 10_000
    hits_a = sum(decide(s, PolicySpec("rand"), r, rng) == ("u", "A") for _ in range(n))
    se = np.sqrt(0.25 / n)
    assert abs(hits_a / n - 0.5) < 3 * se


def test_max_decide_takes_the_heavier_edge():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    rng = np.random.default_rng(7)
    assert all(decide(s, PolicySpec("max"), r, rng) == ("u", "B") for _ in range(100))


def test_max_decide_breaks_ties_uniformly():
    s = two_recipient_instance()
    s = dataclasses.replace(s, weights=np.ones_like(s.weights))
    r = all_ones_realization(s)
    rng = np.random.default_rng(7)
    n = 10_000
    hits_a = sum(decide(s, PolicySpec("max"), r, rng) == ("u", "A") for _ in range(n))
    se = np.sqrt(0.25 / n)
    assert abs(hits_a / n - 0.5) < 3 * se


def test_randmax_mixture_hits_the_expected_weights():
    # Mixing at 0.4 pre-picks the uniform arm with probability 0.4, so A's
    # match probability is 0.2 and the expected weights are (0.18, 0.80).
    s = two_recipient_instance()
    r = all_ones_realization(s)
    rng = np.random.default_rng(11)
    n = 10_000
    spec = PolicySpec("randmax", gamma=0.4)
    hits_a = sum(decide(s, spec, r, rng) == ("u", "A") for _ in range(n))
    freq_a = hits_a / n
    se = np.sqrt(0.2 * 0.8 / n)
    assert abs(freq_a - 0.2) < 3 * se
    assert freq_a * 0.9 == pytest.approx(0.18, abs=3 * se)
    assert (1 - freq_a) * 1.0 == pytest.approx(0.80, abs=3 * se)


def test_deciders_respect_the_realization():
    s = two_recipient_instance()
    only_b = DemandRealization(np.array([[0], [1]], dtype=np.int8))
    nobody = DemandRealization(np.zeros((2, 1), dtype=np.int8))
    rand, randmax = PolicySpec("rand"), PolicySpec("randmax", gamma=1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert decide(s, rand, only_b, rng) == ("u", "B")
        assert decide(s, randmax, only_b, rng) == ("u", "B")
        assert decide(s, rand, nobody, rng) is None
        assert decide(s, PolicySpec("max"), nobody, rng) is None


# ---------------------------------------------------------------------------
# pre-match plans


def test_lp_rounding_plan_prematch_frequency():
    # x* = p = 0.5 on the lone cell, so the pre-match probability is
    # alpha * x*/p = alpha.
    s = single_edge_instance(p=0.5)
    lp = solve_fixedtime_lp(s, 0.0)
    rng = np.random.default_rng(5)
    n = 20_000
    hits = sum(
        nadaplp_plan(s, 0.0, 0.6, rng, lp=lp)[0, 0] == 0 for _ in range(n)
    )
    se = np.sqrt(0.6 * 0.4 / n)
    assert abs(hits / n - 0.6) < 3 * se


def test_lp_rounding_plan_at_zero_alpha_is_empty():
    s = single_edge_instance(p=0.5)
    lp = solve_fixedtime_lp(s, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert (nadaplp_plan(s, 0.0, 0.0, rng, lp=lp) == -1).all()


def test_lp_rounding_plan_rejects_overfull_mass():
    s = single_edge_instance(p=0.5)
    lp = solve_fixedtime_lp(s, 0.0)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=r"donor 'u' at step 1 \(reduce alpha\)"):
        nadaplp_plan(s, 0.0, 1.2, rng, lp=lp)


def test_lp_rounding_plans_refuse_a_negative_alpha():
    # Both samplers build a PolicySpec, which refuses a negative alpha.
    rng = np.random.default_rng(5)
    s = single_edge_instance(p=0.5)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        nadaplp_plan(s, 0.0, -0.1, rng, lp=solve_fixedtime_lp(s, 0.0))
    s = two_step_rate_instance()
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        nadaplp_rate_plan(s, 0.0, -0.1, np.ones((1, 2)), rng, lp=solve_ratelimit_lp(s, 0.0))


def test_an_overfull_plan_without_alpha_is_refused_without_the_alpha_hint():
    s = single_edge_instance(p=0.5)
    lp = LpSolution(
        kind=NADAPOPT_LP,
        x=np.array([[1.5]]),
        s=np.array([np.nan]),
        a=None,
        objective=0.0,
        gamma=0.0,
    )
    for kind in ("nadapopt", "adaptmatch"):
        with pytest.raises(ValueError, match=r"mass \d\.\d+ > 1 for donor 'u' at step 1$"):
            plan_probabilities(s, PolicySpec(kind), lp)


def test_lp_rounding_plan_default_alpha_is_always_valid():
    rng = np.random.default_rng(42)
    for _ in range(12):
        s = random_instance(rng)
        alpha = 1.0 / max(donor_max_degree(s), 1)
        for gamma in (0.0, 1.0):
            nadaplp_plan(s, gamma, alpha, rng)


def test_plan_ignores_mass_on_impossible_cells():
    # A hand-built solution putting weight where availability is zero must
    # round to "no pre-match" rather than divide by that zero.
    s = single_edge_instance(p=0.0)
    lp = LpSolution(
        kind=FIXEDTIME_LP,
        x=np.array([[0.4]]),
        s=np.array([np.nan]),
        a=None,
        objective=0.0,
        gamma=0.0,
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert (nadaplp_plan(s, 0.0, 1.0, rng, lp=lp) == -1).all()


def test_a_batched_plan_draw_is_the_cell_by_cell_categorical_walk():
    # u0's first edge has probability 0 at every step, u1's mass stays below
    # one, u2 has no edges. Dyadic probabilities make the running totals
    # exact, so numbers placed on them test the boundary: a number equal to
    # a total moves past that edge, and 0 never takes a zero-probability one.
    T, n = 3, 40
    s = build_scenario(
        donors=[Donor(f"u{i}", 0.0, 0.0) for i in range(3)],
        recipients=[Recipient(f"v{j}", 0.0, 0.0) for j in range(3)],
        edges=[("u0", "v0"), ("u0", "v1"), ("u0", "v2"), ("u1", "v0"), ("u1", "v2")],
        weights=np.ones((5, T)),
        availability=None,
        horizon=T,
        rate_limit=1,
    )
    probs = np.array(
        [[0.0] * T, [0.25, 0.5, 0.125], [0.75, 0.5, 0.875], [0.5, 0.25, 0.0], [0.25, 0.0, 0.375]]
    )
    rng = np.random.default_rng(17)
    uniforms = rng.random((n, 3, T))
    uniforms[0, :, 0] = [0.0, 0.0, 0.0]
    uniforms[1, :, 0] = [0.25, 0.5, 0.25]
    uniforms[2, :, 1] = [0.5, 0.25, 0.5]
    uniforms[3, :, 2] = [0.125, 0.375, 0.125]
    uniforms[4, :, :] = np.nextafter(1.0, 0.0)
    # K = 1 schedules every cell; a plan draw takes them flat, and any subset
    # of them, in any order, must land each cell where the walk does.
    cells = np.arange(3 * T)
    got = _draw_assignment(s, probs, uniforms.reshape(n, -1), cells).reshape(n, 3, T)
    want = reference_draw(s, probs, uniforms)
    assert np.array_equal(got, want)
    some = np.array([7, 0, 4, 5])
    assert np.array_equal(
        _draw_assignment(s, probs, uniforms.reshape(n, -1)[:, some], some),
        want.reshape(n, -1)[:, some],
    )
    assert got[0, :, 0].tolist() == [1, 3, -1]
    assert got[1, :, 0].tolist() == [2, 4, -1]
    assert got[2, :, 1].tolist() == [2, -1, -1]
    assert got[3, :, 2].tolist() == [2, -1, -1]
    assert (got[:, 1] == -1).any() and (got[:, 2] == -1).all() and (got[:, 0] >= 1).all()
    assert np.array_equal(_draw_assignment(s, probs, uniforms[5].ravel(), cells), want[5].ravel())
    bare = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[],
        weights=np.zeros((0, T)),
        availability=None,
        horizon=T,
        rate_limit=1,
    )
    assert bare.donor_edge_table.shape == (1, 0)
    empty = _draw_assignment(bare, np.zeros((0, T)), rng.random((n, T)), np.arange(T))
    assert empty.shape == (n, T) and (empty == -1).all()


def test_optimal_nonadaptive_plan_splits_evenly_at_full_fairness():
    s = two_recipient_instance()
    lp = solve_nadapopt_lp(s, 1.0)
    rng = np.random.default_rng(9)
    n = 20_000
    picks = np.array(
        [nadapopt_plan(s, 1.0, rng, lp=lp)[0, 0] for _ in range(n)]
    )
    assert (picks >= 0).all()  # y* sums to one, so someone is always chosen
    se = np.sqrt(0.25 / n)
    assert abs((picks == s.edges.index(("u", "A"))).mean() - 0.5) < 3 * se


def test_execute_prematch_branches():
    s = two_recipient_instance()
    a = s.edges.index(("u", "A"))
    both = all_ones_realization(s)
    no_a = DemandRealization(np.array([[0], [1]], dtype=np.int8))
    empty = np.full((1, 1), -1, dtype=np.int64)
    planned = np.array([[a]], dtype=np.int64)
    spec = PolicySpec("nadapopt")
    rng = np.random.default_rng(0)
    assert decide(s, spec, both, rng, plan=empty) is None
    assert decide(s, spec, both, rng, plan=planned) == ("u", "A")
    assert decide(s, spec, no_a, rng, plan=planned) is None


def test_adaptmatch_uses_the_plan_then_falls_back():
    s = two_recipient_instance()
    a = s.edges.index(("u", "A"))
    both = all_ones_realization(s)
    no_a = DemandRealization(np.array([[0], [1]], dtype=np.int8))
    planned = np.array([[a]], dtype=np.int64)
    empty = np.full((1, 1), -1, dtype=np.int64)
    coin_rand = PolicySpec("adaptmatch", gamma=1.0)
    coin_max = PolicySpec("adaptmatch", gamma=0.0)
    rng = np.random.default_rng(13)
    # Planned edge lands: taken regardless of the coin.
    assert all(
        decide(s, coin_rand, both, rng, plan=planned) == ("u", "A") for _ in range(20)
    )
    # No plan entry, gamma 0: pure max fallback.
    assert all(
        decide(s, coin_max, both, rng, plan=empty) == ("u", "B") for _ in range(20)
    )
    # Planned recipient missing: the fallback still matches what is there.
    assert all(
        decide(s, coin_max, no_a, rng, plan=planned) == ("u", "B") for _ in range(20)
    )


# ---------------------------------------------------------------------------
# rate-limited rounding


def test_estimate_beta_trivia():
    # No edges: nothing ever blocks, beta is identically one.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[],
        weights=[],
        availability=None,
        horizon=3,
        rate_limit=2,
    )
    assert (estimate_beta(s, 0.0, 0.5) == 1.0).all()


def test_estimate_beta_tracks_the_blocking_rate():
    # Hand plan mass 0.8 at the first step blocks the donor through the
    # second, so availability there is exactly 1 - 0.8 at alpha 1 and
    # 1 - 0.5 * 0.8 at alpha 0.5.
    s = two_step_rate_instance()
    lp = LpSolution(
        kind=RATELIMIT_LP,
        x=np.array([[0.8, 0.2]]),
        s=np.array([np.nan]),
        a=np.array([[1.0, 0.2]]),
        objective=1.0,
        gamma=0.0,
    )
    for alpha, want in ((1.0, 0.2), (0.5, 0.6)):
        got = estimate_beta(s, 0.0, alpha, lp=lp)
        np.testing.assert_allclose(got, [[1.0, want]], rtol=0, atol=1e-15)
    # The trials and generator a caller may still pass change nothing.
    rng = np.random.default_rng(19)
    assert np.array_equal(estimate_beta(s, 0.0, 0.5, 200, rng, lp=lp), got)
    assert rng.random() == np.random.default_rng(19).random()


def test_rate_plan_waits_like_its_relaxation():
    # The relaxation saves the notification for the heavier second step, so
    # plans never pre-match the first and hit the second at rate alpha.
    s = two_step_rate_instance(w1=0.7, w2=1.0)
    lp = solve_ratelimit_lp(s, 0.0)
    beta = estimate_beta(s, 0.0, 0.5, lp=lp)
    assert (beta == 1.0).all()
    rng = np.random.default_rng(23)
    n = 20_000
    picks = np.array(
        [
            nadaplp_rate_plan(s, 0.0, 0.5, beta, rng, lp=lp)[0]
            for _ in range(n)
        ]
    )
    assert (picks[:, 0] == -1).all()
    se = np.sqrt(0.25 / n)
    assert abs((picks[:, 1] == 0).mean() - 0.5) < 3 * se


def test_rate_rounding_default_alpha_never_overfills():
    # At alpha = 1/(2D) the window rows cap every trailing-window mass at
    # alpha, so beta stays at 1/2 or better and the induced plan mass at
    # one or less.
    rng = np.random.default_rng(29)
    for _ in range(8):
        s = random_instance(rng)
        alpha = 1.0 / (2.0 * max(donor_max_degree(s), 1))
        for gamma in (0.0, 1.0):
            lp = solve_ratelimit_lp(s, gamma)
            beta = estimate_beta(s, gamma, alpha, lp=lp)
            assert (beta >= 0.5 - 1e-9).all()
            assert (beta[:, 0] == 1.0).all()
            nadaplp_rate_plan(s, gamma, alpha, beta, rng, lp=lp)
