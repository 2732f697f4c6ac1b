"""Proportionality measures and weight ratios."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import two_recipient_instance
from donormatch.graph import Donor, Recipient, build_scenario, with_normalization
from donormatch.metrics import (
    competitive_fraction,
    empirical_ep,
    fairness_report,
    gamma_of,
)
from donormatch.policies import PolicySpec
from donormatch.simulate import (
    AggregateResult,
    estimate_normalization,
    monte_carlo_evaluate,
)
from donormatch.solver import solve_fixedtime_lp


def fake_aggregate(means, total=None):
    """AggregateResult carrying just the means, for the pure measures."""
    total = sum(means.values()) if total is None else total
    return AggregateResult(
        mean_total_weight=float(total),
        mean_recipient_weight=dict(means),
        trial_count=1,
        std_err_total=0.0,
        std_err_recipient={k: 0.0 for k in means},
        totals=np.array([float(total)]),
        recipient_totals=np.array([list(means.values())], dtype=float),
        match_counts=np.zeros((0, 1)),
    )


# ---------------------------------------------------------------------------
# gamma_of


def test_equal_positive_outcomes_are_fully_proportional():
    assert gamma_of({"A": 2.0, "B": 2.0}, {"A": 1.0, "B": 1.0}) == 1.0
    # Different raw weights, same normalized value.
    assert gamma_of({"A": 0.9, "B": 1.0}, {"A": 0.45, "B": 0.5}) == 1.0


def test_an_unmatched_recipient_forces_zero():
    assert gamma_of({"A": 0.0, "B": 1.0}, {"A": 1.0, "B": 1.0}) == 0.0


def test_min_over_max_in_the_generic_case():
    assert gamma_of({"A": 1.0, "B": 2.0}, {"A": 1.0, "B": 1.0}) == 0.5


def test_empty_allocation_satisfies_every_level():
    assert gamma_of({"A": 0.0, "B": 0.0}, {"A": 1.0, "B": 1.0}) == 1.0
    assert gamma_of({}, {}) == 1.0


def test_bad_normalization_scores_are_an_error():
    with pytest.raises(ValueError, match=r"not >= 0 for \['A'\]"):
        gamma_of({"A": 1.0}, {"A": -0.5})
    with pytest.raises(ValueError, match="no normalization score"):
        gamma_of({"A": 1.0}, {"B": 1.0})


def test_a_nan_score_is_refused_not_read_as_proportional():
    with pytest.raises(ValueError, match=r"not >= 0 for \['A'\]"):
        gamma_of({"A": 1.0, "B": 2.0}, {"A": float("nan"), "B": 1.0})


def test_a_zero_score_is_off_the_scale_and_skipped():
    # m_v = 0 leaves C out, as the solvers leave it out of their band.
    assert gamma_of({"A": 1.0, "B": 2.0, "C": 5.0}, {"A": 1.0, "B": 1.0, "C": 0.0}) == 0.5
    assert gamma_of({"A": 1.0, "C": 0.0}, {"A": 1.0, "C": 0.0}) == 1.0
    assert gamma_of({"C": 1.0}, {"C": 0.0}) == 1.0


def test_gamma_of_reads_the_lp_band_it_was_solved_under():
    # B's only edge is never available, so its estimated score is 0; A and C
    # are scored, and at gamma 0.5 the band between them binds. The band and
    # gamma_of leave B off the scale alike, so the LP's totals meet gamma.
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0), Donor("w", 0.0, 0.0)],
        recipients=[
            Recipient("A", 0.0, 0.0),
            Recipient("B", 0.0, 0.1, kind="dynamic"),
            Recipient("C", 0.0, 0.2),
        ],
        edges=[("u", "A"), ("u", "B"), ("w", "A"), ("w", "C")],
        weights=[0.9, 1.0, 1.0, 0.3],
        availability={"B": 0.0, "C": 0.6},
        horizon=1,
        rate_limit=1,
    )
    m = estimate_normalization(
        s, trials=200, rng=np.random.default_rng(0), protocol="expectation"
    )
    assert m["B"] == 0.0 and m["A"] > 0.0 and m["C"] > 0.0
    s = with_normalization(s, m)

    def lp_gamma(gamma):
        x = solve_fixedtime_lp(s, gamma).x
        y = np.bincount(s.edge_recipient, (s.weights * x).sum(axis=1), s.n_recipients)
        return gamma_of({v.id: y[i] for i, v in enumerate(s.recipients)}, m)

    assert lp_gamma(0.0) < 0.5
    assert lp_gamma(0.5) >= 0.5 - 1e-9


# The property holds when c * y is c times y. Where the product falls deep
# into the subnormal range it is not: c = 0.5 turns [0, 5e-324] into [0, 0],
# and c = 0.3 turns [3, 10] ulps into [1, 3]. Only those draws are skipped.
@given(
    ys=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
    c=st.floats(min_value=0.01, max_value=100.0),
)
@example(ys=[0.0, 2.2250738585072014e-308, 10.0], c=0.01)
@example(ys=[2.2250738585072014e-308, 10.0], c=0.01)
@settings(max_examples=80, deadline=None)
def test_gamma_is_scale_invariant(ys, c):
    exact = [Fraction(c) * Fraction(y) for y in ys]
    assume(all(abs(Fraction(c * y) - e) <= e / 10**12 for y, e in zip(ys, exact)))
    names = [f"v{i}" for i in range(len(ys))]
    m = {n: 1.0 for n in names}
    plain = gamma_of(dict(zip(names, ys)), m)
    scaled = gamma_of({n: c * y for n, y in zip(names, ys)}, m)
    assert scaled == pytest.approx(plain, abs=1e-9)


@given(ys=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6))
@settings(max_examples=80, deadline=None)
def test_gamma_ignores_recipient_labels(ys):
    names = [f"v{i}" for i in range(len(ys))]
    m = {n: 1.0 for n in names}
    forward = gamma_of(dict(zip(names, ys)), m)
    backward = gamma_of(dict(zip(names, reversed(ys))), m)
    assert forward == backward


@given(
    ys=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=6)
)
@settings(max_examples=80, deadline=None)
def test_gamma_is_one_exactly_on_uniform_outcomes(ys):
    names = [f"v{i}" for i in range(len(ys))]
    m = {n: 1.0 for n in names}
    got = gamma_of(dict(zip(names, ys)), m)
    if max(ys) > min(ys):
        assert got < 1.0
    uniform = gamma_of({n: ys[0] for n in names}, m)
    assert uniform == 1.0


# ---------------------------------------------------------------------------
# empirical_ep and competitive_fraction


def test_ep_follows_the_mean_allocation():
    m = {"A": 1.0, "B": 1.0}
    assert empirical_ep(fake_aggregate({"A": 2.0, "B": 2.0}), m) == 1.0
    assert empirical_ep(fake_aggregate({"A": 0.0, "B": 0.0}), m) == 1.0
    assert empirical_ep(fake_aggregate({"A": 0.0, "B": 1.0}), m) == 0.0


def test_rand_is_fully_proportional_against_its_own_scores():
    s = two_recipient_instance(normalization=False)
    m = estimate_normalization(
        s, trials=3_000, rng=np.random.default_rng(1), protocol="expectation"
    )
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("rand"),
        3_000,
        realization_mode="resampled",
        rng=np.random.default_rng(2),
    )
    assert empirical_ep(agg, m) > 0.9


def test_competitive_fraction_is_a_plain_ratio():
    assert competitive_fraction(1.0, 1.0) == 1.0
    assert competitive_fraction(0.6, 1.0) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="reference"):
        competitive_fraction(1.0, 0.0)


# ---------------------------------------------------------------------------
# report assembly


def test_report_carries_the_evaluation_row():
    agg = fake_aggregate({"A": 1.0, "B": 2.0})
    rep = fairness_report(agg, {"A": 1.0, "B": 1.0}, max_weight=6.0, lp_bound=4.0)
    assert rep.gamma_empirical == 0.5
    assert rep.normalized == {"A": 1.0, "B": 2.0}
    assert rep.weight_fraction_of_max == pytest.approx(0.5)
    assert rep.total_weight == pytest.approx(3.0)
    assert rep.lp_bound == 4.0


def test_report_leaves_a_zero_score_recipient_out_of_normalized():
    agg = fake_aggregate({"A": 1.0, "B": 1.0, "C": 0.7})
    rep = fairness_report(agg, {"A": 1.0, "B": 1.0, "C": 0.0}, max_weight=3.0)
    assert rep.normalized == {"A": 1.0, "B": 1.0}
    assert rep.gamma_empirical == 1.0


def test_report_refuses_a_negative_or_nan_score():
    agg = fake_aggregate({"A": 1.0, "B": 2.0})
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError, match=r"not >= 0 for \['A'\]"):
            fairness_report(agg, {"A": bad, "B": 1.0}, max_weight=3.0)


def test_report_with_no_scored_recipients_uses_the_empty_convention():
    agg = fake_aggregate({"A": 1.0})
    rep = fairness_report(agg, {"A": 0.0}, max_weight=1.0)
    assert rep.gamma_empirical == 1.0
    assert rep.normalized == {}
