"""Hand instances with known optima for the benchmark's reference computations.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import donormatch as dm  # noqa: E402
import reference  # noqa: E402


def two_edge_scenario(normalization=None):
    """One donor notified at t=1 with edges to r0 (w 0.5, p 0.6) and r1 (w 0.3, static)."""
    return dm.build_scenario(
        [dm.Donor("d", 0.0, 0.0, 1)],
        [dm.Recipient("r0", 0.0, 0.0, "dynamic"), dm.Recipient("r1", 0.0, 0.0, "static")],
        [("d", "r0"), ("d", "r1")],
        [0.5, 0.3],
        {"r0": 0.6},
        horizon=1,
        rate_limit=1,
        normalization=normalization,
    )


def test_closed_form_fills_heaviest_edges_up_to_p():
    # 0.6 of the 0.5 edge, then the remaining 0.4 of the 0.3 edge
    assert reference.fixedtime_bound_gamma0(two_edge_scenario()) == pytest.approx(0.42)


def test_closed_form_skips_unscheduled_steps():
    s = dm.build_scenario(
        [dm.Donor("d", 0.0, 0.0, 2)],
        [dm.Recipient("r", 0.0, 0.0, "static")],
        [("d", "r")],
        [[0.9, 0.2, 0.4]],
        None,
        horizon=3,
        rate_limit=2,
    )
    assert reference.fixedtime_bound_gamma0(s) == pytest.approx(0.2)


def test_highs_fixedtime_matches_closed_form_and_hand_optimum():
    s = two_edge_scenario(normalization=[1.0, 1.0])
    assert reference.highs_lp(s, reference.FIXEDTIME, 0.0) == pytest.approx(0.42)
    # gamma = 1 forces 0.5 x0 = 0.3 x1 with x0 + x1 <= 1: x0 = 3/8, objective 0.375
    assert reference.highs_lp(s, reference.FIXEDTIME, 1.0) == pytest.approx(0.375)


def test_highs_nadapopt_weighs_by_availability():
    s = two_edge_scenario(normalization=[1.0, 1.0])
    # max of 0.5 * 0.6 and 0.3 * 1.0 with one unit of pre-match mass
    assert reference.highs_lp(s, reference.NADAPOPT, 0.0) == pytest.approx(0.3)


def test_highs_rate_limit_windows():
    # K = 2 over three steps: match at t = 1 and t = 3
    s = dm.build_scenario(
        [dm.Donor("d", 0.0, 0.0, 1)],
        [dm.Recipient("r", 0.0, 0.0, "static")],
        [("d", "r")],
        [1.0],
        None,
        horizon=3,
        rate_limit=2,
    )
    assert reference.highs_lp(s, reference.RATELIMIT, 0.0) == pytest.approx(2.0)


def test_optimum_per_realization_takes_heaviest_available_edge():
    s = two_edge_scenario()
    opt = reference.optimum_per_realization(s, 4000, np.random.default_rng(0))
    assert set(np.round(opt, 12)) == {0.5, 0.3}
    # E[OPT] = 0.6 * 0.5 + 0.4 * 0.3 = the relaxation at gamma 0 here
    assert opt.mean() == pytest.approx(0.42, abs=0.01)


def test_bernstein_halfwidth_covers_bernoulli_means():
    rng = np.random.default_rng(1)
    n, q, delta = 100, 0.02, 1e-3
    width = reference.bernstein_halfwidth(q, 1.0, n, delta)
    means = rng.binomial(n, q, size=20000) / n
    assert np.mean(np.abs(means - q) > width) <= delta
    assert reference.bernstein_halfwidth(q, 1.0, 4 * n, delta) < width


def test_bernstein_halfwidth_of_a_constant_shrinks_with_n():
    assert reference.bernstein_halfwidth(0.0, 1.0, 100, 1e-6) == pytest.approx(
        2 * math.log(2e6) / 300
    )
