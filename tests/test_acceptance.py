"""Acceptance gate: ten numbered end-to-end checks of the library contract.

Each test pins one headline guarantee at a stated tolerance, starting
with solver-versus-enumeration equivalence and ending with byte-level
determinism of the command line outputs. Run with -v to get one
pass/fail line per criterion.
"""

from __future__ import annotations

import filecmp
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import random_instance, random_realization, two_recipient_instance
from donormatch.cli import SWEEP_GAMMAS, main, sweep_rows
from donormatch.graph import (
    MODE_FIXED,
    MODE_RATE,
    Donor,
    Recipient,
    build_scenario,
    with_normalization,
)
from donormatch.metrics import empirical_ep
from donormatch.oracle import brute_force_opt
from donormatch.policies import (
    PolicySpec,
    default_alpha,
    estimate_beta,
    nadaplp_rate_plan,
)
from donormatch.simulate import (
    estimate_normalization,
    monte_carlo_evaluate,
    run_policy,
)
from donormatch.solver import (
    solve_fixedtime_lp,
    solve_offline_opt,
    solve_ratelimit_lp,
    solve_ratelimit_opt,
)
from donormatch.synthgen import generate_city, load_bundled_config

ORACLE_TOL = 1e-6
EXACT_TOL = 1e-9
CITY_NAMES = ("riverton", "lakeport", "hillmont", "baycrest")


def norm_dict(s):
    return {v.id: float(s.normalization[i]) for i, v in enumerate(s.recipients)}


def ratio_slack(agg, m):
    """Three standard errors of the worst normalized mean, as an EP margin."""
    return 3.0 * max(agg.std_err_recipient[v] / m[v] for v in m)


def test_criterion_01_enumeration_matches_the_optimizer():
    """Exhaustive enumeration and the MILP agree on 200 instances per mode."""
    start = time.monotonic()
    gammas = (0.0, 0.25, 0.5, 1.0)
    for mode, solve in ((MODE_FIXED, solve_offline_opt), (MODE_RATE, solve_ratelimit_opt)):
        rng = np.random.default_rng(11 if mode == MODE_FIXED else 12)
        for _ in range(200):
            s = random_instance(rng)
            r = random_realization(s, rng)
            for gamma in gammas:
                enum_obj, _ = brute_force_opt(s, r, gamma, mode=mode)
                sol = solve(s, r, gamma)
                assert abs(enum_obj - sol.objective) <= ORACLE_TOL
    assert time.monotonic() - start < 120.0


def test_criterion_02_greedy_equals_the_unconstrained_offline_optimum():
    """Max's realized total equals the gamma=0 offline objective to 1e-9."""
    rng = np.random.default_rng(22)
    for _ in range(100):
        s = random_instance(rng)
        r = random_realization(s, rng)
        total = run_policy(s, PolicySpec("max"), r, rng).outcome.total_weight
        assert abs(total - solve_offline_opt(s, r, 0.0).objective) <= EXACT_TOL


def test_criterion_03_lp_value_bounds_the_mean_offline_optimum():
    """Each relaxation dominates the enumerated optimum averaged over 200 draws."""
    rng = np.random.default_rng(33)
    for _ in range(50):
        s = random_instance(rng, max_donors=2, max_steps=2, cell_budget=4)
        realizations = [random_realization(s, rng) for _ in range(200)]
        for mode, lp_solve in (
            (MODE_FIXED, solve_fixedtime_lp),
            (MODE_RATE, solve_ratelimit_lp),
        ):
            for gamma in (0.0, 0.5, 1.0):
                vals = np.array(
                    [brute_force_opt(s, r, gamma, mode=mode)[0] for r in realizations]
                )
                sem = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
                assert lp_solve(s, gamma).objective >= vals.mean() - 3.0 * sem - EXACT_TOL


def three_donor_instance():
    donors = [
        Donor("u1", 0.0, 0.0, first_notify=1),
        Donor("u2", 0.0, 0.0, first_notify=2),
        Donor("u3", 0.0, 0.0, first_notify=1),
    ]
    recipients = [
        Recipient("A", 0.0, 0.0),
        Recipient("B", 0.0, 0.0, kind="dynamic"),
        Recipient("C", 0.0, 0.0),
    ]
    edges = [("u1", "A"), ("u1", "B"), ("u2", "A"), ("u2", "B"), ("u2", "C"), ("u3", "C")]
    weights = [0.9, 1.0, 0.6, 0.8, 0.5, 0.7]
    # any positive scores work here: the frequency law is about the plan
    # induced by whatever proportionality constraint the solve saw
    return build_scenario(
        donors=donors,
        recipients=recipients,
        edges=edges,
        weights=weights,
        availability={"B": 0.6},
        horizon=3,
        rate_limit=2,
        normalization={"A": 0.5, "B": 0.3, "C": 0.4},
    )


def test_criterion_04_scaled_plan_frequencies_match_the_lp_solution():
    """Per-cell match frequency tracks alpha * x* within 3 binomial errors."""
    s = three_donor_instance()
    alpha = default_alpha(s, MODE_FIXED)
    assert alpha == pytest.approx(1.0 / 3.0)
    lp = solve_fixedtime_lp(s, 0.5)
    trials = 100_000
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("nadaplp", gamma=0.5),
        trials=trials,
        realization_mode="resampled",
        rng=np.random.default_rng(44),
        lp=lp,
    )
    freq = agg.match_counts / trials
    target = alpha * lp.x
    se = np.sqrt(target * (1.0 - target) / trials)
    assert np.all(np.abs(freq - target) <= 3.0 * se + 1e-12)


def static_dynamic_instance():
    s = build_scenario(
        donors=[Donor("u", 0.0, 0.0, first_notify=1)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.0, 0.0, kind="dynamic")],
        edges=[("u", "A"), ("u", "B")],
        weights=[0.9, 1.0],
        availability={"B": 0.6},
        horizon=1,
        rate_limit=1,
        normalization={"A": 0.63, "B": 0.3},
    )
    return s


def test_criterion_05_planned_proportionality_is_met_in_expectation():
    """The proportional plan's empirical EP reaches gamma within 3 errors."""
    for s in (two_recipient_instance(), static_dynamic_instance()):
        m = norm_dict(s)
        for gamma in (0.25, 0.5, 1.0):
            agg = monte_carlo_evaluate(
                s,
                PolicySpec("nadapopt", gamma=gamma),
                trials=10_000,
                realization_mode="resampled",
                rng=np.random.default_rng(55),
            )
            assert empirical_ep(agg, m) >= gamma - ratio_slack(agg, m)


def test_criterion_06_adaptive_execution_dominates_its_own_plan():
    """AdaptMatch never scores below the plan it extends, per sweep gamma."""
    s = static_dynamic_instance()
    for j, gamma in enumerate(SWEEP_GAMMAS):
        planned = monte_carlo_evaluate(
            s,
            PolicySpec("nadapopt", gamma=gamma),
            trials=10_000,
            realization_mode="resampled",
            rng=np.random.default_rng([66, j]),
        )
        adaptive = monte_carlo_evaluate(
            s,
            PolicySpec("adaptmatch", gamma=gamma),
            trials=10_000,
            realization_mode="resampled",
            rng=np.random.default_rng([66, j]),
        )
        assert np.all(adaptive.totals >= planned.totals - EXACT_TOL)
        assert adaptive.mean_total_weight >= planned.mean_total_weight - EXACT_TOL


def test_criterion_07_closed_form_fixtures():
    """The hand instances hit their known fairness and weight values."""
    s = two_recipient_instance()
    m = norm_dict(s)
    max_agg = monte_carlo_evaluate(
        s, PolicySpec("max"), trials=2_000, realization_mode="resampled",
        rng=np.random.default_rng(70),
    )
    assert empirical_ep(max_agg, m) == 0.0

    rand_agg = monte_carlo_evaluate(
        s, PolicySpec("rand"), trials=10_000, realization_mode="resampled",
        rng=np.random.default_rng(71),
    )
    se = math.sqrt(
        sum((rand_agg.std_err_recipient[v] / m[v]) ** 2 for v in m)
    )
    assert empirical_ep(rand_agg, m) >= 1.0 - 3.0 * se

    n, eps = 5, 1e-6
    cr = build_scenario(
        donors=[Donor("u", 0.0, 0.0, first_notify=1)],
        recipients=[Recipient(f"v{j}", 0.0, 0.0) for j in range(n)],
        edges=[("u", f"v{j}") for j in range(n)],
        weights=[1.0] + [eps] * (n - 1),
        availability=None,
        horizon=1,
        rate_limit=1,
    )
    agg = monte_carlo_evaluate(
        cr, PolicySpec("rand"), trials=10_000, realization_mode="resampled",
        rng=np.random.default_rng(72),
    )
    expected = 1.0 / n + eps * (n - 1) / n
    assert abs(agg.mean_total_weight - expected) <= 3.0 * agg.std_err_total


def test_criterion_08_rate_limited_plans_are_always_valid():
    """The halved scale never overfills and the free probability stays >= 1/2."""
    rng = np.random.default_rng(88)
    for i in range(100):
        s = random_instance(rng, max_steps=4, cell_budget=None)
        gamma = (0.0, 0.5, 1.0)[i % 3]
        alpha = default_alpha(s, MODE_RATE)
        lp = solve_ratelimit_lp(s, gamma)
        beta = estimate_beta(s, gamma, alpha, lp=lp)
        nadaplp_rate_plan(s, gamma, alpha, beta, rng, lp=lp)  # must not raise
        assert beta.min() >= 0.5 - 1e-9


def test_criterion_09_bundled_cities_reproduce_the_qualitative_picture():
    """Four synthetic cities show the efficiency gap and the fairness frontier."""
    start = time.monotonic()
    fractions, max_gammas, rhos = {}, {}, {}
    for i, name in enumerate(CITY_NAMES):
        s = generate_city(load_bundled_config(name))
        assert s.horizon == 30 and s.rate_limit == 7
        m = estimate_normalization(
            s, trials=100, rng=np.random.default_rng([90, i]), protocol="expectation"
        )
        s = with_normalization(s, m)
        rows = sweep_rows(s, SWEEP_GAMMAS, trials=100, seed=91 + i)
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["policy"], []).append(row)
        fractions[name] = by_policy["rand"][0]["weight_fraction_of_max"]
        max_gammas[name] = by_policy["max"][0]["gamma_empirical"]
        adapt = by_policy["adaptmatch"]
        rhos[name] = spearmanr(
            [r["gamma_param"] for r in adapt],
            [r["gamma_empirical"] for r in adapt],
        )[0]
    elapsed = time.monotonic() - start

    assert all(0.5 <= f <= 0.9 for f in fractions.values()), fractions
    assert any(g == 0.0 for g in max_gammas.values()), max_gammas
    assert all(rho > 0.8 for rho in rhos.values()), rhos
    assert elapsed < 600.0


def test_criterion_10_same_seed_runs_are_byte_identical(tmp_path):
    """Repeating any command with one seed reproduces every output file."""
    outs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        gen = root / "gen"
        assert main(["generate", "city_small", "--out-dir", str(gen)]) == 0
        scenario = str(gen / "scenario.json")
        assert main(["run", scenario, "adaptmatch:0.5", "--trials", "20",
                     "--seed", "7", "--out-dir", str(root / "run")]) == 0
        assert main(["sweep", scenario, "--gammas", "0,0.5,1", "--trials", "20",
                     "--seed", "7", "--out-dir", str(root / "sweep")]) == 0
        outs.append(root)
    a, b = outs
    for rel in (
        "gen/scenario.json",
        "run/trials.csv",
        "run/aggregate.csv",
        "sweep/sweep.csv",
        "sweep/sweep.svg",
    ):
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
