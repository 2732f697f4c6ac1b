"""The rate-limited protocol: plan, blocking estimate, spacing in action.

In this mode a donor may be notified on any day once the limit has
cleared, so planning must account for donors still blocked by an
earlier match. The script solves the rate-limited relaxation, computes
the free probabilities beta (in closed form: one minus alpha times the
donor's relaxed mass over the previous K - 1 days), draws a plan, and
checks the spacing rule on simulated trials.
"""

import numpy as np

from donormatch import (
    MODE_RATE,
    Donor,
    PolicySpec,
    Recipient,
    build_scenario,
    default_alpha,
    estimate_beta,
    estimate_normalization,
    monte_carlo_evaluate,
    nadaplp_rate_plan,
    solve_ratelimit_lp,
    with_normalization,
)

s = build_scenario(
    donors=[Donor("u1", 40.0, -85.0, first_notify=1),
            Donor("u2", 40.0, -85.1, first_notify=1)],
    recipients=[Recipient("A", 40.0, -85.05),
                Recipient("B", 40.05, -85.0, kind="dynamic"),
                Recipient("C", 40.1, -85.1, kind="dynamic")],
    edges=[("u1", "A"), ("u1", "B"), ("u2", "B"), ("u2", "C")],
    weights=[0.6, 1.0, 0.9, 0.5],
    availability={"B": 0.5, "C": 0.7},
    horizon=8,
    rate_limit=3,
)
m = estimate_normalization(s, trials=2000, rng=np.random.default_rng(0),
                           protocol="expectation", mode=MODE_RATE)
s = with_normalization(s, m)
print(f"instance: {s.n_donors} donors over {s.horizon} days, "
      f"at most one match per donor per {s.rate_limit} days")
print()

gamma = 0.5
lp = solve_ratelimit_lp(s, gamma)
print(f"rate-limited relaxation at gamma {gamma}: objective {lp.objective:.4f}")
print("  induced donor availability a_ut (row per donor):")
for ui, donor in enumerate(s.donors):
    vals = " ".join(f"{a:.2f}" for a in lp.a[ui])
    print(f"    {donor.id}: {vals}")
print()

alpha = default_alpha(s, MODE_RATE)
print(f"rounding scale alpha = 1/(2D) = {alpha:.3f} "
      f"for maximum donor degree {round(1 / (2 * alpha))}")
beta = estimate_beta(s, gamma, alpha, lp=lp)
print(f"exact free probability beta: min {beta.min():.3f} "
      f"(the window rows guarantee at least 1 - alpha = {1 - alpha:.3f})")
print()

plan = nadaplp_rate_plan(s, gamma, alpha, beta, np.random.default_rng(2), lp=lp)
print("one drawn plan (donor, day, edge):")
for ui, donor in enumerate(s.donors):
    for t in range(1, s.horizon + 1):
        e = int(plan[ui, t - 1])
        if e >= 0:
            u, v = s.edges[e]
            print(f"  {donor.id} day {t}: {u}->{v}")
print()

policy = PolicySpec("nadaplp_rate", gamma=gamma, mode=MODE_RATE)
agg = monte_carlo_evaluate(s, policy, trials=2000, realization_mode="resampled",
                           rng=np.random.default_rng(3), lp=lp, beta=beta,
                           keep_trials=True)
print(f"simulated mean total weight over 2000 trials: "
      f"{agg.mean_total_weight:.4f} (se {agg.std_err_total:.4f})")

worst_gap = s.horizon
for tr in agg.trials:
    for row in tr.outcome.matched:
        gaps = np.diff(np.flatnonzero(row >= 0))
        worst_gap = min(worst_gap, int(gaps.min(initial=s.horizon)))
print(f"smallest day gap between two matches of one donor: {worst_gap} "
      f"(the rule requires at least {s.rate_limit})")
