"""Walk through the core objects on a four-edge instance.

Builds a two-donor graph by hand, runs each myopic policy on one drawn
demand realization, and compares Monte Carlo means against exact
expectations from the enumeration oracle.
"""

import numpy as np

from donormatch import (
    Donor,
    Recipient,
    brute_force_policy_expectation,
    build_scenario,
    draw_realization,
    monte_carlo_evaluate,
    parse_policy,
    run_policy,
)

s = build_scenario(
    donors=[Donor("clinic_north", 0.0, 0.0, first_notify=1),
            Donor("clinic_south", 0.0, 0.1, first_notify=1)],
    recipients=[Recipient("ward_A", 0.0, 0.0),
                Recipient("ward_B", 0.1, 0.0, kind="dynamic")],
    edges=[("clinic_north", "ward_A"), ("clinic_north", "ward_B"),
           ("clinic_south", "ward_A"), ("clinic_south", "ward_B")],
    weights=[0.9, 1.0, 0.7, 0.4],
    availability={"ward_B": 0.6},
    horizon=2,
    rate_limit=1,
    normalization={"ward_A": 0.8, "ward_B": 0.5},
)
print(f"instance: {s.n_donors} donors, {s.n_recipients} recipients, "
      f"{s.n_edges} edges over {s.horizon} days")

rng = np.random.default_rng(1)
r = draw_realization(s, rng)
print(f"drawn availability for ward_B: {np.asarray(r.available)[1].tolist()}")
print()

print("one trial of each myopic policy on that realization")
for i, text in enumerate(("max", "rand", "randmax:0.4")):
    trial = run_policy(s, parse_policy(text), r, np.random.default_rng(20 + i))
    days = {}
    for tau, ui in zip(*np.nonzero(trial.outcome.matched.T >= 0)):
        u, v = s.edges[trial.outcome.matched[ui, tau]]
        days.setdefault(int(tau) + 1, []).append(f"{u}->{v}")
    print(f"  {text:12s} total weight {trial.outcome.total_weight:.3f}  {days}")
print()

print("Monte Carlo means vs the oracle's closed-form expectations")
for text in ("max", "rand", "randmax:0.4"):
    policy = parse_policy(text)
    agg = monte_carlo_evaluate(s, policy, trials=4000,
                               rng=np.random.default_rng(3), realization=r)
    exact = sum(brute_force_policy_expectation(s, policy, r).values())
    print(f"  {text:12s} simulated {agg.mean_total_weight:.4f} "
          f"(se {agg.std_err_total:.4f})  exact {exact:.4f}")
