"""Exercise the optimization layer on a three-donor instance.

Covers the exact offline solve checked against exhaustive enumeration,
the fractional upper bound as the proportionality target tightens, the
non-adaptive planning program, and the atemporal existence question.
"""

import numpy as np

from donormatch import (
    Donor,
    Recipient,
    brute_force_opt,
    build_scenario,
    draw_realization,
    estimate_normalization,
    find_proportional_allocation,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_offline_opt,
    with_normalization,
)

s = build_scenario(
    donors=[Donor("u1", 40.0, -85.0, first_notify=1),
            Donor("u2", 40.0, -85.1, first_notify=2),
            Donor("u3", 40.1, -85.0, first_notify=1)],
    recipients=[Recipient("A", 40.0, -85.05),
                Recipient("B", 40.05, -85.0, kind="dynamic"),
                Recipient("C", 40.1, -85.1)],
    edges=[("u1", "A"), ("u1", "B"), ("u2", "B"),
           ("u2", "C"), ("u3", "A"), ("u3", "C")],
    weights=[0.9, 1.0, 0.6, 0.8, 0.5, 0.7],
    availability={"B": 0.6},
    horizon=2,
    rate_limit=2,
)

m = estimate_normalization(s, protocol="expectation")
s = with_normalization(s, m)
print("normalization scores, the uniform-random baseline's exact expected weights:")
for v, mv in m.items():
    print(f"  {v}: {mv:.4f}")
print()

r = draw_realization(s, np.random.default_rng(4))
print("offline optimum on one realization, exact solve vs enumeration")
for gamma in (0.0, 0.5, 1.0):
    sol = solve_offline_opt(s, r, gamma)
    ref, _ = brute_force_opt(s, r, gamma)
    print(f"  gamma {gamma:.1f}: solver {sol.objective:.6f}  "
          f"enumeration {ref:.6f}  gap {abs(sol.objective - ref):.2e}")
print()

print("fractional upper bound as the fairness target tightens")
for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
    lp = solve_fixedtime_lp(s, gamma)
    print(f"  gamma {gamma:.2f}: Z_LP {lp.objective:.4f}")
print()

plan = solve_nadapopt_lp(s, 0.5)
print(f"non-adaptive plan at gamma 0.5: expected weight {plan.objective:.4f}, "
      f"solution proportionality {plan.gamma:.3f}")
print("  day-1 pre-match probabilities y_e1:")
for e, (u, v) in enumerate(s.edges):
    if plan.x[e, 0] > 1e-9:
        print(f"    {u}->{v}: {plan.x[e, 0]:.4f}")
print()

for gamma in (0.5, 1.0):
    found = find_proportional_allocation(s, gamma)
    if found is None:
        print(f"no non-empty day-1 edge set is {gamma:g}-proportional")
    else:
        print(f"a {gamma:g}-proportional day-1 edge set exists: {found}")
