"""Online matching of blood donors to donation opportunities.

The package simulates notification policies on a bipartite donor graph
under proportional-fairness targets. Build or generate a Scenario, pick
a PolicySpec, evaluate it with monte_carlo_evaluate, and read the
fairness numbers off a FairnessReport; the internal LP/MILP formulations
and the exhaustive test oracle are exposed alongside.
"""

from .graph import (
    DemandRealization,
    Donor,
    MatchingOutcome,
    MODE_FIXED,
    MODE_RATE,
    Recipient,
    Scenario,
    build_scenario,
    load_scenario,
    save_scenario,
    validate_outcome,
    validate_scenario,
    with_normalization,
)
from .metrics import (
    FairnessReport,
    competitive_fraction,
    empirical_ep,
    fairness_report,
    gamma_of,
)
from .oracle import (
    EnumerationError,
    brute_force_opt,
    brute_force_policy_expectation,
    find_proportional_allocation,
)
from .policies import (
    PolicySpec,
    default_alpha,
    estimate_beta,
    nadaplp_plan,
    nadaplp_rate_plan,
    nadapopt_plan,
    parse_policy,
)
from .simulate import (
    AggregateResult,
    TrialResult,
    draw_realization,
    estimate_normalization,
    monte_carlo_evaluate,
    run_policy,
)
from .solver import (
    LpSolution,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_offline_opt,
    solve_ratelimit_lp,
    solve_ratelimit_opt,
)
from .synthgen import (
    GeneratorConfig,
    UniformDisc,
    availability_profile,
    bundled_city_names,
    edge_weight,
    generate_city,
    haversine_km,
    load_bundled_config,
    load_config,
)

__all__ = [
    "AggregateResult",
    "DemandRealization",
    "Donor",
    "EnumerationError",
    "FairnessReport",
    "GeneratorConfig",
    "LpSolution",
    "MODE_FIXED",
    "MODE_RATE",
    "MatchingOutcome",
    "PolicySpec",
    "Recipient",
    "Scenario",
    "TrialResult",
    "UniformDisc",
    "availability_profile",
    "brute_force_opt",
    "brute_force_policy_expectation",
    "build_scenario",
    "bundled_city_names",
    "competitive_fraction",
    "default_alpha",
    "draw_realization",
    "edge_weight",
    "empirical_ep",
    "estimate_beta",
    "estimate_normalization",
    "fairness_report",
    "find_proportional_allocation",
    "gamma_of",
    "generate_city",
    "haversine_km",
    "load_bundled_config",
    "load_config",
    "load_scenario",
    "monte_carlo_evaluate",
    "nadaplp_plan",
    "nadaplp_rate_plan",
    "nadapopt_plan",
    "parse_policy",
    "run_policy",
    "save_scenario",
    "solve_fixedtime_lp",
    "solve_nadapopt_lp",
    "solve_offline_opt",
    "solve_ratelimit_lp",
    "solve_ratelimit_opt",
    "validate_outcome",
    "validate_scenario",
    "with_normalization",
]
