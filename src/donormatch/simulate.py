"""Time-stepped simulation driver.

Runs policies over the horizon through the decision kernel in
``policies`` and aggregates Monte Carlo statistics over trials.

Randomness is laid out so that runs are reproducible and trials are
independent of evaluation order. The master generator is consumed
exactly twice per evaluation: once for the per-trial Philox keys, once
for anything solved up front (the fixed realization, a beta estimate).
Each trial then owns counter-separated streams derived from its key:

    plan draw          counter [0, 0, 0, 1]
    realization draw   counter [0, 0, 0, 2]
    decisions          counter [0, 0, 0, 3]

The decision stream gives each trial one (U, T, 2) block of uniforms,
drawn only by the kinds that decide on the spot (rand, max, randmax,
adaptmatch). Cell (u, t) reads ``[u, t, 0:2]``, a coin and a pick, and
nothing else, so visiting donors in a different order cannot change any
decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .graph import (
    MODE_FIXED,
    DemandRealization,
    MatchingOutcome,
    Scenario,
    outcome_from_matches,
)
from .policies import (
    DRAW_KINDS,
    TRIAL_CHUNK,
    BetaEstimate,
    PolicySpec,
    PreMatchPlan,
    _match_edges,
    default_alpha,
    estimate_beta,
    nadaplp_plan,
    nadaplp_rate_plan,
    nadapopt_plan,
)
from .solver import (
    LpSolution,
    solve_fixedtime_lp,
    solve_nadapopt_lp,
    solve_ratelimit_lp,
)

_CTR_PLAN = 1
_CTR_REALIZATION = 2
_CTR_DECIDE = 3

# Simulated runs per fixed-point iteration of the beta estimate.
BETA_ESTIMATE_TRIALS = 200


@dataclass
class TrialResult:
    """One simulated run; ``seed`` is the trial's index under the master seed."""

    outcome: MatchingOutcome
    seed: int
    policy: PolicySpec


@dataclass
class AggregateResult:
    """Monte Carlo summary over trials.

    ``match_counts[e, t-1]`` counts the trials in which edge e was matched
    at step t; ``totals`` and ``recipient_totals`` keep every trial's
    total and per-recipient weights so callers can do paired comparisons
    and per-trial fairness counts. Full TrialResults are retained only on
    request.
    """

    mean_total_weight: float
    mean_recipient_weight: Dict[str, float]
    trial_count: int
    std_err_total: float
    std_err_recipient: Dict[str, float]
    totals: np.ndarray
    recipient_totals: np.ndarray
    match_counts: np.ndarray
    trials: Optional[List[TrialResult]] = None


def draw_realization(s: Scenario, rng: np.random.Generator) -> DemandRealization:
    """Independent Bernoulli(p_vt) draw per recipient and step."""
    hit = rng.random((s.n_recipients, s.horizon)) < s.availability
    return DemandRealization(hit.astype(np.int8))


def _trial_key(rng: np.random.Generator, n: int = 1) -> np.ndarray:
    return rng.integers(1 << 63, size=(n, 2), dtype=np.uint64)


def _stream(key: np.ndarray, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, block]))


def run_policy(
    s: Scenario,
    policy: PolicySpec,
    r: DemandRealization,
    rng: np.random.Generator,
    plan: Optional[PreMatchPlan] = None,
    seed: int = 0,
) -> TrialResult:
    """Run one trial of a policy over the horizon on realization r.

    Fixed-time mode lets a donor act exactly on its scheduled days;
    rate-limited mode lets it act whenever at least K steps have passed
    since its last match. Plan-based kinds require ``plan``; rng is the
    trial's decision stream.
    """
    if policy.needs_plan and plan is None:
        raise ValueError(f"policy {policy.kind} requires a pre-computed plan")
    matched = _match_trials(s, policy, [r], [plan], [rng])
    return _trial_result(s, policy, matched[0], seed)


def _match_trials(
    s: Scenario,
    policy: PolicySpec,
    realizations: Sequence[DemandRealization],
    plans: Sequence[Optional[PreMatchPlan]],
    streams: Sequence[np.random.Generator],
) -> np.ndarray:
    """(n, U, T) matched edge indices of n trials, one stream each."""
    assignment = uniforms = None
    if policy.needs_plan:
        assignment = np.stack([p.assignment for p in plans])
    if policy.kind in DRAW_KINDS:
        uniforms = np.stack([g.random((s.n_donors, s.horizon, 2)) for g in streams])
    coin = policy.gamma if policy.fallback_gamma is None else policy.fallback_gamma
    available = np.stack([np.asarray(r.available) != 0 for r in realizations])
    return _match_edges(s, policy.mode, policy.kind, coin, available, assignment, uniforms)


def _trial_result(
    s: Scenario, policy: PolicySpec, matched: np.ndarray, seed: int
) -> TrialResult:
    """TrialResult of one trial's (U, T) matched edge indices."""
    per_step = {
        tau + 1: [s.edges[e] for e in col if e >= 0]
        for tau, col in enumerate(matched.T.tolist())
    }
    return TrialResult(outcome=outcome_from_matches(s, per_step), seed=seed, policy=policy)


def estimate_normalization(
    s: Scenario,
    trials: int = 50,
    r: Optional[DemandRealization] = None,
    rng: Optional[np.random.Generator] = None,
    protocol: str = "fixed",
    mode: str = MODE_FIXED,
) -> Dict[str, float]:
    """Normalization scores m_v: the uniform-random policy's mean Y_v.

    ``protocol="fixed"`` averages over trials on the given realization
    (the experimental convention); ``protocol="expectation"`` redraws the
    realization each trial, in which case r is ignored.
    """
    if protocol not in ("fixed", "expectation"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "fixed" and r is None:
        raise ValueError("the fixed protocol needs the realization to hold fixed")
    if rng is None:
        rng = np.random.default_rng()
    agg = monte_carlo_evaluate(
        s,
        PolicySpec("rand", mode=mode),
        trials,
        realization_mode="fixed" if protocol == "fixed" else "resampled",
        rng=rng,
        realization=r,
    )
    return dict(agg.mean_recipient_weight)


def monte_carlo_evaluate(
    s: Scenario,
    policy: PolicySpec,
    trials: int,
    realization_mode: str = "fixed",
    rng: Optional[np.random.Generator] = None,
    realization: Optional[DemandRealization] = None,
    lp: Optional[LpSolution] = None,
    beta: Optional[BetaEstimate] = None,
    keep_trials: bool = False,
) -> AggregateResult:
    """Evaluate a policy over Monte Carlo trials.

    ``realization_mode="fixed"`` runs every trial on one realization (the
    one given, or a single draw); ``"resampled"`` draws a fresh one per
    trial. Plan-based kinds solve their LP once here and redraw the plan
    each trial; pass ``lp`` (and ``beta`` for the rate-limited rounding
    kind) to reuse existing solutions.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if realization_mode not in ("fixed", "resampled"):
        raise ValueError(f"unknown realization_mode {realization_mode!r}")
    if rng is None:
        rng = np.random.default_rng()

    keys = _trial_key(rng, trials)

    alpha = policy.alpha
    if alpha is None:
        alpha = default_alpha(s, policy.mode)
    if policy.kind == "nadaplp":
        lp = lp or solve_fixedtime_lp(s, policy.gamma)
    elif policy.kind in ("nadapopt", "adaptmatch"):
        lp = lp or solve_nadapopt_lp(s, policy.gamma)
    elif policy.kind == "nadaplp_rate":
        lp = lp or solve_ratelimit_lp(s, policy.gamma)
        if beta is None:
            beta = estimate_beta(s, policy.gamma, alpha, BETA_ESTIMATE_TRIALS, rng, lp=lp)

    fixed_r = None
    if realization_mode == "fixed":
        fixed_r = realization if realization is not None else draw_realization(s, rng)

    totals = np.zeros(trials)
    recip = np.zeros((trials, s.n_recipients))
    match_counts = np.zeros((s.n_edges, s.horizon))
    kept: Optional[List[TrialResult]] = [] if keep_trials else None

    def plan_of(key):
        plan_rng = _stream(key, _CTR_PLAN)
        if policy.kind == "nadaplp":
            return nadaplp_plan(s, policy.gamma, alpha, plan_rng, lp=lp)
        if policy.kind == "nadaplp_rate":
            return nadaplp_rate_plan(s, policy.gamma, alpha, beta, plan_rng, lp=lp)
        return nadapopt_plan(s, policy.gamma, plan_rng, lp=lp)

    for lo in range(0, trials, TRIAL_CHUNK):
        chunk = keys[lo : lo + TRIAL_CHUNK]
        rows = slice(lo, lo + len(chunk))
        if fixed_r is None:
            realizations = [draw_realization(s, _stream(k, _CTR_REALIZATION)) for k in chunk]
        else:
            realizations = [fixed_r] * len(chunk)
        matched = _match_trials(
            s,
            policy,
            realizations,
            [plan_of(k) if policy.needs_plan else None for k in chunk],
            [_stream(k, _CTR_DECIDE) for k in chunk],
        )
        # Matches in (trial, step, donor) order, the order in which
        # outcome_from_matches adds up each recipient's weight, and totals
        # summed over recipients as it does, so results keep their bits.
        i, tau, ui = np.nonzero(matched.transpose(0, 2, 1) >= 0)
        e = matched[i, ui, tau]
        np.add.at(recip, (lo + i, s.edge_recipient[e]), s.weights[e, tau])
        np.add.at(match_counts, (e, tau), 1.0)
        totals[rows] = [sum(y) for y in recip[rows].tolist()]
        if kept is not None:
            kept += [_trial_result(s, policy, m, lo + j) for j, m in enumerate(matched)]

    mean_recip = recip.mean(axis=0)
    se_recip = _std_err(recip)
    return AggregateResult(
        mean_total_weight=float(totals.mean()),
        mean_recipient_weight={
            v.id: float(mean_recip[j]) for j, v in enumerate(s.recipients)
        },
        trial_count=trials,
        std_err_total=float(_std_err(totals[:, None])[0]),
        std_err_recipient={
            v.id: float(se_recip[j]) for j, v in enumerate(s.recipients)
        },
        totals=totals,
        recipient_totals=recip,
        match_counts=match_counts,
        trials=kept,
    )


def _std_err(columns: np.ndarray) -> np.ndarray:
    n = columns.shape[0]
    if n < 2:
        return np.zeros(columns.shape[1])
    return columns.std(axis=0, ddof=1) / np.sqrt(n)
