"""Time-stepped simulation driver.

Runs policies over the horizon through the decision kernel in
``policies`` and aggregates Monte Carlo statistics over trials; the
normalization scores need none (``estimate_normalization`` is exact).

Randomness is laid out so that runs are reproducible and trials are
independent of evaluation order. The master generator is drawn from at
most twice per evaluation: once for the per-trial Philox keys, and once
for the fixed realization when the caller gives none. Each trial then
owns counter-separated streams derived from its key:

    plan draw          counter [0, 0, 0, 1]
    realization draw   counter [0, 0, 0, 2]
    decisions          counter [0, 0, 0, 3]

The streams stay per trial, but a Monte Carlo evaluation draws them a
chunk of trials at a time from one Philox re-keyed for each trial
(``_draws``), which yields exactly the numbers of that trial's own
``_stream``. A trial's realization is one (V, T) block of its
realization stream, since the kernel reads every recipient at every step.

The plan and decision streams hold one entry per decision cell, in the
order of ``policies.decision_cells``: the scheduled (donor, step) cells
in fixed-time mode, every cell in rate-limited mode. Plan kinds compute
their pre-match probabilities once per evaluation; each trial's plan is
drawn from one (cells,) block of its plan stream. The decision stream
gives each trial one (cells, 2) block of uniforms, drawn only by the
kinds that decide on the spot (rand, max, randmax, adaptmatch). The i-th
cell reads ``[i, 0:2]``, a coin and a pick, and nothing else, so visiting
donors in a different order cannot change any decision, and a
fixed-time trial draws nothing for the cells its donors never act on.

The kernel's (U, T) matched edge indices are the trial's outcome as they
stand (``MatchingOutcome.matched``); recipient totals of a single trial
and of a Monte Carlo batch come from the one accumulator
``graph.matched_weights``, so both agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .graph import (
    MODE_FIXED,
    MODE_RATE,
    DemandRealization,
    MatchingOutcome,
    Scenario,
    matched_weights,
    outcome_from_matches,
    weight_total,
)
from .policies import (
    CHUNK_CELLS,
    DRAW_KINDS,
    PolicySpec,
    _check_plan,
    _draw_assignment,
    _match_edges,
    decision_cells,
    plan_probabilities,
)
from .solver import LpSolution, _realized

_CTR_PLAN = 1
_CTR_REALIZATION = 2
_CTR_DECIDE = 3


@dataclass
class TrialResult:
    """One simulated run; ``seed`` is the trial's index under the master seed.

    ``outcome.matched`` holds edge indices; ``s.edges[e]`` names an edge.
    """

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
    plan: Optional[np.ndarray] = None,
    seed: int = 0,
) -> TrialResult:
    """Run one trial of a policy over the horizon on realization r.

    Fixed-time mode lets a donor act exactly on its scheduled days;
    rate-limited mode lets it act whenever at least K steps have passed
    since its last match. Plan-based kinds require ``plan``, the (U, T)
    pre-matched edge indices (refused unless each entry is -1 or an edge of
    its row's donor), of which only the decision cells
    (``decision_cells``) are read; rng is the trial's decision stream,
    from which the deciding kinds draw one (cells, 2) block.
    """
    if policy.needs_plan and plan is None:
        raise ValueError(f"policy {policy.kind} requires a pre-computed plan")
    cells = decision_cells(s, policy.mode)
    plans = None if plan is None else _check_plan(s, plan).reshape(1, -1)[:, cells]
    uniforms = None
    if policy.kind in DRAW_KINDS:
        uniforms = rng.random((cells.size, 2))[None]
    available = (np.asarray(r.available) != 0)[None]
    matched = _match_edges(s, policy.mode, policy.kind, policy.gamma, available, plans, uniforms)
    return TrialResult(outcome_from_matches(s, matched[0]), seed, policy)


def _draws(keys: np.ndarray, counter: int, shape: Sequence[int]) -> np.ndarray:
    """Each key's ``_stream(key, counter).random(shape)``, stacked: (len(keys), *shape).

    One Philox is re-keyed per key instead of one generator built per key.
    Each re-key also empties the output buffer, so no word drawn under one
    key is read under the next.
    """
    out = np.empty((len(keys), *shape))
    bits = np.random.Philox(0)
    g = np.random.Generator(bits)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, 0, counter], dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    inner = state["state"]
    for key, row in zip(keys.tolist(), out):
        inner["key"] = key
        bits.state = state
        g.random(out=row)
    return out


def estimate_normalization(
    s: Scenario,
    trials: int = 50,
    r: Optional[DemandRealization] = None,
    rng: Optional[np.random.Generator] = None,
    protocol: str = "fixed",
    mode: str = MODE_FIXED,
) -> Dict[str, float]:
    """Normalization scores m_v: the uniform-random policy's exact E[Y_v].

    ``protocol="fixed"`` takes it on the given realization (the experimental
    convention), ``protocol="expectation"`` over the availability as well,
    ignoring r: one computation, with p the realization's 0/1 entries or
    ``s.availability``. A free donor matches its edge i with probability
    p_i E[1/(1 + X)], X counting its other open edges; that is the integral
    over [0, 1] of prod_{j != i} (1 - p_j + p_j z), of degree below D, which
    a D-node quadrature integrates exactly. A fixed-time donor is free on its
    scheduled days, a rate-limited one at t with chance f_ut = 1 - sum of
    f_us q_us over the K - 1 steps s before t, q_us being the chance that
    some edge of u is open at s (the matches that block t fall in disjoint
    steps). ``trials`` and ``rng`` are accepted and ignored: they fed the
    Monte Carlo estimate this replaced.
    """
    if protocol not in ("fixed", "expectation"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "fixed" and r is None:
        raise ValueError("the fixed protocol needs the realization to hold fixed")
    if mode not in (MODE_FIXED, MODE_RATE):
        raise ValueError(f"unknown mode {mode!r}")
    avail = s.availability if protocol == "expectation" else _realized(s, r).astype(float)
    table = s.donor_edge_table
    edge, real = np.maximum(table, 0), table >= 0
    p = np.where(real[..., None], avail[s.edge_recipient[edge]], 0.0)  # (U, D, T)
    # Fejer's first rule on [0, 1]: D interior nodes z and weights g, exact to degree D - 1.
    n = table.shape[1]
    theta = np.pi * (np.arange(n) + 0.5) / n
    j = np.arange(1, n // 2 + 1)[:, None]
    z = (1.0 - np.cos(theta)) / 2.0
    g = (1.0 - 2.0 * (np.cos(2 * j * theta) / (4.0 * j * j - 1.0)).sum(axis=0)) / n
    share = np.zeros_like(p)
    for zk, gk in zip(z, g):
        factor = 1.0 - p + p * zk  # above 0, as zk is
        share += gk * factor.prod(axis=1, keepdims=True) / factor
    share *= p
    free = s.donor_schedule.astype(float)  # f_ut; rate mode overwrites it step by step
    if mode == MODE_RATE:
        blocks = 1.0 - (1.0 - p).prod(axis=1)  # q_ut, times f_ut once known
        for t in range(s.horizon):
            free[:, t] = 1.0 - blocks[:, max(t - s.rate_limit + 1, 0) : t].sum(axis=1)
            blocks[:, t] *= free[:, t]
    y = (free[:, None] * share * s.weights[edge]).sum(axis=-1)[real]
    m = np.bincount(s.edge_recipient[edge[real]], y, minlength=s.n_recipients)
    return {v.id: float(m[i]) for i, v in enumerate(s.recipients)}


def monte_carlo_evaluate(
    s: Scenario,
    policy: PolicySpec,
    trials: int,
    realization_mode: str = "fixed",
    rng: Optional[np.random.Generator] = None,
    realization: Optional[DemandRealization] = None,
    lp: Optional[LpSolution] = None,
    beta: Optional[np.ndarray] = None,
    keep_trials: bool = False,
) -> AggregateResult:
    """Evaluate a policy over Monte Carlo trials.

    ``realization_mode="fixed"`` runs every trial on one realization (the
    one given, or a single draw); ``"resampled"`` draws a fresh one per
    trial. Plan-based kinds take their pre-match probabilities once, from
    ``plan_probabilities``, and redraw the plan each trial; ``lp`` and the
    rate-limited rounding kind's (U, T) ``beta`` are handed to it, which
    solves the relaxation and takes ``estimate_beta``'s closed form when
    they are None.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if realization_mode not in ("fixed", "resampled"):
        raise ValueError(f"unknown realization_mode {realization_mode!r}")
    if rng is None:
        rng = np.random.default_rng()

    keys = _trial_key(rng, trials)

    probs = plan_probabilities(s, policy, lp, beta) if policy.needs_plan else None

    fixed = None
    if realization_mode == "fixed":
        r = realization if realization is not None else draw_realization(s, rng)
        fixed = np.asarray(r.available) != 0

    recip = np.zeros((trials, s.n_recipients))
    kept: Optional[List[TrialResult]] = [] if keep_trials else None

    U, V, T, E = s.n_donors, s.n_recipients, s.horizon, s.n_edges
    cells = decision_cells(s, policy.mode)
    match_counts = np.zeros((E, T))
    per_chunk = max(1, CHUNK_CELLS // max(U * T, 1))
    for lo in range(0, trials, per_chunk):
        chunk = keys[lo : lo + per_chunk]
        if fixed is None:
            available = _draws(chunk, _CTR_REALIZATION, (V, T)) < s.availability
        else:
            available = np.broadcast_to(fixed, (len(chunk), V, T))
        plans = uniforms = None
        if probs is not None:
            plans = _draw_assignment(s, probs, _draws(chunk, _CTR_PLAN, (cells.size,)), cells)
        if policy.kind in DRAW_KINDS:
            uniforms = _draws(chunk, _CTR_DECIDE, (cells.size, 2))
        matched = _match_edges(
            s, policy.mode, policy.kind, policy.gamma, available, plans, uniforms
        )
        recip[lo : lo + len(chunk)] = matched_weights(s, matched)
        at = (matched * T + np.arange(T))[matched >= 0]
        match_counts += np.bincount(at, None, E * T).reshape(E, T)
        if kept is not None:
            kept += [
                TrialResult(outcome_from_matches(s, m), lo + j, policy)
                for j, m in enumerate(matched)
            ]

    totals = weight_total(recip)
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
