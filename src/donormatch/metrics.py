"""Evaluation quantities: proportionality and matched-weight ratios.

The central measure is the empirical proportionality level of an
allocation: the largest gamma for which every recipient's normalized
outcome is at least gamma times every other's, which reduces to the
min/max ratio of the normalized outcomes. Two degenerate cases follow
from the definition rather than taste: an all-zero allocation satisfies
every gamma (level 1), and a mix of zero and positive outcomes satisfies
none (level 0).

Only recipients with a positive normalization score m_v are on that
scale. One rule holds here as in the solvers' band and on the command
line: a recipient with m_v = 0 is left off the scale, and a negative or
NaN score is refused (``graph.scored_mask`` decides both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .graph import scored_mask
from .simulate import AggregateResult


def _normalized(
    recipient_weight: Mapping[str, float], normalization: Mapping[str, float]
) -> Dict[str, float]:
    """Y_v/m_v for each recipient on the Gamma scale, in the given order."""
    ids = list(recipient_weight)
    for vid in ids:
        if vid not in normalization:
            raise ValueError(f"no normalization score for recipient {vid!r}")
    m = [float(normalization[vid]) for vid in ids]
    on = scored_mask(m, ids)
    return {vid: float(recipient_weight[vid]) / mv for vid, mv, k in zip(ids, m, on) if k}


def gamma_of(
    recipient_weight: Mapping[str, float], normalization: Mapping[str, float]
) -> float:
    """Largest gamma in [0, 1] with gamma * (Y_v/m_v) <= Y_w/m_w for all pairs.

    Equals min(Y_v/m_v) / max(Y_v/m_v), clamped to [0, 1], over the
    recipients with m_v > 0; those with m_v = 0 are off the scale and
    skipped. A missing, negative or NaN score raises ValueError.
    """
    normalized = list(_normalized(recipient_weight, normalization).values())
    if not normalized:
        return 1.0
    top = max(normalized)
    if top <= 0.0:
        return 1.0  # the empty allocation is proportional at every level
    bottom = min(normalized)
    if bottom <= 0.0:
        return 0.0
    return min(1.0, bottom / top)


def empirical_ep(aggregate: AggregateResult, normalization: Mapping[str, float]) -> float:
    """Proportionality level of the estimated expected allocation E[Y_v]."""
    return gamma_of(aggregate.mean_recipient_weight, normalization)


def competitive_fraction(policy_weight: float, reference: float) -> float:
    """policy_weight / reference, the share of a reference policy's weight."""
    if reference <= 0.0:
        raise ValueError(f"reference weight must be > 0, got {reference:g}")
    return float(policy_weight) / float(reference)


@dataclass(frozen=True)
class FairnessReport:
    """One policy's evaluation row.

    ``normalized`` maps each recipient on the Gamma scale (m_v > 0) to
    Y_v/m_v. ``lp_bound`` is the matching relaxation's objective when one
    was computed for the run.
    """

    gamma_empirical: float
    normalized: Dict[str, float]
    weight_fraction_of_max: float
    total_weight: float
    lp_bound: Optional[float] = None


def fairness_report(
    aggregate: AggregateResult,
    normalization: Mapping[str, float],
    max_weight: float,
    lp_bound: Optional[float] = None,
) -> FairnessReport:
    """Assemble the evaluation row for one aggregated policy run."""
    y = aggregate.mean_recipient_weight
    return FairnessReport(
        gamma_empirical=gamma_of(y, normalization),
        normalized=_normalized(y, normalization),
        weight_fraction_of_max=competitive_fraction(
            aggregate.mean_total_weight, max_weight
        ),
        total_weight=aggregate.mean_total_weight,
        lp_bound=lp_bound,
    )
