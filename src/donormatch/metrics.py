"""Evaluation quantities: proportionality and matched-weight ratios.

The central measure is the empirical proportionality level of an
allocation: the largest gamma for which every recipient's normalized
outcome is at least gamma times every other's, which reduces to the
min/max ratio of the normalized outcomes. Two degenerate cases follow
from the definition rather than taste: an all-zero allocation satisfies
every gamma (level 1), and a mix of zero and positive outcomes satisfies
none (level 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .simulate import AggregateResult


def gamma_of(
    recipient_weight: Mapping[str, float], normalization: Mapping[str, float]
) -> float:
    """Largest gamma in [0, 1] with gamma * (Y_v/m_v) <= Y_w/m_w for all pairs.

    Equals min(Y_v/m_v) / max(Y_v/m_v), clamped to [0, 1]. Every recipient
    present must have a positive normalization score; use fairness_report
    for the forgiving variant that excludes m_v = 0 recipients instead.
    """
    normalized = []
    for vid, y in recipient_weight.items():
        if vid not in normalization:
            raise ValueError(f"no normalization score for recipient {vid!r}")
        m = float(normalization[vid])
        if m <= 0.0:
            raise ValueError(
                f"normalization score for recipient {vid!r} is {m:g}, must be > 0"
            )
        normalized.append(float(y) / m)
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

    ``normalized`` maps each scored recipient to Y_v/m_v; recipients
    dropped for lacking a positive m_v are listed in ``excluded``.
    ``lp_bound`` is the matching relaxation's objective when one was
    computed for the run.
    """

    gamma_empirical: float
    normalized: Dict[str, float]
    weight_fraction_of_max: float
    total_weight: float
    lp_bound: Optional[float] = None
    excluded: Tuple[str, ...] = field(default_factory=tuple)


def scored_recipients(
    recipient_weight: Mapping[str, float], normalization: Mapping[str, float]
) -> Tuple[Dict[str, float], Tuple[str, ...]]:
    """Split recipients by whether they have a positive normalization score.

    Returns the weights of the scored recipients, in their given order,
    and the sorted ids of the rest, which gamma_of cannot place on the
    proportionality scale.
    """
    kept = {
        vid: y
        for vid, y in recipient_weight.items()
        if float(normalization.get(vid, 0.0)) > 0.0
    }
    return kept, tuple(sorted(set(recipient_weight) - set(kept)))


def fairness_report(
    aggregate: AggregateResult,
    normalization: Mapping[str, float],
    max_weight: float,
    lp_bound: Optional[float] = None,
) -> FairnessReport:
    """Assemble the evaluation row for one aggregated policy run.

    Recipients without a positive normalization score cannot be placed on
    the proportionality scale; they are excluded from gamma with a warning
    naming them, and recorded in the report, rather than failing the run.
    """
    kept, excluded = scored_recipients(aggregate.mean_recipient_weight, normalization)
    if excluded:
        warnings.warn(
            "recipients excluded from the proportionality measure for lack of a "
            f"positive normalization score: {list(excluded)}",
            stacklevel=2,
        )
    return FairnessReport(
        gamma_empirical=gamma_of(kept, normalization),
        normalized={
            vid: float(y) / float(normalization[vid]) for vid, y in kept.items()
        },
        weight_fraction_of_max=competitive_fraction(
            aggregate.mean_total_weight, max_weight
        ),
        total_weight=aggregate.mean_total_weight,
        lp_bound=lp_bound,
        excluded=excluded,
    )
