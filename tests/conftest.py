from __future__ import annotations

from typing import Optional

import numpy as np

from donormatch.graph import (
    Donor,
    Recipient,
    Scenario,
    build_scenario,
    DemandRealization,
)


def two_recipient_instance(normalization=True) -> Scenario:
    """One donor, edges of weight 0.9 to A and 1.0 to B, one step.

    The worked instance behind several policy fixtures: Rand gives each
    recipient half the mass, so m = (0.45, 0.5).
    """
    return build_scenario(
        donors=[Donor("u", 0.0, 0.0, first_notify=1)],
        recipients=[Recipient("A", 0.0, 0.0), Recipient("B", 0.0, 0.1)],
        edges=[("u", "A"), ("u", "B")],
        weights=[0.9, 1.0],
        availability=None,
        horizon=1,
        rate_limit=1,
        normalization={"A": 0.45, "B": 0.5} if normalization else None,
    )


def two_step_rate_instance(w1: float = 1.0, w2: float = 1.0) -> Scenario:
    """One donor, one always-on recipient, two steps, K=2."""
    return build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0)],
        edges=[("u", "v")],
        weights=[[w1, w2]],
        availability=None,
        horizon=2,
        rate_limit=2,
    )


def single_edge_instance(p: float = 0.5, weight: float = 1.0) -> Scenario:
    """One donor, one dynamic recipient with availability p, one step."""
    return build_scenario(
        donors=[Donor("u", 0.0, 0.0)],
        recipients=[Recipient("v", 0.0, 0.0, kind="dynamic")],
        edges=[("u", "v")],
        weights=[weight],
        availability={"v": p},
        horizon=1,
        rate_limit=1,
    )


def all_ones_realization(s: Scenario) -> DemandRealization:
    return DemandRealization(np.ones((s.n_recipients, s.horizon), dtype=np.int8))


def random_instance(
    rng: np.random.Generator,
    max_donors: int = 3,
    max_recipients: int = 3,
    max_steps: int = 3,
    cell_budget: Optional[int] = 8,
    with_normalization: bool = True,
) -> Scenario:
    """Small random scenario for oracle-vs-solver comparisons.

    Sizes are drawn so that donors * horizon stays within the enumeration
    oracle's cell budget when one is given. Weights are continuous uniform,
    so objective ties between genuinely different matchings have measure
    zero. Roughly half the recipients are dynamic with availability
    re-drawn per step; normalization scores, when requested, are synthetic
    positive values (the proportionality math takes any m > 0).
    """
    while True:
        U = int(rng.integers(1, max_donors + 1))
        T = int(rng.integers(1, max_steps + 1))
        if cell_budget is None or U * T <= cell_budget:
            break
    V = int(rng.integers(1, max_recipients + 1))
    K = int(rng.integers(1, max(2, T) + 1))

    donors = [
        Donor(f"u{i}", 0.0, 0.0, first_notify=int(rng.integers(1, K + 1)))
        for i in range(U)
    ]
    recipients = [
        Recipient(f"v{j}", 0.0, 0.0, kind="static" if rng.random() < 0.5 else "dynamic")
        for j in range(V)
    ]
    edges = []
    for i in range(U):
        for j in range(V):
            if rng.random() < 0.7:
                edges.append((f"u{i}", f"v{j}"))
    if not edges:
        edges.append((donors[0].id, recipients[0].id))

    weights = [rng.uniform(0.05, 1.0, size=T) for _ in edges]
    availability = {
        v.id: rng.uniform(0.2, 1.0, size=T) for v in recipients if v.kind == "dynamic"
    }
    normalization = (
        {v.id: float(rng.uniform(0.2, 1.5)) for v in recipients}
        if with_normalization
        else None
    )
    return build_scenario(
        donors=donors,
        recipients=recipients,
        edges=edges,
        weights=weights,
        availability=availability,
        horizon=T,
        rate_limit=K,
        normalization=normalization,
    )


def random_realization(s: Scenario, rng: np.random.Generator) -> DemandRealization:
    avail = (rng.random((s.n_recipients, s.horizon)) < s.availability).astype(np.int8)
    return DemandRealization(avail)


def reference_draw(s: Scenario, probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """A plan's categorical draw walked cell by cell over (..., U, T) uniforms:
    the first edge whose running total exceeds the cell's number, else -1."""
    out = np.full(uniforms.shape, -1, dtype=np.int64)
    for cell in np.ndindex(uniforms.shape):
        u, t = cell[-2:]
        total = 0.0
        for e in s.donor_edges[u]:
            total = total + probs[e, t]
            if uniforms[cell] < total:
                out[cell] = e
                break
    return out
