"""Instance data model for donor-to-opportunity matching.

Holds the donation graph (donor and recipient vertices with their
admissible edges), per-edge-per-step
weights, recipient availability distributions, donor notification schedules
and the per-recipient normalization scores, plus the structural queries the
rest of the package builds on.

Time steps are 1-based everywhere in the public interface; the backing
numpy arrays use column ``t - 1``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Edge = Tuple[str, str]

STATIC = "static"
DYNAMIC = "dynamic"

MODE_FIXED = "fixed_time"
MODE_RATE = "rate_limited"


@dataclass(frozen=True)
class Donor:
    """A donor: opaque id, location in degrees, first notification day."""

    id: str
    lat: float
    lon: float
    first_notify: int = 1


@dataclass(frozen=True)
class Recipient:
    """A donation opportunity, either always available or stochastically so."""

    id: str
    lat: float
    lon: float
    kind: str = STATIC


@dataclass(frozen=True)
class Scenario:
    """A full matching instance.

    Attributes
    ----------
    donors, recipients : tuple
        Entity records in index order; ids are opaque strings and all hot
        paths go through the dense integer indices below.
    edges : tuple of (donor_id, recipient_id)
        The admissible pairs.
    weights : ndarray, shape (E, T)
        Match value w_et for edge e at step t.
    availability : ndarray, shape (V, T)
        Availability probability p_vt; 1.0 at every step for static
        recipients.
    donor_schedule : ndarray, shape (U, T)
        Fixed-time notification indicator a_ut, derived from each donor's
        first-notify day and the rate limit K (1 exactly every K days).
    horizon : int
        Number of days T.
    rate_limit : int
        Minimum spacing K between notifications of one donor.
    normalization : ndarray, shape (V,), optional
        Per-recipient score m_v; None until estimated.
    """

    donors: Tuple[Donor, ...]
    recipients: Tuple[Recipient, ...]
    edges: Tuple[Edge, ...]
    weights: np.ndarray
    availability: np.ndarray
    donor_schedule: np.ndarray
    horizon: int
    rate_limit: int
    normalization: Optional[np.ndarray] = None

    @cached_property
    def donor_index(self) -> Dict[str, int]:
        return {d.id: i for i, d in enumerate(self.donors)}

    @cached_property
    def recipient_index(self) -> Dict[str, int]:
        return {v.id: i for i, v in enumerate(self.recipients)}

    @cached_property
    def edge_donor(self) -> np.ndarray:
        """Donor index of each edge."""
        return np.array([self.donor_index[e[0]] for e in self.edges], dtype=np.int64)

    @cached_property
    def edge_recipient(self) -> np.ndarray:
        """Recipient index of each edge."""
        return np.array(
            [self.recipient_index[e[1]] for e in self.edges], dtype=np.int64
        )

    @cached_property
    def donor_edge_table(self) -> np.ndarray:
        """(U, D) edge indices of each donor in edge order, -1 past its degree."""
        counts = np.bincount(self.edge_donor, minlength=len(self.donors))
        table = np.full((len(self.donors), int(counts.max(initial=0))), -1, dtype=np.int64)
        order = np.argsort(self.edge_donor, kind="stable")
        slot = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
        table[self.edge_donor[order], slot] = order
        return table

    @cached_property
    def donor_edges(self) -> Tuple[np.ndarray, ...]:
        """Edge indices adjacent to each donor, in edge order."""
        return tuple(row[row >= 0] for row in self.donor_edge_table)

    @property
    def n_donors(self) -> int:
        return len(self.donors)

    @property
    def n_recipients(self) -> int:
        return len(self.recipients)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DemandRealization:
    """One binary draw of recipient availability, shape (V, T)."""

    available: np.ndarray


@dataclass
class MatchingOutcome:
    """One matching: ``matched[u, t-1]`` is donor u's edge index at step t, or -1.

    ``recipient_weight[v]`` is Y_v, the weight matched to recipient v, and
    ``total_weight`` their sum. Ids appear only where a matching is
    printed or written out (``s.edges[e]``).
    """

    matched: np.ndarray
    recipient_weight: np.ndarray
    total_weight: float


def fixed_schedule(first_notify: int, horizon: int, rate_limit: int) -> np.ndarray:
    """A donor's 0/1 schedule row: 1 on the days first_notify + k * rate_limit, k >= 0."""
    row = np.zeros(horizon, dtype=np.int8)
    t = int(first_notify) - 1
    row[max(t, t % rate_limit) :: rate_limit] = 1
    return row


StepSpec = Union[float, Sequence[float], Mapping[Union[int, str], float]]


def _step_row(
    spec: StepSpec, horizon: int, default: Optional[float], what: str, label: str
) -> np.ndarray:
    """Expand one per-step spec to length T: a constant, a length-T list or a {t: value} map.

    A map's keys are the steps 1..T, as ints or strings of ints. The steps it
    leaves out take ``default``; with no default, a step left out is an error.
    """
    if isinstance(spec, Mapping):
        row = np.full(horizon, np.nan if default is None else default)
        for key, val in spec.items():
            integral = isinstance(key, (int, np.integer)) and not isinstance(key, bool)
            if not (integral or isinstance(key, str) and re.fullmatch(r"\s*[+-]?\d+\s*", key)):
                raise ValueError(f"{what} step {key!r} is not an integer for {label}")
            if not 1 <= int(key) <= horizon:
                raise ValueError(f"{what} step {key} outside 1..{horizon} for {label}")
            row[int(key) - 1] = float(val)
        if np.isnan(row).any():
            raise ValueError(f"missing {what} at t={np.argmax(np.isnan(row)) + 1} for {label}")
        return row
    if np.ndim(spec) == 0:
        return np.full(horizon, float(spec))
    arr = np.asarray(spec, dtype=float)
    if arr.shape != (horizon,):
        raise ValueError(f"{what} list for {label} has length {arr.size}, want {horizon}")
    return arr


def _refuse_unknown(keys, known, what: str) -> None:
    """Raise ValueError "<what> [...]" naming the ``keys`` not in ``known``."""
    unknown = set(keys) - set(known)
    if unknown:
        raise ValueError(f"{what} {sorted(map(str, unknown))}")


def _normalization_array(
    m: Union[np.ndarray, Mapping[str, float]], recipients: Sequence[Recipient]
) -> np.ndarray:
    """Scores in recipient order from an array (V,) or a map naming every recipient's id."""
    if isinstance(m, Mapping):
        ids = [v.id for v in recipients]
        _refuse_unknown(m, ids, "normalization given for unknown recipients")
        _refuse_unknown(ids, m, "normalization missing for recipients")
        return np.array([float(m[v.id]) for v in recipients])
    arr = np.asarray(m, dtype=float)
    if arr.shape != (len(recipients),):
        raise ValueError(f"normalization array has shape {arr.shape}, want {(len(recipients),)}")
    return arr


def scored_mask(m, ids: Sequence[str]) -> np.ndarray:
    """Which recipients are on the Gamma scale, given scores m in the order of ``ids``.

    A recipient with m_v > 0 is on it and one with m_v = 0 is off it; a score
    that is not >= 0 (negative or NaN) is refused, naming every such id.
    """
    m = np.asarray(m, dtype=float)
    bad = np.flatnonzero(~(m >= 0.0))
    if bad.size:
        raise ValueError(
            f"nonnegative normalization scores required, not >= 0 for {[ids[i] for i in bad]}"
        )
    return m > 0.0


def build_scenario(
    donors: Sequence[Donor],
    recipients: Sequence[Recipient],
    edges: Sequence[Edge],
    weights: Union[np.ndarray, Sequence[StepSpec]],
    availability: Union[np.ndarray, Mapping[str, StepSpec], None],
    horizon: int,
    rate_limit: int,
    normalization: Union[np.ndarray, Mapping[str, float], None] = None,
) -> Scenario:
    """Assemble a Scenario from arrays or per-entity specs.

    Parameters
    ----------
    weights : array (E, T) or list parallel to ``edges``
        Each list entry is a constant (the same weight at every step), a
        length-T list, or a {t: weight} map covering every step.
    availability : array (V, T) or map keyed by recipient id
        Each map entry takes the same three forms. Recipients the map leaves
        out, and the steps an entry's map leaves out, default to 1.0 for
        static recipients and 0 for dynamic ones.
    normalization : array (V,) or map keyed by recipient id, optional
        A map names every recipient; a score of 0 puts one off the Gamma
        scale.

    Returns
    -------
    Scenario
        With the fixed-time schedule materialized from each donor's
        first-notify day. Semantic problems (out-of-range weights and the
        like) are left to ``validate_scenario``; structural errors (unknown
        ids, wrong shapes or lengths, steps outside 1..T, a rate limit
        below 1) raise ValueError here.
    """
    donors = tuple(donors)
    recipients = tuple(recipients)
    edges = tuple((str(u), str(v)) for u, v in edges)
    T = int(horizon)
    E, V = len(edges), len(recipients)
    if int(rate_limit) < 1:
        raise ValueError(f"rate_limit {rate_limit} < 1")

    if isinstance(weights, np.ndarray):
        W = np.asarray(weights, dtype=float)
        if W.shape != (E, T):
            raise ValueError(f"weights array has shape {W.shape}, want {(E, T)}")
    else:
        specs = list(weights)
        if len(specs) != E:
            raise ValueError(f"{len(specs)} weight entries for {E} edges")
        W = np.empty((E, T), dtype=float)
        for e, spec in enumerate(specs):
            W[e] = _step_row(spec, T, None, "weight", f"edge {edges[e]}")

    if isinstance(availability, np.ndarray):
        P = np.asarray(availability, dtype=float)
        if P.shape != (V, T):
            raise ValueError(f"availability array has shape {P.shape}, want {(V, T)}")
    else:
        avail_map = availability or {}
        ids = [v.id for v in recipients]
        _refuse_unknown(avail_map, ids, "availability given for unknown recipients")
        P = np.empty((V, T), dtype=float)
        for i, rec in enumerate(recipients):
            spec = avail_map.get(rec.id)
            P[i] = _step_row(
                {} if spec is None else spec,
                T,
                1.0 if rec.kind == STATIC else 0.0,
                "availability",
                f"recipient {rec.id}",
            )

    m = None if normalization is None else _normalization_array(normalization, recipients)

    A = np.stack(
        [fixed_schedule(d.first_notify, T, int(rate_limit)) for d in donors]
    ) if donors else np.zeros((0, T), dtype=np.int8)

    return Scenario(
        donors=donors,
        recipients=recipients,
        edges=edges,
        weights=W,
        availability=P,
        donor_schedule=A,
        horizon=T,
        rate_limit=int(rate_limit),
        normalization=m,
    )


def validate_scenario(s: Scenario) -> List[str]:
    """Check every Scenario invariant, returning one message per violation.

    An empty list means the scenario is valid. Violations name the
    offending entity; nothing is raised.
    """
    out: List[str] = []
    T = s.horizon

    if T < 1:
        out.append(f"horizon {T} < 1")
    if s.rate_limit < 1:
        out.append(f"rate_limit {s.rate_limit} < 1")

    donor_ids = [d.id for d in s.donors]
    recipient_ids = [v.id for v in s.recipients]
    for what, ids in (("donor", donor_ids), ("recipient", recipient_ids)):
        if len(set(ids)) != len(ids):
            out.append(f"duplicate {what} ids {sorted({i for i in ids if ids.count(i) > 1})}")
    donor_set, recipient_set = set(donor_ids), set(recipient_ids)

    seen = set()
    for u, v in s.edges:
        if u not in donor_set:
            out.append(f"edge ({u}, {v}) references unknown donor {u}")
        if v not in recipient_set:
            out.append(f"edge ({u}, {v}) references unknown recipient {v}")
        if (u, v) in seen:
            out.append(f"duplicate edge ({u}, {v})")
        seen.add((u, v))

    for d in s.donors:
        if d.first_notify < 1:
            out.append(f"donor {d.id} first_notify {d.first_notify} < 1")
    for rec in s.recipients:
        if rec.kind not in (STATIC, DYNAMIC):
            out.append(f"recipient {rec.id} has unknown kind {rec.kind!r}")

    shapes_ok = (
        s.weights.shape == (len(s.edges), T)
        and s.availability.shape == (len(s.recipients), T)
        and s.donor_schedule.shape == (len(s.donors), T)
    )
    if not shapes_ok:
        out.append(
            "array shape mismatch: weights %s, availability %s, schedule %s for "
            "(E, V, U, T) = (%d, %d, %d, %d)"
            % (
                s.weights.shape,
                s.availability.shape,
                s.donor_schedule.shape,
                len(s.edges),
                len(s.recipients),
                len(s.donors),
                T,
            )
        )
        return out

    # Written so that NaN, which fails every comparison, is flagged too.
    bad_e, bad_t = np.where(~((s.weights >= 0.0) & (s.weights <= 1.0)))
    for e, tc in zip(bad_e, bad_t):
        out.append(
            f"weight {s.weights[e, tc]:g} outside [0, 1] on edge {s.edges[e]} at t={tc + 1}"
        )
    bad_v, bad_t = np.where(~((s.availability >= 0.0) & (s.availability <= 1.0)))
    for vi, tc in zip(bad_v, bad_t):
        out.append(
            f"availability {s.availability[vi, tc]:g} outside [0, 1] for "
            f"recipient {s.recipients[vi].id} at t={tc + 1}"
        )
    for i, rec in enumerate(s.recipients):
        if rec.kind == STATIC and not np.all(s.availability[i] == 1.0):
            out.append(f"static recipient {rec.id} has availability below 1")

    for i, d in enumerate(s.donors):
        row = s.donor_schedule[i]
        if not np.all((row == 0) | (row == 1)):
            out.append(f"donor {d.id} schedule has entries outside {{0, 1}}")
            continue
        ts = np.flatnonzero(row) + 1
        if ts.size >= 2 and not np.all(np.diff(ts) == s.rate_limit):
            out.append(
                f"donor {d.id} schedule gaps {np.diff(ts).tolist()} differ from K={s.rate_limit}"
            )

    if s.normalization is not None:
        if s.normalization.shape != (len(s.recipients),):
            out.append(f"normalization has shape {s.normalization.shape}")
        else:
            for i, rec in enumerate(s.recipients):
                if not s.normalization[i] >= 0:
                    out.append(
                        f"normalization {s.normalization[i]:g} is not >= 0 for recipient {rec.id}"
                    )
    return out


def donor_max_degree(s: Scenario) -> int:
    """Largest number of edges incident to any one donor (0 with no edges)."""
    return s.donor_edge_table.shape[1]


def matched_weights(s: Scenario, matched: np.ndarray) -> np.ndarray:
    """Y_v of matched edge indices: shape (..., U, T) to (..., V).

    One ``np.bincount`` adds the weights from zero in (leading index, step,
    donor) order, so every caller gets the same sums to the last bit.
    """
    matched = np.asarray(matched)
    U, T = matched.shape[-2:]
    shape = matched.shape[:-2] + (s.n_recipients,)
    by_step = np.swapaxes(matched, -1, -2).reshape(-1)  # a C-order copy
    flat = np.flatnonzero(by_step >= 0)
    e = by_step[flat]
    lead, cell = np.divmod(flat, T * U)
    at = lead * s.n_recipients + s.edge_recipient[e]
    out = np.bincount(at, s.weights[e, cell // U], int(np.prod(shape)))
    return out.reshape(shape).astype(float, copy=False)  # int when nothing matched


def outcome_from_matches(s: Scenario, matched: np.ndarray) -> MatchingOutcome:
    """Build a MatchingOutcome from (U, T) matched edge indices, filling in Y_v."""
    matched = np.array(matched, dtype=np.int64)
    y = matched_weights(s, matched)
    return MatchingOutcome(matched, y, float(weight_total(y)))


def weight_total(y: np.ndarray) -> np.ndarray:
    """Sum of Y_v over the last (recipient) axis, added in recipient order.

    A running sum fixes the order of the additions, so totals do not
    depend on the numpy or Python version (``np.sum`` adds pairwise, and
    builtin ``sum`` of floats is compensated from Python 3.12 on).
    """
    y = np.asarray(y)
    if y.shape[-1] == 0:
        return np.zeros(y.shape[:-1])
    return np.cumsum(y, axis=-1)[..., -1]


def validate_outcome(
    s: Scenario,
    outcome: MatchingOutcome,
    r: DemandRealization,
    mode: str = MODE_FIXED,
) -> List[str]:
    """Check a MatchingOutcome against every invariant for the given mode.

    Verifies the (U, T) shape, that each edge index is in the graph and
    belongs to the donor whose slot holds it, recipient availability at
    each match, the mode's donor availability rule (schedule for
    fixed-time, K-day spacing for rate-limited), and consistency of the
    stored weights.
    """
    m = np.asarray(outcome.matched)
    if m.shape != (s.n_donors, s.horizon):
        return [f"matched has shape {m.shape}, want {(s.n_donors, s.horizon)}"]
    out: List[str] = []
    ghost = (m < -1) | (m >= s.n_edges)
    for ui, tau in np.argwhere(ghost):
        out.append(
            f"edge index {m[ui, tau]} matched at t={tau + 1} for donor "
            f"{s.donors[ui].id} is not in the graph"
        )
    m = np.where(ghost, -1, m)
    ui, tau = np.nonzero(m >= 0)
    e = m[ui, tau]

    def flag(bad: np.ndarray, what: str) -> None:
        for k in np.flatnonzero(bad):
            out.append(f"edge {s.edges[e[k]]} matched at t={tau[k] + 1} {what}")

    flag(s.edge_donor[e] != ui, "in another donor's slot")
    flag(np.asarray(r.available)[s.edge_recipient[e], tau] != 1, "but recipient unavailable")
    if mode == MODE_FIXED:
        flag(s.donor_schedule[ui, tau] != 1, "off the donor's schedule")
    elif mode == MODE_RATE:
        # Row-major order: each donor's matches in step order.
        for k in np.flatnonzero((ui[1:] == ui[:-1]) & (np.diff(tau) < s.rate_limit)):
            out.append(
                f"donor {s.donors[ui[k]].id} matched at t={tau[k] + 1} and "
                f"t={tau[k + 1] + 1}, closer than K={s.rate_limit}"
            )

    got = np.asarray(outcome.recipient_weight, dtype=float)
    if got.shape != (s.n_recipients,):
        out.append(f"recipient_weight has shape {got.shape}, want {(s.n_recipients,)}")
        return out
    want = matched_weights(s, m)
    for vi in np.flatnonzero(np.abs(got - want) > 1e-9):
        out.append(
            f"recipient_weight[{s.recipients[vi].id}] = {got[vi]:g} but matches "
            f"sum to {want[vi]:g}"
        )
    if abs(outcome.total_weight - got.sum()) > 1e-9:
        out.append("total_weight differs from the sum of recipient weights")
    return out


def with_normalization(
    s: Scenario, m: Union[np.ndarray, Mapping[str, float]]
) -> Scenario:
    """Copy of s with normalization scores m, read as ``build_scenario`` reads them."""
    return replace(s, normalization=_normalization_array(m, s.recipients))


# ---------------------------------------------------------------------------
# file format


def scenario_to_dict(s: Scenario) -> dict:
    """JSON-ready dict; constant-over-time rows are written compactly."""
    def compact(row: np.ndarray):
        vals = [float(x) for x in row]
        return vals[0] if len(set(vals)) == 1 else vals

    doc: dict = {
        "horizon": s.horizon,
        "rate_limit": s.rate_limit,
        "donors": [
            {"id": d.id, "lat": d.lat, "lon": d.lon, "first_notify": d.first_notify}
            for d in s.donors
        ],
        "recipients": [
            {"id": v.id, "lat": v.lat, "lon": v.lon, "kind": v.kind}
            for v in s.recipients
        ],
        "edges": [[u, v] for u, v in s.edges],
        "weights": [compact(s.weights[e]) for e in range(len(s.edges))],
        "availability": {
            v.id: compact(s.availability[i])
            for i, v in enumerate(s.recipients)
            if v.kind == DYNAMIC
        },
    }
    if s.normalization is not None:
        doc["normalization"] = {
            v.id: float(s.normalization[i]) for i, v in enumerate(s.recipients)
        }
    return doc


def scenario_from_dict(doc: Mapping) -> Scenario:
    """Inverse of scenario_to_dict; tolerates the compact weight forms.

    Any key it does not read, at the top level or in a donor or recipient
    entry, raises ValueError naming it.
    """
    top = "horizon rate_limit donors recipients edges weights availability normalization"
    _refuse_unknown(doc, top.split(), "unknown scenario keys")
    for what, known in (("donor", "id lat lon first_notify"), ("recipient", "id lat lon kind")):
        for entry in doc[what + "s"]:
            _refuse_unknown(entry, known.split(), f"unknown keys in {what} {entry['id']!r}:")
    donors = [
        Donor(
            id=str(d["id"]),
            lat=float(d.get("lat", 0.0)),
            lon=float(d.get("lon", 0.0)),
            first_notify=int(d.get("first_notify", 1)),
        )
        for d in doc["donors"]
    ]
    recipients = [
        Recipient(
            id=str(v["id"]),
            lat=float(v.get("lat", 0.0)),
            lon=float(v.get("lon", 0.0)),
            kind=str(v.get("kind", STATIC)),
        )
        for v in doc["recipients"]
    ]
    return build_scenario(
        donors=donors,
        recipients=recipients,
        edges=[tuple(e) for e in doc["edges"]],
        weights=doc["weights"],
        availability=doc.get("availability") or {},
        horizon=int(doc["horizon"]),
        rate_limit=int(doc["rate_limit"]),
        normalization=doc.get("normalization"),
    )


def save_scenario(s: Scenario, path) -> None:
    """Write the scenario as JSON (sorted keys, so equal scenarios give equal bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    """Read a scenario written by save_scenario (or by hand)."""
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
