from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import all_ones_realization, random_instance, two_recipient_instance
from donormatch.graph import (
    DemandRealization,
    Donor,
    MatchingOutcome,
    Recipient,
    build_scenario,
    donor_max_degree,
    fixed_schedule,
    load_scenario,
    outcome_from_matches,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_outcome,
    validate_scenario,
    weight_total,
    with_normalization,
)


def test_valid_two_by_two_scenario_has_no_violations():
    s = build_scenario(
        donors=[Donor("u0", 0, 0, 1), Donor("u1", 0, 0, 2)],
        recipients=[Recipient("a", 0, 0), Recipient("b", 0, 0, kind="dynamic")],
        edges=[("u0", "a"), ("u0", "b"), ("u1", "b")],
        weights=[0.5, 0.25, 0.75],
        availability={"b": 0.3},
        horizon=4,
        rate_limit=2,
    )
    assert validate_scenario(s) == []


def test_weight_out_of_range_names_the_edge():
    s = two_recipient_instance()
    s.weights[0, 0] = 1.3
    violations = validate_scenario(s)
    assert len(violations) == 1
    assert "('u', 'A')" in violations[0]


def test_edge_to_unknown_recipient_flagged():
    s = build_scenario(
        donors=[Donor("u", 0, 0)],
        recipients=[Recipient("a", 0, 0)],
        edges=[("u", "a")],
        weights=[0.5],
        availability=None,
        horizon=1,
        rate_limit=1,
    )
    object.__setattr__(s, "edges", (("u", "a"), ("u", "ghost")))
    object.__setattr__(s, "weights", np.array([[0.5], [0.5]]))
    violations = validate_scenario(s)
    assert any("ghost" in v for v in violations)


def test_static_recipient_with_low_availability_flagged():
    s = two_recipient_instance()
    s.availability[0, 0] = 0.4
    assert any("static" in v for v in validate_scenario(s))


def test_schedule_gap_violation_flagged():
    s = two_recipient_instance()
    bad = build_scenario(
        donors=[Donor("u", 0, 0, 1)],
        recipients=[Recipient("A", 0, 0)],
        edges=[("u", "A")],
        weights=[0.5],
        availability=None,
        horizon=6,
        rate_limit=3,
    )
    bad.donor_schedule[0] = np.array([1, 0, 1, 0, 0, 1], dtype=np.int8)
    assert any("schedule gaps" in v for v in validate_scenario(bad))
    assert validate_scenario(s) == []


def test_fixed_schedule_every_k_days():
    row = fixed_schedule(first_notify=3, horizon=10, rate_limit=4)
    assert np.flatnonzero(row).tolist() == [2, 6]  # t = 3, 7
    # A first day far before 1 sets the phase only, in one step: -10**9 + k * 3
    # first reaches 1..10 at t = 2.
    row = fixed_schedule(first_notify=-(10**9), horizon=10, rate_limit=3)
    assert np.flatnonzero(row).tolist() == [1, 4, 7]  # t = 2, 5, 8


def test_donor_max_degree_cases():
    s = two_recipient_instance()
    assert donor_max_degree(s) == 2
    s2 = build_scenario(
        donors=[Donor("a", 0, 0), Donor("b", 0, 0), Donor("c", 0, 0)],
        recipients=[Recipient(f"v{i}", 0, 0) for i in range(4)],
        edges=[("a", "v0")] + [("b", f"v{i}") for i in range(4)] + [("c", "v0"), ("c", "v1")],
        weights=[0.1] * 7,
        availability=None,
        horizon=1,
        rate_limit=1,
    )
    assert donor_max_degree(s2) == 4
    empty = build_scenario(
        donors=[Donor("a", 0, 0)],
        recipients=[Recipient("v", 0, 0)],
        edges=[],
        weights=[],
        availability=None,
        horizon=1,
        rate_limit=1,
    )
    assert donor_max_degree(empty) == 0


def test_donor_edge_table_lists_each_donors_edges_in_edge_order():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_instance(rng)
        # Interleave the donors' edges; random_instance lists them donor by donor.
        perm = rng.permutation(s.n_edges)
        s = dataclasses.replace(s, edges=tuple(s.edges[e] for e in perm), weights=s.weights[perm])
        table = s.donor_edge_table
        assert table.shape == (s.n_donors, donor_max_degree(s))
        for ui, d in enumerate(s.donors):
            want = [e for e, (u, _v) in enumerate(s.edges) if u == d.id]
            assert table[ui].tolist() == want + [-1] * (table.shape[1] - len(want))
            assert s.donor_edges[ui].dtype == np.int64
            assert s.donor_edges[ui].tolist() == want


def test_outcome_builder_and_validator_accept_valid():
    s = two_recipient_instance()
    r = all_ones_realization(s)
    out = outcome_from_matches(s, [[s.edges.index(("u", "B"))]])
    assert out.total_weight == pytest.approx(1.0)
    assert out.recipient_weight.tolist() == [0.0, 1.0]
    assert validate_outcome(s, out, r) == []


def test_outcome_validator_rejects_each_broken_invariant():
    s = build_scenario(
        donors=[Donor("u", 0, 0, 1), Donor("w", 0, 0, 1)],
        recipients=[Recipient("A", 0, 0), Recipient("B", 0, 0, kind="dynamic")],
        edges=[("u", "A"), ("u", "B"), ("w", "A")],
        weights=[0.9, 1.0, 0.5],
        availability={"B": [1.0, 0.0]},
        horizon=2,
        rate_limit=1,
    )
    r = DemandRealization(np.array([[1, 1], [1, 0]], dtype=np.int8))

    other_donors_edge = outcome_from_matches(s, [[2, -1], [-1, -1]])
    assert any("another donor's slot" in v for v in validate_outcome(s, other_donors_edge, r))

    unavailable = outcome_from_matches(s, [[-1, 1], [-1, -1]])
    assert any("unavailable" in v for v in validate_outcome(s, unavailable, r))

    wrong_weight = outcome_from_matches(s, [[0, -1], [-1, -1]])
    wrong_weight.recipient_weight[0] = 0.5
    assert any("recipient_weight" in v for v in validate_outcome(s, wrong_weight, r))

    wrong_total = outcome_from_matches(s, [[0, -1], [-1, -1]])
    wrong_total.total_weight = 2.0
    assert any("total_weight" in v for v in validate_outcome(s, wrong_total, r))

    for ghost in (3, -2):
        out = MatchingOutcome(np.array([[ghost, -1], [-1, -1]]), np.zeros(2), 0.0)
        assert any("not in the graph" in v for v in validate_outcome(s, out, r))

    wrong_shape = MatchingOutcome(np.array([[0, -1, -1], [-1, -1, -1]]), np.zeros(2), 0.0)
    assert any("matched has shape" in v for v in validate_outcome(s, wrong_shape, r))

    short_weights = MatchingOutcome(np.full((2, 2), -1), np.zeros(1), 0.0)
    assert any("recipient_weight has shape" in v for v in validate_outcome(s, short_weights, r))


def test_outcome_validator_mode_rules():
    s = build_scenario(
        donors=[Donor("u", 0, 0, 1)],
        recipients=[Recipient("A", 0, 0)],
        edges=[("u", "A")],
        weights=[0.5],
        availability=None,
        horizon=4,
        rate_limit=3,
    )
    r = all_ones_realization(s)
    # schedule is t = 1 and t = 4 only
    off_schedule = outcome_from_matches(s, [[-1, 0, -1, -1]])
    assert any("schedule" in v for v in validate_outcome(s, off_schedule, r, "fixed_time"))
    assert validate_outcome(s, off_schedule, r, "rate_limited") == []

    too_close = outcome_from_matches(s, [[0, 0, -1, -1]])
    assert any("closer than" in v for v in validate_outcome(s, too_close, r, "rate_limited"))
    ok_gap = outcome_from_matches(s, [[0, -1, -1, 0]])
    assert validate_outcome(s, ok_gap, r, "rate_limited") == []


def test_scenario_json_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    s = random_instance(rng)
    p = tmp_path / "scenario.json"
    save_scenario(s, p)
    s2 = load_scenario(p)
    assert s2.edges == s.edges
    assert np.allclose(s2.weights, s.weights)
    assert np.allclose(s2.availability, s.availability)
    assert np.array_equal(s2.donor_schedule, s.donor_schedule)
    assert s2.normalization is not None
    assert np.allclose(s2.normalization, s.normalization)
    # identical bytes when saved again
    p2 = tmp_path / "scenario2.json"
    save_scenario(s2, p2)
    assert p.read_bytes() == p2.read_bytes()


def _scenario_doc():
    return scenario_to_dict(_build(normalization={"A": 1.0, "B": 0.5}))


@pytest.mark.parametrize(
    "change, message",
    [
        (
            lambda d: d["donors"][0].update(first_notfy=2),
            "unknown keys in donor 'u': ['first_notfy']",
        ),
        (
            lambda d: d["recipients"][1].update(knd="static"),
            "unknown keys in recipient 'B': ['knd']",
        ),
        (
            lambda d: d.update(normalisation=d.pop("normalization")),
            "unknown scenario keys ['normalisation']",
        ),
    ],
    ids=["donor-key", "recipient-key", "top-level-key"],
)
def test_scenario_from_dict_refuses_keys_it_does_not_read(change, message):
    doc = _scenario_doc()
    assert scenario_to_dict(scenario_from_dict(doc)) == doc
    change(doc)
    with pytest.raises(ValueError) as err:
        scenario_from_dict(doc)
    assert message in str(err.value)


def test_a_scenario_file_must_score_every_recipient(tmp_path):
    # A recipient meant to be off the Gamma scale is scored 0, not left out.
    doc = _scenario_doc()
    doc["normalization"] = {"A": 0.0, "B": 0.5}
    assert scenario_from_dict(doc).normalization.tolist() == [0.0, 0.5]
    del doc["normalization"]["A"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_scenario(path)
    assert "normalization missing for recipients ['A']" in str(err.value)


def test_weight_dict_form_requires_every_step():
    with pytest.raises(ValueError, match="missing weight"):
        build_scenario(
            donors=[Donor("u", 0, 0)],
            recipients=[Recipient("A", 0, 0)],
            edges=[("u", "A")],
            weights=[{1: 0.5}],
            availability=None,
            horizon=2,
            rate_limit=1,
        )


def test_dynamic_availability_defaults_to_zero():
    s = build_scenario(
        donors=[Donor("u", 0, 0)],
        recipients=[Recipient("A", 0, 0, kind="dynamic")],
        edges=[("u", "A")],
        weights=[0.5],
        availability={"A": {2: 0.9}},
        horizon=3,
        rate_limit=1,
    )
    assert s.availability[0].tolist() == [0.0, 0.9, 0.0]


def test_with_normalization_replaces():
    s = two_recipient_instance(normalization=False)
    assert s.normalization is None
    s2 = with_normalization(s, {"A": 0.45, "B": 0.5})
    assert s2.normalization.tolist() == [0.45, 0.5]


def test_weight_total_is_the_left_to_right_fold():
    # Totals must not depend on how the interpreter or numpy sums floats, so
    # they are pinned to the plain fold over recipients in order.
    rng = np.random.default_rng(8)
    y = rng.random((500, 48)) * 10.0 ** rng.integers(-8, 8, size=(500, 48))
    want = []
    for row in y:
        acc = 0.0
        for v in row:
            acc = acc + float(v)
        want.append(acc)
    got = weight_total(y)
    assert got.shape == (500,)
    assert got.tolist() == want
    assert float(weight_total(y[0])) == want[0]
    assert weight_total(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"horizon": 0}, "horizon 0 < 1"),
        ({"rate_limit": 0}, "rate_limit 0 < 1"),
        (
            {"donors": (Donor("u", 0, 0),) * 2, "donor_schedule": np.ones((2, 1), np.int8)},
            "duplicate donor ids ['u']",
        ),
        ({"recipients": (Recipient("A", 0, 0),) * 2}, "duplicate recipient ids ['A']"),
        ({"edges": (("ghost", "A"), ("u", "B"))}, "references unknown donor ghost"),
        ({"edges": (("u", "A"), ("u", "A"))}, "duplicate edge (u, A)"),
        ({"donors": (Donor("u", 0, 0, first_notify=0),)}, "donor u first_notify 0 < 1"),
        (
            {"recipients": (Recipient("A", 0, 0, kind="often"), Recipient("B", 0, 0))},
            "recipient A has unknown kind 'often'",
        ),
        ({"weights": np.full((1, 1), 0.5)}, "array shape mismatch"),
        ({"availability": np.array([[1.0], [1.5]])}, "availability 1.5 outside [0, 1]"),
        ({"donor_schedule": np.array([[2]], np.int8)}, "schedule has entries outside {0, 1}"),
        ({"normalization": np.ones(3)}, "normalization has shape (3,)"),
        ({"normalization": np.array([-0.1, 0.5])}, "normalization -0.1 is not >= 0 for recipient"),
        ({"weights": np.array([[np.nan], [0.5]])}, "weight nan outside [0, 1] on edge ('u', 'A')"),
        ({"availability": np.array([[1.0], [np.nan]])}, "availability nan outside [0, 1]"),
        ({"normalization": np.array([np.nan, 0.5])}, "normalization nan is not >= 0"),
    ],
    ids=[
        "horizon", "rate-limit", "donor-ids", "recipient-ids", "unknown-donor",
        "duplicate-edge", "first-notify", "kind", "shapes", "availability",
        "schedule", "normalization-shape", "normalization-sign", "weight-nan",
        "availability-nan", "normalization-nan",
    ],
)
def test_validate_scenario_names_each_violation(changes, message):
    s = dataclasses.replace(two_recipient_instance(), **changes)
    assert any(message in v for v in validate_scenario(s)), validate_scenario(s)


def test_validate_scenario_lists_every_violation_in_order():
    s = build_scenario(
        donors=[Donor("u0", 0, 0, 1), Donor("u1", 0, 0, 0), Donor("u2", 0, 0, 2)],
        recipients=[
            Recipient("A", 0, 0), Recipient("B", 0, 0, kind="dynamic"), Recipient("C", 0, 0)
        ],
        edges=[("u0", "A"), ("u0", "B"), ("u1", "B"), ("u2", "C")],
        weights=[0.5, 0.5, 0.5, 0.5],
        availability={"B": 0.5},
        horizon=6,
        rate_limit=2,
    )
    s.weights[0, 0], s.weights[3, 3] = -0.5, np.nan
    s.availability[1, 1], s.availability[2, 2] = 1.5, 0.5
    s.donor_schedule[0] = [1, 0, 0, 1, 0, 1]
    s.donor_schedule[2, 3] = 2
    s = dataclasses.replace(s, normalization=np.array([0.5, -1.0, np.nan]))
    assert validate_scenario(s) == [
        "donor u1 first_notify 0 < 1",
        "weight -0.5 outside [0, 1] on edge ('u0', 'A') at t=1",
        "weight nan outside [0, 1] on edge ('u2', 'C') at t=4",
        "availability 1.5 outside [0, 1] for recipient B at t=2",
        "static recipient C has availability below 1",
        "donor u0 schedule gaps [3, 2] differ from K=2",
        "donor u2 schedule has entries outside {0, 1}",
        "normalization -1 is not >= 0 for recipient B",
        "normalization nan is not >= 0 for recipient C",
    ]


def test_one_number_per_edge_builds_the_weights_of_its_length_t_list():
    lists = _build(weights=[[0.3, 0.3], [1.0, 1.0]]).weights
    numbers = _build(weights=[0.3, 1]).weights
    assert numbers.dtype == lists.dtype and numbers.tobytes() == lists.tobytes()


def _build(**changes):
    """build_scenario on one donor, static A and dynamic B, T = 2, with changes."""
    kwargs = dict(
        donors=[Donor("u", 0, 0)],
        recipients=[Recipient("A", 0, 0), Recipient("B", 0, 0, kind="dynamic")],
        edges=[("u", "A"), ("u", "B")],
        weights=[0.5, 0.5],
        availability={"B": 0.5},
        horizon=2,
        rate_limit=1,
    )
    kwargs.update(changes)
    return build_scenario(**kwargs)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"weights": np.ones((2, 3))}, "weights array has shape (2, 3), want (2, 2)"),
        ({"weights": [0.5]}, "1 weight entries for 2 edges"),
        ({"weights": [[0.5], 0.5]}, "weight list for edge ('u', 'A') has length 1, want 2"),
        ({"weights": [{1: 0.5, 2: 0.5, 9: 0.7}, 0.5]}, "weight step 9 outside 1..2"),
        ({"availability": np.ones((2, 3))}, "availability array has shape (2, 3), want (2, 2)"),
        ({"availability": {"C": 0.5}}, "availability given for unknown recipients ['C']"),
        ({"availability": {"B": [0.5]}}, "availability list for recipient B has length 1"),
        ({"availability": {"B": {"3": 0.5}}}, "availability step 3 outside 1..2"),
        (
            {"weights": [{1.5: 0.2, 2: 0.3}, 0.5]},
            "weight step 1.5 is not an integer for edge ('u', 'A')",
        ),
        ({"availability": {"B": {"1.5": 0.5}}}, "availability step '1.5' is not an integer"),
        ({"weights": [{True: 0.2, 2: 0.3}, 0.5]}, "weight step True is not an integer"),
        ({"normalization": np.ones(3)}, "normalization array has shape (3,), want (2,)"),
        (
            {"normalization": {"A": 1.0, "nobody": 2.0}},
            "normalization given for unknown recipients ['nobody']",
        ),
        ({"normalization": {"A": 1.0}}, "normalization missing for recipients ['B']"),
    ],
    ids=[
        "weights-shape", "weight-count", "weight-length", "weight-step",
        "availability-shape", "availability-id", "availability-length",
        "availability-step", "weight-step-fraction", "availability-step-fraction",
        "weight-step-bool", "normalization-shape", "normalization-id",
        "normalization-missing-id",
    ],
)
def test_build_scenario_refuses_each_malformed_input(changes, message):
    with pytest.raises(ValueError) as err:
        _build(**changes)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"horizon": 2.9}, "horizon must be an integer, got 2.9"),
        ({"horizon": True}, "horizon must be an integer, got True"),
        ({"rate_limit": 1.7}, "rate_limit must be an integer, got 1.7"),
        (
            {"donors": [Donor("u", 0, 0, first_notify=1.5)]},
            "donor 'u' first_notify must be an integer, got 1.5",
        ),
    ],
    ids=["horizon-fraction", "horizon-bool", "rate-limit-fraction", "first-notify-fraction"],
)
def test_build_scenario_refuses_an_integer_argument_that_is_not_one(changes, message):
    with pytest.raises(ValueError) as err:
        _build(**changes)
    assert message in str(err.value)


def test_build_scenario_reads_an_integral_float_as_the_integer():
    whole = _build(horizon=2.0, rate_limit=1.0, donors=[Donor("u", 0, 0, first_notify=1.0)])
    assert scenario_to_dict(whole) == scenario_to_dict(_build())
    assert type(whole.donors[0].first_notify) is int and type(whole.rate_limit) is int


def test_per_step_maps_fill_missing_steps_with_the_recipients_default():
    s = _build(availability={"A": {"2": 0.5}, "B": {1: 0.25}}, weights=[{2: 0.1, 1: 0.2}, 0.5])
    assert s.availability.tolist() == [[1.0, 0.5], [0.25, 0.0]]
    assert s.weights.tolist() == [[0.2, 0.1], [0.5, 0.5]]


@pytest.mark.parametrize(
    "m, message",
    [
        (np.ones(3), "normalization array has shape (3,), want (2,)"),
        ({"A": 1.0, "nobody": 2.0}, "normalization given for unknown recipients ['nobody']"),
        ({"B": 0.5}, "normalization missing for recipients ['A']"),
    ],
    ids=["shape", "unknown-id", "missing-id"],
)
def test_with_normalization_refuses_what_build_scenario_refuses(m, message):
    with pytest.raises(ValueError) as err:
        with_normalization(two_recipient_instance(normalization=False), m)
    assert message in str(err.value)
