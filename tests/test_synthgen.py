"""Synthetic city generation: geometry, profiles, configs, determinism."""

from __future__ import annotations

import dataclasses
import filecmp
import json
import math

import numpy as np
import pytest

from donormatch.graph import DYNAMIC, STATIC, save_scenario, validate_scenario
from donormatch.synthgen import (
    GeneratorConfig,
    UniformDisc,
    availability_profile,
    bundled_city_names,
    config_from_dict,
    edge_weight,
    generate_city,
    haversine_km,
    load_bundled_config,
    load_config,
    load_population_grid,
    validate_config,
)

DISC = UniformDisc(center_lat=41.3, center_lon=-79.5, radius_km=8.0)


def disc_config(**overrides):
    base = dict(
        donor_count=10,
        recipient_count=6,
        population=DISC,
        horizon=20,
        rate_limit=7,
        seed=42,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# distances and weights


def test_haversine_frozen_values():
    """Known reference distances pin the Earth radius convention."""
    assert haversine_km((10.0, 20.0), (10.0, 20.0)) == pytest.approx(0.0, abs=1e-12)
    assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(111.195, abs=1e-3)
    assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(20015.09, abs=1e-2)


def test_haversine_is_symmetric_and_broadcasts():
    a = (np.array([40.0, 41.0])[:, None], np.array([-85.0, -84.0])[:, None])
    b = (np.array([40.5, 40.9, 41.5])[None, :], np.array([-85.2, -84.1, -83.9])[None, :])
    d = haversine_km(a, b)
    assert d.shape == (2, 3)
    d_t = haversine_km(b, a)
    np.testing.assert_allclose(d, d_t, atol=1e-12)


def test_edge_weight_frozen_value():
    assert edge_weight(0.05, 10.0, 10.0) == pytest.approx(0.0183940, abs=1e-7)
    assert edge_weight(0.07, 5.0, 0.0) == 0.07


def test_edge_weight_decays_with_distance():
    d = np.linspace(0.0, 15.0, 40)
    w = edge_weight(0.05, 10.0, d)
    assert np.all(np.diff(w) < 0)
    # a slower decay constant keeps more value at any positive distance
    assert edge_weight(0.05, 20.0, 10.0) > edge_weight(0.05, 5.0, 10.0)


# ---------------------------------------------------------------------------
# availability profiles


def test_profile_values_and_length():
    rng = np.random.default_rng(0)
    p = availability_profile(50, rng)
    assert p.shape == (50,)
    assert set(np.unique(p)) <= {0.1, 0.9}
    single = availability_profile(1, np.random.default_rng(1))
    assert single.shape == (1,) and single[0] in (0.1, 0.9)


def test_profile_rejects_a_bad_horizon():
    with pytest.raises(ValueError, match="at least 1"):
        availability_profile(0, np.random.default_rng(0))


def test_profile_starts_with_either_level():
    firsts = {availability_profile(3, np.random.default_rng(k))[0] for k in range(64)}
    assert firsts == {0.1, 0.9}


def test_profile_run_lengths_match_the_resampled_poisson():
    """Runs alternate and their mean length is the zero-truncated Poisson mean.

    Resampling zero draws makes run lengths zero-truncated Poisson(4),
    whose mean is 4 / (1 - e^-4). The final run is cut by the horizon, so
    it stays out of the statistics.
    """
    p = availability_profile(100_000, np.random.default_rng(7))
    boundaries = np.flatnonzero(np.diff(p) != 0) + 1
    lengths = np.diff(np.concatenate([[0], boundaries]))  # complete runs only
    assert lengths.min() >= 1
    expected = 4.0 / (1.0 - math.exp(-4.0))
    assert lengths.mean() == pytest.approx(expected, abs=0.05)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(donor_count=0), "at least 1"),
        (dict(edge_radius_km=0.0), "edge_radius_km"),
        (dict(w0_range=(0.08, 0.01)), "w0_range"),
        (dict(decay_set=()), "decay_set"),
        (dict(decay_set=(5.0, -1.0)), "decay_set"),
        (dict(static_fraction=1.5), "static_fraction"),
        (dict(availability_high=1.2), "availability_high"),
        (dict(mean_run_length=0.0), "mean_run_length"),
        (dict(horizon=0), "at least 1"),
        (dict(edge_radius_km=math.nan), "edge_radius_km"),
        (dict(edge_radius_km=math.inf), "edge_radius_km"),
        (dict(decay_set=(5.0, math.nan)), "decay_set"),
        (dict(decay_set=(math.inf,)), "decay_set"),
        (dict(mean_run_length=math.nan), "mean_run_length"),
        (dict(donor_count=math.nan), "at least 1"),
        (dict(rate_limit=math.nan), "at least 1"),
        (dict(population=UniformDisc(41.3, -79.5, math.nan)), "radius"),
        (dict(population=UniformDisc(math.nan, -79.5, 8.0)), "center"),
        (dict(population=np.array([[41.3, -79.5, 1.0], [math.nan, -79.4, 1.0]])), "finite"),
        (dict(population=np.array([[41.3, -79.5, 1.0], [41.3, -79.4, math.inf]])), "finite"),
    ],
)
def test_config_invariant_violations_raise(overrides, message):
    with pytest.raises(ValueError, match=message):
        validate_config(disc_config(**overrides))


@pytest.mark.parametrize("field", ["donor_count", "recipient_count", "horizon", "rate_limit", "seed"])
def test_config_refuses_an_integer_field_that_is_not_one(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 3.5"):
        validate_config(disc_config(**{field: 3.5}))
    with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
        validate_config(disc_config(**{field: True}))


def test_an_integral_float_config_generates_the_same_city(tmp_path):
    floats = {k: float(v) for k, v in dataclasses.asdict(disc_config()).items()
              if k in ("donor_count", "recipient_count", "horizon", "rate_limit", "seed")}
    save_scenario(generate_city(disc_config()), tmp_path / "int.json")
    save_scenario(generate_city(disc_config(**floats)), tmp_path / "float.json")
    assert filecmp.cmp(tmp_path / "int.json", tmp_path / "float.json", shallow=False)


def test_degenerate_population_grids_raise():
    with pytest.raises(ValueError, match="positive sum"):
        validate_config(disc_config(population=np.zeros((4, 3))))
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        validate_config(disc_config(population=np.ones((4, 2))))


# ---------------------------------------------------------------------------
# generated cities


def two_cell_grid(separation_km=20.0):
    lat = 40.0
    dlon = separation_km / (111.195 * math.cos(math.radians(lat)))
    return np.array([[lat, -85.0, 1.0], [lat, -85.0 + dlon, 1.0]])


def test_edges_are_exactly_the_pairs_within_radius():
    """Two population cells 20 km apart never connect across at radius 15."""
    cfg = disc_config(population=two_cell_grid(), donor_count=12, recipient_count=8)
    s = generate_city(cfg)
    present = set(s.edges)
    crossed = 0
    for d in s.donors:
        for r in s.recipients:
            dist = float(haversine_km((d.lat, d.lon), (r.lat, r.lon)))
            if dist <= cfg.edge_radius_km:
                assert (d.id, r.id) in present
            else:
                assert (d.id, r.id) not in present
                crossed += 1
    assert crossed > 0


def test_static_split_rounds_down():
    s = generate_city(disc_config(recipient_count=5, static_fraction=0.5))
    kinds = [r.kind for r in s.recipients]
    assert kinds.count(STATIC) == 2 and kinds.count(DYNAMIC) == 3
    static_rows = [i for i, r in enumerate(s.recipients) if r.kind == STATIC]
    assert np.all(s.availability[static_rows] == 1.0)


def test_static_fraction_extremes():
    all_static = generate_city(disc_config(static_fraction=1.0))
    assert np.all(all_static.availability == 1.0)
    all_dynamic = generate_city(disc_config(static_fraction=0.0))
    assert all(r.kind == DYNAMIC for r in all_dynamic.recipients)
    assert set(np.unique(all_dynamic.availability)) <= {0.1, 0.9}


def test_weights_stay_positive_within_the_nominal_cap():
    s = generate_city(disc_config(donor_count=15, recipient_count=10))
    assert s.weights.min() > 0.0
    assert s.weights.max() <= 0.08
    # distance decay is static, so every edge keeps one weight over time
    assert np.ptp(s.weights, axis=1).max() == 0.0


def test_first_notify_days_precede_the_next_window():
    s = generate_city(disc_config(rate_limit=7))
    days = {d.first_notify for d in s.donors}
    assert days <= set(range(1, 7)) and len(days) > 1
    s1 = generate_city(disc_config(rate_limit=1, horizon=5))
    assert {d.first_notify for d in s1.donors} == {1}


def test_generated_cities_validate_cleanly():
    assert validate_scenario(generate_city(disc_config())) == []
    cfg = dataclasses.replace(
        load_bundled_config("riverton"), donor_count=20, recipient_count=10
    )
    assert validate_scenario(generate_city(cfg)) == []


def test_same_seed_gives_identical_files(tmp_path):
    cfg = disc_config(seed=99)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(generate_city(cfg), a)
    save_scenario(generate_city(cfg), b)
    assert filecmp.cmp(a, b, shallow=False)
    save_scenario(generate_city(dataclasses.replace(cfg, seed=100)), b)
    assert not filecmp.cmp(a, b, shallow=False)


# ---------------------------------------------------------------------------
# config and grid files


def test_population_grid_round_trip(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("lat,lon,weight\n40.0,-85.0,1.0\n40.1,-85.1,0.5\n")
    grid = load_population_grid(path)
    np.testing.assert_allclose(grid, [[40.0, -85.0, 1.0], [40.1, -85.1, 0.5]])
    path.write_text("x,y,z\n1,2,3\n")
    with pytest.raises(ValueError, match="lat,lon,weight"):
        load_population_grid(path)
    path.write_text("lat,lon,weight\n")
    with pytest.raises(ValueError, match="no rows"):
        load_population_grid(path)


def test_config_from_dict_accepts_both_population_forms(tmp_path):
    doc = {
        "donor_count": 4,
        "recipient_count": 3,
        "population": {"uniform_disc": {"center": [41.0, -79.0], "radius_km": 5.0}},
        "seed": 1,
    }
    cfg = config_from_dict(doc)
    assert isinstance(cfg.population, UniformDisc)
    assert cfg.population.radius_km == 5.0
    assert cfg.edge_radius_km == 15.0  # defaults fill the rest

    (tmp_path / "g.csv").write_text("lat,lon,weight\n40.0,-85.0,1.0\n")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(
        json.dumps(
            {
                "donor_count": 4,
                "recipient_count": 3,
                "population": {"grid": "g.csv"},
                "seed": 1,
            }
        )
    )
    cfg = load_config(cfg_path)
    assert isinstance(cfg.population, np.ndarray)
    assert cfg.population.shape == (1, 3)


def test_config_rejects_unknown_or_missing_keys():
    disc = {"uniform_disc": {"center": [0.0, 0.0], "radius_km": 1.0}}
    with pytest.raises(ValueError, match="population"):
        config_from_dict({"donor_count": 1, "recipient_count": 1})
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(
            {"donor_count": 1, "recipient_count": 1, "population": disc, "extra": 5}
        )
    with pytest.raises(ValueError, match="donor_count"):
        config_from_dict({"population": disc})
    with pytest.raises(ValueError, match="not found"):
        config_from_dict(
            {"donor_count": 1, "recipient_count": 1, "population": {"grid": "nope"}}
        )


def test_config_availability_block_refuses_unknown_keys():
    base = {
        "donor_count": 1,
        "recipient_count": 1,
        "population": {"uniform_disc": {"center": [0.0, 0.0], "radius_km": 1.0}},
    }
    with pytest.raises(ValueError, match=r"takes only .*, got \{'lo': 0.3, 'hihg': 0.7\}"):
        config_from_dict({**base, "availability": {"lo": 0.3, "hihg": 0.7}})
    with pytest.raises(ValueError, match="availability block takes only"):
        config_from_dict({**base, "availability": 0.3})
    with pytest.raises(ValueError, match=r"unknown config keys \['availability_low'\]"):
        config_from_dict({**base, "availability_low": 0.3})
    cfg = config_from_dict({**base, "availability": {"high": 0.7}})
    defaults = disc_config()
    assert cfg.availability_high == 0.7
    assert cfg.availability_low == defaults.availability_low
    assert cfg.mean_run_length == defaults.mean_run_length


def test_grids_resolve_by_config_directory_then_bundled_never_the_working_directory(
    tmp_path, monkeypatch
):
    want = load_bundled_config("riverton").population
    monkeypatch.chdir(tmp_path)
    (tmp_path / "riverton").write_text("not a grid\n")
    (tmp_path / "riverton.csv").write_text("not a grid either\n")
    np.testing.assert_array_equal(load_bundled_config("riverton").population, want)
    sub = tmp_path / "configs"
    sub.mkdir()
    doc = {"donor_count": 4, "recipient_count": 3, "population": {"grid": "riverton"}}
    (sub / "c.json").write_text(json.dumps(doc))
    np.testing.assert_array_equal(load_config(sub / "c.json").population, want)
    (sub / "riverton").write_text("lat,lon,weight\n40.0,-85.0,1.0\n")
    assert load_config(sub / "c.json").population.tolist() == [[40.0, -85.0, 1.0]]


def test_bundled_cities_are_present_and_generate():
    names = bundled_city_names()
    assert {"riverton", "lakeport", "hillmont", "baycrest", "city_small"} <= set(names)
    with pytest.raises(ValueError, match="no bundled city"):
        load_bundled_config("atlantis")
    s = generate_city(load_bundled_config("city_small"))
    assert s.n_donors == 12 and s.n_recipients == 8
    assert validate_scenario(s) == []
