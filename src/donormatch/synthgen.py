"""Synthetic city generation.

Donors and donation opportunities are dropped onto a map by sampling a
population-density grid (or a uniform disc) and connected whenever they
lie within the edge radius. Each edge carries the distance-decayed value
w0 * exp(-d/k), with w0 drawn per recipient and the decay constant k per
donor. Half the recipients (by default) are static, always available;
the rest follow alternating low/high availability runs with
Poisson-distributed lengths.

Grids are plain CSV with a ``lat,lon,weight`` header; a handful of
multi-cluster example cities ship with the package. Everything is
deterministic under the config seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import List, Mapping, Tuple, Union

import numpy as np

from .graph import DYNAMIC, STATIC, Donor, Recipient, Scenario, build_scenario

EARTH_RADIUS_KM = 6371.0
KM_PER_DEGREE = math.pi * EARTH_RADIUS_KM / 180.0


@dataclass(frozen=True)
class UniformDisc:
    """Sample locations uniformly from a disc around a center point."""

    center_lat: float
    center_lon: float
    radius_km: float


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything one synthetic city needs.

    ``population`` is either an (N, 3) array of (lat, lon, density weight)
    cells to sample from, or a UniformDisc. The availability profile
    parameters apply to dynamic recipients only.
    """

    donor_count: int
    recipient_count: int
    population: Union[np.ndarray, UniformDisc]
    edge_radius_km: float = 15.0
    w0_range: Tuple[float, float] = (0.01, 0.08)
    decay_set: Tuple[float, ...] = (5.0, 10.0, 20.0)
    static_fraction: float = 0.5
    availability_low: float = 0.1
    availability_high: float = 0.9
    mean_run_length: float = 4.0
    horizon: int = 60
    rate_limit: int = 14
    seed: int = 0


def validate_config(cfg: GeneratorConfig) -> None:
    """Raise ValueError on the first config invariant violation."""
    if cfg.donor_count < 1 or cfg.recipient_count < 1:
        raise ValueError("donor_count and recipient_count must be at least 1")
    if cfg.edge_radius_km <= 0:
        raise ValueError(f"edge_radius_km must be > 0, got {cfg.edge_radius_km}")
    lo, hi = cfg.w0_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"w0_range must be ordered within [0, 1], got {cfg.w0_range}")
    if not cfg.decay_set or any(k <= 0 for k in cfg.decay_set):
        raise ValueError(f"decay_set needs positive entries, got {cfg.decay_set}")
    if not 0.0 <= cfg.static_fraction <= 1.0:
        raise ValueError(f"static_fraction must lie in [0, 1], got {cfg.static_fraction}")
    for name in ("availability_low", "availability_high"):
        p = getattr(cfg, name)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if cfg.mean_run_length <= 0:
        raise ValueError(f"mean_run_length must be > 0, got {cfg.mean_run_length}")
    if cfg.horizon < 1 or cfg.rate_limit < 1:
        raise ValueError("horizon and rate_limit must be at least 1")
    if isinstance(cfg.population, UniformDisc):
        if cfg.population.radius_km <= 0:
            raise ValueError("uniform disc radius must be > 0")
        return
    grid = np.asarray(cfg.population, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 3 or grid.shape[0] == 0:
        raise ValueError(f"population grid must be (N, 3), got shape {grid.shape}")
    if np.any(grid[:, 2] < 0) or grid[:, 2].sum() <= 0:
        raise ValueError("population grid weights must be nonnegative with a positive sum")


def haversine_km(a, b) -> np.ndarray:
    """Great-circle distance in km between (lat, lon) degree pairs.

    Accepts scalars or broadcastable arrays in each coordinate.
    """
    lat1, lon1 = np.radians(a[0]), np.radians(a[1])
    lat2, lon2 = np.radians(b[0]), np.radians(b[1])
    h = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def edge_weight(w0: float, k: float, d_km: float) -> float:
    """Distance-decayed match value w0 * exp(-d/k)."""
    return w0 * np.exp(-np.asarray(d_km, dtype=float) / k)


def availability_profile(
    T: int,
    rng: np.random.Generator,
    low: float = 0.1,
    high: float = 0.9,
    mean_run_length: float = 4.0,
) -> np.ndarray:
    """Alternating runs of low and high availability, truncated to length T.

    Run lengths are Poisson with the given mean; zero-length draws are
    resampled so every run is at least one step. The starting level is a
    fair coin.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    levels = (low, high) if rng.integers(2) == 0 else (high, low)
    out: List[float] = []
    which = 0
    while len(out) < T:
        run = 0
        while run == 0:
            run = int(rng.poisson(mean_run_length))
        out.extend([levels[which]] * run)
        which = 1 - which
    return np.array(out[:T])


def _sample_points(
    population: Union[np.ndarray, UniformDisc], n: int, rng: np.random.Generator
) -> np.ndarray:
    if isinstance(population, UniformDisc):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        rad = population.radius_km * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        lat = population.center_lat + rad * np.sin(theta) / KM_PER_DEGREE
        lon = population.center_lon + rad * np.cos(theta) / (
            KM_PER_DEGREE * math.cos(math.radians(population.center_lat))
        )
        return np.stack([lat, lon], axis=1)
    grid = np.asarray(population, dtype=float)
    probs = grid[:, 2] / grid[:, 2].sum()
    idx = rng.choice(grid.shape[0], size=n, p=probs)
    return grid[idx, :2]


def generate_city(cfg: GeneratorConfig) -> Scenario:
    """Sample one synthetic city scenario from the config.

    The draw order is fixed (donor locations, recipient locations, static
    split, per-recipient w0, per-donor decay, first-notify days, then
    availability profiles in recipient order), so a seed pins the full
    scenario.
    """
    validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    U, V, T, K = cfg.donor_count, cfg.recipient_count, cfg.horizon, cfg.rate_limit

    donor_pts = _sample_points(cfg.population, U, rng)
    recip_pts = _sample_points(cfg.population, V, rng)

    static_count = int(math.floor(cfg.static_fraction * V))
    static = np.zeros(V, dtype=bool)
    static[rng.choice(V, size=static_count, replace=False)] = True

    w0 = rng.uniform(cfg.w0_range[0], cfg.w0_range[1], size=V)
    k = rng.choice(np.asarray(cfg.decay_set, dtype=float), size=U)
    first_notify = rng.integers(1, max(K, 2), size=U)

    availability = {}
    recipients = []
    for v in range(V):
        kind = STATIC if static[v] else DYNAMIC
        recipients.append(
            Recipient(f"r{v + 1:03d}", recip_pts[v, 0], recip_pts[v, 1], kind=kind)
        )
        if kind == DYNAMIC:
            availability[recipients[-1].id] = availability_profile(
                T, rng, cfg.availability_low, cfg.availability_high, cfg.mean_run_length
            )

    donors = [
        Donor(f"d{u + 1:03d}", donor_pts[u, 0], donor_pts[u, 1], int(first_notify[u]))
        for u in range(U)
    ]

    dist = haversine_km(
        (donor_pts[:, 0][:, None], donor_pts[:, 1][:, None]),
        (recip_pts[:, 0][None, :], recip_pts[:, 1][None, :]),
    )
    edges = []
    weights = []
    for u in range(U):
        for v in range(V):
            if dist[u, v] <= cfg.edge_radius_km:
                edges.append((donors[u].id, recipients[v].id))
                weights.append(float(edge_weight(w0[v], k[u], dist[u, v])))

    return build_scenario(
        donors=donors,
        recipients=recipients,
        edges=edges,
        weights=weights,
        availability=availability,
        horizon=T,
        rate_limit=K,
    )


# ---------------------------------------------------------------------------
# config and grid files


def load_population_grid(path) -> np.ndarray:
    """Read a (lat, lon, weight) grid CSV with its required header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["lat", "lon", "weight"]:
            raise ValueError(f"{path}: expected header lat,lon,weight, got {header}")
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: grid has no rows")
    return np.array(rows)


def _bundled(kind: str):
    return resources.files("donormatch").joinpath("data").joinpath(kind)


def bundled_city_names() -> List[str]:
    """Names of the example city configs shipped with the package."""
    out = []
    for entry in _bundled("configs").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[: -len(".json")])
    return sorted(out)


def config_from_dict(doc: Mapping, base_dir=None) -> GeneratorConfig:
    """Build a GeneratorConfig from a parsed JSON document.

    ``population`` is either {"grid": <csv path or bundled grid name>} or
    {"uniform_disc": {"center": [lat, lon], "radius_km": r}}; a grid
    resolves as ``_resolve_grid`` says. The optional ``availability``
    block takes ``low``, ``high`` and ``mean_run_length``. Unknown keys,
    at the top level or in the block, raise ValueError; absent ones take
    GeneratorConfig's defaults.
    """
    doc = dict(doc)
    pop = doc.pop("population", None)
    if not isinstance(pop, Mapping) or len(pop) != 1:
        raise ValueError("config needs a population entry with one of grid/uniform_disc")
    if "grid" in pop:
        population = _resolve_grid(pop["grid"], base_dir)
    elif "uniform_disc" in pop:
        disc = pop["uniform_disc"]
        population = UniformDisc(
            center_lat=float(disc["center"][0]),
            center_lon=float(disc["center"][1]),
            radius_km=float(disc["radius_km"]),
        )
    else:
        raise ValueError(f"unknown population form {sorted(pop)}")

    avail = doc.pop("availability", {})
    block = {
        "low": "availability_low",
        "high": "availability_high",
        "mean_run_length": "mean_run_length",
    }
    if not isinstance(avail, Mapping) or set(avail) - set(block):
        raise ValueError(f"availability block takes only {sorted(block)}, got {avail!r}")
    kwargs = {block[key]: float(value) for key, value in avail.items()}

    known = {
        "donor_count": int,
        "recipient_count": int,
        "edge_radius_km": float,
        "static_fraction": float,
        "horizon": int,
        "rate_limit": int,
        "seed": int,
    }
    for key, cast in known.items():
        if key in doc:
            kwargs[key] = cast(doc.pop(key))
    if "w0_range" in doc:
        lo, hi = doc.pop("w0_range")
        kwargs["w0_range"] = (float(lo), float(hi))
    if "decay_set" in doc:
        kwargs["decay_set"] = tuple(float(x) for x in doc.pop("decay_set"))
    if doc:
        raise ValueError(f"unknown config keys {sorted(doc)}")
    if "donor_count" not in kwargs or "recipient_count" not in kwargs:
        raise ValueError("config needs donor_count and recipient_count")
    return GeneratorConfig(population=population, **kwargs)


def _resolve_grid(ref, base_dir) -> np.ndarray:
    """Load a grid: a CSV path against base_dir (the config file's directory), else a bundled grid.

    The working directory is never searched. A bundled name may omit ``.csv``.
    """
    if base_dir is not None:
        path = os.path.join(base_dir, str(ref))
        if os.path.exists(path):
            return load_population_grid(path)
    name = str(ref)
    if not name.endswith(".csv"):
        name += ".csv"
    bundled = _bundled("grids").joinpath(name)
    if bundled.is_file():
        with resources.as_file(bundled) as path:
            return load_population_grid(path)
    raise ValueError(f"population grid {ref!r} not found on disk or among bundled grids")


def load_config(path) -> GeneratorConfig:
    """Read a generator config JSON file; its grid paths resolve against its directory."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return config_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def load_bundled_config(name: str) -> GeneratorConfig:
    """Load one of the example city configs by name."""
    entry = _bundled("configs").joinpath(f"{name}.json")
    if not entry.is_file():
        raise ValueError(
            f"no bundled city named {name!r}; have {bundled_city_names()}"
        )
    doc = json.loads(entry.read_text(encoding="utf-8"))
    return config_from_dict(doc)
