"""Shared fixture builders and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
import operator
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from bikeshare_equity.gbfs_client import SystemEntry
from bikeshare_equity.join_aggregate import (
    PREDICTOR_NAMES,
    DemographicsRow,
    TractCount,
    TractTable,
)
from bikeshare_equity.snapshot_store import (
    OBSERVATION_COLUMNS,
    BikeObservation,
    DockingType,
    Observations,
    append_snapshot,
)

OBSERVED_AT = 1_700_000_000


# ---------------------------------------------------------------------------
# GBFS document fixtures
# ---------------------------------------------------------------------------

def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path.as_uri()


def station_doc(stations, last_updated=OBSERVED_AT, ttl=60) -> dict:
    return {"last_updated": last_updated, "ttl": ttl, "data": {"stations": list(stations)}}


def bike_doc(bikes, last_updated=OBSERVED_AT, ttl=60) -> dict:
    return {"last_updated": last_updated, "ttl": ttl, "data": {"bikes": list(bikes)}}


def make_system(
    root: Path,
    system_id: str,
    stations=None,
    bikes=None,
    *,
    language_layer: bool = True,
    status=None,
    country: str = "US",
    station_feed_url: str | None = None,
    bike_feed_url: str | None = None,
) -> SystemEntry:
    """Write discovery + feed fixture files and return a catalog entry.

    stations / bikes of None omit the feed from the discovery document; the
    explicit *_feed_url overrides let a test advertise an unreachable feed.
    """
    root.mkdir(parents=True, exist_ok=True)
    feeds = []
    if stations is not None or station_feed_url is not None:
        url = station_feed_url or write_json(
            root / f"{system_id}_station_information.json", station_doc(stations or [])
        )
        feeds.append({"name": "station_information", "url": url})
    if bikes is not None or bike_feed_url is not None:
        url = bike_feed_url or write_json(
            root / f"{system_id}_free_bike_status.json", bike_doc(bikes or [])
        )
        feeds.append({"name": "free_bike_status", "url": url})
    if status is not None:
        url = write_json(
            root / f"{system_id}_station_status.json",
            {
                "last_updated": OBSERVED_AT,
                "ttl": 60,
                "data": {
                    "stations": [
                        {"station_id": sid, "num_bikes_available": n}
                        for sid, n in status.items()
                    ]
                },
            },
        )
        feeds.append({"name": "station_status", "url": url})
    if language_layer:
        data = {"en": {"feeds": feeds}}
    else:
        data = {"feeds": feeds}
    discovery_url = write_json(
        root / f"{system_id}_gbfs.json",
        {"last_updated": OBSERVED_AT, "ttl": 60, "data": data},
    )
    return SystemEntry(
        system_id=system_id,
        name=f"{system_id} bikes",
        country_code=country,
        discovery_url=discovery_url,
    )


def write_catalog(path: Path, entries) -> Path:
    lines = ["system_id,country_code,name,auto_discovery_url"]
    for entry in entries:
        lines.append(
            f"{entry.system_id},{entry.country_code},{entry.name},{entry.discovery_url}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def observation(
    system_id: str,
    entity_id: str,
    lat: float,
    lon: float,
    docking_type: DockingType = DockingType.FREE,
    observed_at: int = OBSERVED_AT,
) -> BikeObservation:
    return BikeObservation(system_id, entity_id, lat, lon, docking_type, observed_at)


def observations_of(records) -> Observations:
    """The columns of BikeObservation records, read once (so a generator
    will do), taken with one zip over the tuples: the Observations that a
    stage takes."""
    return Observations.from_columns(*(tuple(zip(*records)) or ((),) * len(OBSERVATION_COLUMNS)))


def tract_table_of(records) -> TractTable:
    """The columns of tract records of one kind (TractCounts, TractRecords
    or DemographicsRows), read once: the TractTable that a stage takes."""
    records = list(records)
    first = records[0] if records else None
    predictors = operator.attrgetter(*PREDICTOR_NAMES)
    return TractTable(
        [record.tract_geoid for record in records],
        None if isinstance(first, DemographicsRow) else np.array(
            [(record.count_docked, record.count_free) for record in records], dtype=int
        ).reshape(-1, 2),
        None if isinstance(first, TractCount) else np.array(
            [predictors(getattr(record, "demographics", record)) for record in records],
            dtype=np.float64,
        ).reshape(-1, len(PREDICTOR_NAMES)),
    )


def checked_demographics_row(geoid: str, *values: float) -> DemographicsRow:
    """A DemographicsRow whose ranges are checked field by field, in order,
    as the record type once checked itself: the reference for the
    demographics reader's range errors."""
    row = DemographicsRow(geoid, *values)
    for name in ("pct_college", "pct_poverty", "pct_nonwhite"):
        value = getattr(row, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    for name in ("pop_density", "job_density"):
        value = getattr(row, name)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be a non-negative number, got {value!r}")
    return row


def memo_name(path) -> str:
    """The name of the content cache's stat memo for the file at path."""
    st = os.stat(path)
    return f"stat-v1-{st.st_dev}-{st.st_ino}"


def memos(cache_dir) -> list[str]:
    """The names of the finished stat memos in cache_dir, sorted."""
    return sorted(p.name for p in Path(cache_dir).iterdir() if p.name.startswith("stat-v1-"))


def memos_of(*inputs) -> list[str]:
    """The memo names, sorted, that loading each of these files can leave."""
    return sorted({memo_name(path) for path in inputs})


def only_memos_of(cache_dir, *inputs) -> bool:
    """Whether each finished stat memo in cache_dir is the memo of one of
    these inputs. A load leaves at most one per input, and none for an input
    that changed less than content_cache.RACY_WINDOW_NS before it, so which
    of them are there depends on the clock."""
    return set(memos(cache_dir)) <= set(memos_of(*inputs))


def entries_besides_memos(cache_dir, *inputs) -> list[str]:
    """The names in cache_dir, sorted, but for the stat memos of these
    inputs, which may or may not be there (only_memos_of)."""
    left_out = set(memos_of(*inputs))
    return sorted(p.name for p in Path(cache_dir).iterdir() if p.name not in left_out)


def city_inputs(city) -> tuple[Path, ...]:
    """The files an analyze of a synthetic city loads."""
    return (*city["store"].glob("snapshot_*.csv"), city["boundaries"], city["demographics"])


# ---------------------------------------------------------------------------
# Boundary fixtures
# ---------------------------------------------------------------------------

def square_feature(geoid: str, west: float, south: float, size: float = 1.0) -> dict:
    ring = [
        [west, south],
        [west + size, south],
        [west + size, south + size],
        [west, south + size],
        [west, south],
    ]
    return {
        "type": "Feature",
        "properties": {"GEOID": geoid},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def write_feature_collection(path: Path, features) -> Path:
    path.write_text(
        json.dumps({"type": "FeatureCollection", "features": list(features)}),
        encoding="utf-8",
    )
    return path


def five_tract_features() -> list[dict]:
    """Four unit squares in a row plus one offset square, with gaps around."""
    features = [
        square_feature(f"5303300010{i}", west=float(2 * i), south=0.0) for i in range(4)
    ]
    features.append(square_feature("53033000200", west=1.0, south=3.0))
    return features


def multi_city_features() -> list[dict]:
    """Four clusters of 3 x 3 tracts an eighth of a degree square, degrees
    apart, as a boundary file for several cities holds them, and one large
    tract over the first two clusters. Its GEOID lies between theirs, so the
    first cluster's tracts win their overlaps with it and it wins the
    second's."""
    corners = [(-100.0, 30.0), (-99.5, 30.0), (-95.0, 35.0), (-104.0, 38.0)]
    features = [
        square_feature(f"5303301{c}0{i}{j}", west + i / 8, south + j / 8, size=1 / 8)
        for c, (west, south) in enumerate(corners, start=1)
        for i in range(3)
        for j in range(3)
    ]
    big = [[-100.125, 29.875], [-99.0, 29.875], [-99.0, 30.5], [-100.125, 30.5], [-100.125, 29.875]]
    features.append({
        "type": "Feature",
        "properties": {"GEOID": "53033011500"},
        "geometry": {"type": "Polygon", "coordinates": [big]},
    })
    return features


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def winding_number_inside(lon: float, lat: float, rings) -> bool:
    """Winding-number containment test, independent of the ray-casting path."""

    def winding(ring) -> int:
        wn = 0
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            is_left = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
            if y1 <= lat:
                if y2 > lat and is_left > 0:
                    wn += 1
            elif y2 <= lat and is_left < 0:
                wn -= 1
        return wn

    if winding(rings[0]) == 0:
        return False
    return all(winding(hole) == 0 for hole in rings[1:])


def quantile_oracle(values, q: float) -> float:
    """Sort-plus-interpolation quantile, written independently of the package."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    position = q * (n - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def newton_poisson_fit(X, y, max_iter: int = 200) -> np.ndarray:
    """Direct Newton iteration on the analytic Poisson score and Hessian.

    Starts from zero (a different start than the package fit) and polishes the
    gradient essentially to machine precision, with simple backtracking when a
    full step would lower the log likelihood.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(X.shape[1])
    gradient_floor = 1e-12 * (1.0 + np.max(np.abs(X.T @ y)))
    for _ in range(max_iter):
        eta = X @ beta
        mu = np.exp(eta)
        gradient = X.T @ (y - mu)
        if np.max(np.abs(gradient)) < gradient_floor:
            break
        hessian = X.T @ (X * mu[:, None])
        step = np.linalg.solve(hessian, gradient)
        log_lik = float(np.sum(y * eta - mu))
        scale = 1.0
        for _ in range(60):
            candidate = beta + scale * step
            with np.errstate(over="ignore"):
                mu_c = np.exp(X @ candidate)
            if np.isfinite(mu_c).all():
                ll_c = float(np.sum(y * (X @ candidate) - mu_c))
                if ll_c >= log_lik - 1e-12:
                    break
            scale *= 0.5
        beta = beta + scale * step
    return beta


def random_poisson_instance(seed: int, max_rows: int = 200, max_cols: int = 4):
    """A tame random Poisson regression instance with an intercept column."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, max_rows + 1))
    p = int(rng.integers(1, max_cols + 1))
    X = np.ones((n, p))
    if p > 1:
        X[:, 1:] = rng.normal(0.0, 0.6, size=(n, p - 1))
    beta = rng.uniform(-0.7, 0.7, size=p)
    beta[0] = rng.uniform(0.0, 1.2)
    y = rng.poisson(np.exp(X @ beta))
    return X, y


# ---------------------------------------------------------------------------
# Synthetic city (end-to-end pipeline fixture)
# ---------------------------------------------------------------------------

CITY_SEED = 20240601
CITY_COUNTY = "53033"
# Coefficients on the scaled [0, 1] predictor scale:
# intercept, five predictors, docking indicator, five interactions.
CITY_BETA = np.array(
    [1.2, 0.8, -0.5, 0.3, -0.6, 0.4, 0.7, -0.4, 0.5, -0.3, 0.6, -0.2]
)


def _point_in_cell(west: float, south: float, cell: float, j: int):
    fx = 0.1 + 0.8 * ((j * 37) % 64) / 63.0
    fy = 0.1 + 0.8 * ((j * 53) % 64) / 63.0
    return west + fx * cell, south + fy * cell


def build_synthetic_city(
    root: Path,
    n_cols: int = 20,
    n_rows: int = 15,
    seed: int = CITY_SEED,
    beta: np.ndarray = CITY_BETA,
    observed_at: int = OBSERVED_AT,
) -> dict:
    """Deterministic end-to-end fixture under one county.

    The demographics attain exactly 0 and 1 on every predictor, so the
    pipeline's min-max scaling is the identity and `beta` is the true
    coefficient vector on the scaled scale. Counts are Poisson draws from the
    model; each counted bike/station becomes an observation strictly inside
    its tract square.
    """
    rng = np.random.default_rng(seed)
    n_tracts = n_cols * n_rows
    cell = 0.125
    lon0, lat0 = -122.5, 45.0
    geoids = [f"{CITY_COUNTY}{i:06d}" for i in range(n_tracts)]
    predictors = rng.uniform(0.05, 0.95, size=(n_tracts, 5))
    predictors[0, :] = 0.0
    predictors[1, :] = 1.0

    features = []
    demo_lines = [
        "tract_geoid,pct_college,pct_poverty,pct_nonwhite,pop_density,job_density"
    ]
    observations = []
    counts = {}
    for i, geoid in enumerate(geoids):
        row_i, col_i = divmod(i, n_cols)
        west = lon0 + col_i * cell
        south = lat0 + row_i * cell
        features.append(square_feature(geoid, west, south, size=cell))
        demo_lines.append(geoid + "," + ",".join(repr(float(v)) for v in predictors[i]))
        x = predictors[i]
        eta_free = beta[0] + x @ beta[1:6]
        eta_docked = eta_free + beta[6] + x @ beta[7:12]
        count_free = int(rng.poisson(math.exp(eta_free)))
        count_docked = int(rng.poisson(math.exp(eta_docked)))
        counts[geoid] = (count_docked, count_free)
        for j in range(count_free):
            lon, lat = _point_in_cell(west, south, cell, j)
            observations.append(
                BikeObservation(
                    "metro_free", f"fb_{geoid}_{j}", lat, lon, DockingType.FREE, observed_at
                )
            )
        for j in range(count_docked):
            lon, lat = _point_in_cell(west, south, cell, j + 4096)
            observations.append(
                BikeObservation(
                    "metro_dock", f"st_{geoid}_{j}", lat, lon, DockingType.DOCKED, observed_at
                )
            )

    root.mkdir(parents=True, exist_ok=True)
    boundaries = write_feature_collection(root / "boundaries.geojson", features)
    demographics = root / "demographics.csv"
    demographics.write_text("\n".join(demo_lines) + "\n", encoding="utf-8")
    store = root / "store"
    receipt = append_snapshot(observations_of(observations), store, clock=lambda: observed_at)
    return {
        "store": store,
        "boundaries": boundaries,
        "demographics": demographics,
        "beta": np.asarray(beta, dtype=float),
        "geoids": geoids,
        "counts": counts,
        "observations": observations,
        "receipt": receipt,
        "predictors": predictors,
    }


# ---------------------------------------------------------------------------
# CSV fuzzing
# ---------------------------------------------------------------------------

FIELD_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "nan", "inf", "-0.0", "1e400", "1e308", "-1", "1.5", "0.5", "1_0",
                     '"', "\r", "\n", "\x00", ",", " 53033000001 ", "x" * 140_000]),
)


@st.composite
def mutated(draw, valid: bytes):
    """valid with one edit: a field replaced (written unquoted, so it may
    break the CSV), bytes inserted, a span cut out, or a line dropped or
    doubled."""
    action = draw(st.sampled_from(["field", "insert", "cut", "line"]))
    if action == "field":
        rows = [line.split(",") for line in valid.decode().splitlines()]
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(rows[row]) - 1))
        rows[row][column] = draw(FIELD_TEXT)
        return ("\n".join(",".join(r) for r in rows) + "\n").encode("utf-8", "surrogatepass")
    if action == "insert":
        at = draw(st.integers(0, len(valid)))
        return valid[:at] + draw(st.binary(min_size=1, max_size=6)) + valid[at:]
    if action == "cut":
        start = draw(st.integers(0, len(valid) - 1))
        return valid[:start] + valid[start + draw(st.integers(1, 40)):]
    lines = valid.splitlines(keepends=True)
    index = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        return b"".join(lines[:index] + lines[index + 1:])
    return b"".join(lines[: index + 1] + lines[index:])
