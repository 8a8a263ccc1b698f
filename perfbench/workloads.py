"""Benchmark workloads and their deterministic input generator.

Each workload is a synthetic city (tract boundaries plus demographics) and a
bikeshare fleet published as file:// GBFS feeds, one catalog per harvest
time point. The generator also derives the ground truth every output check
compares against: which tract each observation falls in, the harvested row
count, the dropped-entity tally and the set of failing feeds.

Inputs depend only on (workload, size, seed). Coordinates are plain Python
floats, so JSON and CSV round trips reproduce them exactly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

STATE = "53"
# Fixed far-future bound so a range selector covers every harvested snapshot.
RANGE_SELECTOR = "0..4102444800"
PREDICTOR_NAMES = ("pct_college", "pct_poverty", "pct_nonwhite", "pop_density", "job_density")
# Coefficients on the [0, 1] predictor scale: intercept, five predictors,
# docking indicator, five interactions (same shape as the CLI's design).
MODEL_BETA = (1.2, 0.8, -0.5, 0.3, -0.6, 0.4, 0.7, -0.4, 0.5, -0.3, 0.6, -0.2)
# Shares of generated points placed exactly on tract boundaries, and outside
# every tract.
EDGE_SHARE = 0.03
OUTSIDE_SHARE = 0.02
# Per-entity deviant rates in the GBFS feeds.
STRING_COORD_SHARE = 0.05
ABSENT_FLAGS_SHARE = 0.3
RESERVED_SHARE = 0.01
DISABLED_SHARE = 0.01
MALFORMED_SHARE = 0.005
BROKEN_DOCKED = "zz_dock_missing_feed"
BROKEN_FREE = "zz_free_bad_json"


@dataclass(frozen=True)
class City:
    cols: int
    rows: int
    side_segments: int  # segments per cell side; 50 gives ~200-vertex rings
    wiggle: float  # boundary displacement as a share of the narrowest cell side
    counties: int


@dataclass(frozen=True)
class Fleet:
    docked_systems: int
    station_range: tuple[int, int]
    dockless_systems: int
    bike_range: tuple[int, int]
    timepoints: int


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # the command whose layers the workload is built to load
    selector: str
    city: City
    fleet: Fleet


SIZES = ("small", "default", "full")

# "full" is the ROADMAP baseline's size for the analyze workloads (3000
# tracts, ~40k observations) and a 48-system fleet of up to 5000 entities per
# system. "default", the size the benchmark times, is about a tenth of it
# with the same observations per tract and ring detail, so each workload
# keeps its dominant layer while a run holds enough repetitions for a median.
# "small" feeds the benchmark's own tests.
# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
_SPECS = {
    "analyze_dense_rings": dict(
        primary="analyze",
        selector="latest",
        city={"small": City(6, 5, 4, 0.05, 2), "default": City(16, 15, 50, 0.05, 3),
              "full": City(60, 50, 50, 0.05, 6)},
        fleet={"small": Fleet(2, (20, 40), 3, (40, 80), 1),
               "default": Fleet(4, (160, 240), 8, (240, 360), 1),
               "full": Fleet(4, (2000, 3000), 8, (3000, 4500), 1)},
    ),
    "analyze_range_squares": dict(
        primary="analyze",
        selector=RANGE_SELECTOR,
        city={"small": City(6, 5, 1, 0.0, 2), "default": City(20, 15, 1, 0.0, 3),
              "full": City(60, 50, 1, 0.0, 6)},
        fleet={"small": Fleet(2, (20, 40), 3, (40, 80), 6),
               "default": Fleet(4, (200, 300), 8, (300, 450), 6),
               "full": Fleet(4, (2000, 3000), 8, (3000, 4500), 6)},
    ),
    "harvest_fleet": dict(
        primary="harvest",
        selector="latest",
        city={"small": City(5, 4, 1, 0.0, 2), "default": City(20, 15, 1, 0.0, 3),
              "full": City(40, 30, 1, 0.0, 4)},
        fleet={"small": Fleet(4, (6, 30), 8, (20, 100), 1),
               "default": Fleet(16, (30, 150), 32, (100, 500), 1),
               "full": Fleet(16, (300, 1500), 32, (1000, 5000), 1)},
    ),
}

WORKLOAD_NAMES = tuple(_SPECS)


def workload(name: str, size: str) -> Workload:
    spec = _SPECS[name]
    return Workload(
        name=name,
        primary=spec["primary"],
        selector=spec["selector"],
        city=spec["city"][size],
        fleet=spec["fleet"][size],
    )


# ---------------------------------------------------------------------------
# City geometry
# ---------------------------------------------------------------------------

@dataclass
class Tract:
    geoid: str
    parts: list  # list of polygons; a polygon is a list of rings, ring = [[lon, lat], ...]
    regions: list  # (x0, y0, x1, y1, hole) interior sampling boxes, hole = box to avoid or None
    predictors: tuple = ()


@dataclass
class CityModel:
    tracts: list[Tract]
    boundary_points: list  # (lon, lat, truth_geoid) exactly on tract boundaries
    outside_regions: list  # (x0, y0, x1, y1) boxes covered by no tract
    zero_county: str
    demographics_missing: set
    ring_vertices: int


def _segment(p0, p1, segments, amp, rng, vertical):
    """Points of one shared cell side from p0 to p1, endpoints included.

    Interior vertices are displaced perpendicular to the side by up to amp,
    tapered to zero at the corners so the four sides meeting at a corner
    never cross; both neighbouring cells reuse these exact float pairs.
    """
    points = [p0]
    for k in range(1, segments):
        t = k / segments
        offset = amp * math.sin(math.pi * t) * rng.uniform(-1.0, 1.0) if amp else 0.0
        if vertical:
            points.append((p0[0] + offset, p0[1] + (p1[1] - p0[1]) * t))
        else:
            points.append((p0[0] + (p1[0] - p0[0]) * t, p0[1] + offset))
    points.append(p1)
    return points


def _square_ring(x0, y0, x1, y1, segments):
    bottom = _segment((x0, y0), (x1, y0), segments, 0.0, None, False)
    right = _segment((x1, y0), (x1, y1), segments, 0.0, None, True)
    top = _segment((x0, y1), (x1, y1), segments, 0.0, None, False)
    left = _segment((x0, y0), (x0, y1), segments, 0.0, None, True)
    return bottom[:-1] + right[:-1] + top[::-1][:-1] + left[::-1]


def _spread(n: int, low: int, high: int, rng: random.Random) -> list[int]:
    """n values evenly spaced over [low, high], in seeded order.

    The seed decides which item gets which value but not the total, so
    every seed gives the same amount of work.
    """
    values = [low + round((high - low) * i / max(1, n - 1)) for i in range(n)]
    rng.shuffle(values)
    return values


def build_city(city: City, rng: random.Random) -> CityModel:
    base_w, base_h = 0.08, 0.06
    xs = [-122.9]
    for factor in _spread(city.cols, 1, 2, rng):
        xs.append(xs[-1] + base_w * factor)
    ys = [45.2]
    for factor in _spread(city.rows, 1, 2, rng):
        ys.append(ys[-1] + base_h * factor)
    amp = city.wiggle * base_h
    margin = amp + 0.002
    segs = city.side_segments

    vertical = {
        (c, r): _segment((xs[c], ys[r]), (xs[c], ys[r + 1]), segs, amp, rng, True)
        for c in range(city.cols + 1) for r in range(city.rows)
    }
    horizontal = {
        (c, r): _segment((xs[c], ys[r]), (xs[c + 1], ys[r]), segs, amp, rng, False)
        for c in range(city.cols) for r in range(city.rows + 1)
    }

    cols_per_county = math.ceil(city.cols / city.counties)
    county_of = {c: f"{2 * (c // cols_per_county) + 1:03d}" for c in range(city.cols)}
    zero_county = county_of[city.cols - 1]
    cells = [(c, r) for r in range(city.rows) for c in range(city.cols)]
    active = [cell for cell in cells if county_of[cell[0]] != zero_county]
    n_special = max(1, len(active) // 50)
    special = rng.sample(active, 3 * n_special)
    gaps = set(special[:n_special])
    hosts = special[n_special:3 * n_special]

    geoid_of: dict = {}
    next_code: dict = {}
    for c, r in cells:
        if (c, r) in gaps:
            continue
        county = county_of[c]
        next_code[county] = next_code.get(county, 0) + 1
        geoid_of[(c, r)] = f"{STATE}{county}{100 * next_code[county]:06d}"

    tracts: dict[str, Tract] = {}
    for (c, r), geoid in geoid_of.items():
        ring = (
            horizontal[(c, r)][:-1]
            + vertical[(c + 1, r)][:-1]
            + horizontal[(c, r + 1)][::-1][:-1]
            + vertical[(c, r)][::-1]
        )
        box = (xs[c] + margin, ys[r] + margin, xs[c + 1] - margin, ys[r + 1] - margin)
        tracts[geoid] = Tract(geoid, [[ring]], [box + (None,)])

    # Holes: each host cell gets a square hole filled by an island that is
    # either its own tract or the second part of a MultiPolygon tract.
    boundary_points = []
    hole_segments = max(1, segs // 5)
    multi_targets = [geoid_of[cell] for cell in active if cell not in gaps and cell not in hosts]
    for i, (c, r) in enumerate(hosts):
        host = tracts[geoid_of[(c, r)]]
        cx, cy = (xs[c] + xs[c + 1]) / 2, (ys[r] + ys[r + 1]) / 2
        half = 0.15 * min(xs[c + 1] - xs[c], ys[r + 1] - ys[r])
        hole_box = (cx - half, cy - half, cx + half, cy + half)
        hole = _square_ring(*hole_box, hole_segments)
        host.parts[0].append(hole)
        x0, y0, x1, y1, _ = host.regions[0]
        host.regions[0] = (x0, y0, x1, y1, tuple(v + d for v, d in zip(hole_box, (-0.002, -0.002, 0.002, 0.002))))
        island_box = (hole_box[0] + 0.002, hole_box[1] + 0.002, hole_box[2] - 0.002, hole_box[3] - 0.002, None)
        if i % 2 == 0:
            county = county_of[c]
            next_code[county] = next_code.get(county, 0) + 1
            island = Tract(f"{STATE}{county}{100 * next_code[county]:06d}", [], [])
            tracts[island.geoid] = island
        else:
            island = tracts[rng.choice(multi_targets)]
        island.parts.append([list(hole)])
        island.regions.append(island_box)
        for x, y in hole[:-1]:
            boundary_points.append((x, y, min(host.geoid, island.geoid)))
        # A point on a straight hole side, between two vertices.
        boundary_points.append((hole_box[0], hole_box[1] + 0.37 * (hole_box[3] - hole_box[1]),
                                min(host.geoid, island.geoid)))

    # Points on shared cell sides: interior side vertices (exactly on both
    # neighbours' rings), corners, and for straight sides a point between
    # corners (exact, because the side is axis-parallel).
    def owners(cells_):
        return [geoid_of[cell] for cell in cells_ if cell in geoid_of]

    for (c, r), side in vertical.items():
        owner = owners([(c - 1, r), (c, r)])
        extra = [] if segs > 1 else [(xs[c], ys[r] + rng.uniform(0.1, 0.9) * (ys[r + 1] - ys[r]))]
        for x, y in side[1:-1] + extra:
            if owner:
                boundary_points.append((x, y, min(owner)))
    for (c, r), side in horizontal.items():
        owner = owners([(c, r - 1), (c, r)])
        extra = [] if segs > 1 else [(xs[c] + rng.uniform(0.1, 0.9) * (xs[c + 1] - xs[c]), ys[r])]
        for x, y in side[1:-1] + extra:
            if owner:
                boundary_points.append((x, y, min(owner)))
    for c in range(city.cols + 1):
        for r in range(city.rows + 1):
            owner = owners([(c - 1, r - 1), (c, r - 1), (c - 1, r), (c, r)])
            if owner:
                boundary_points.append((xs[c], ys[r], min(owner)))
    boundary_points = [p for p in boundary_points if p[2][2:5] != zero_county]

    outside = [
        (xs[c] + margin, ys[r] + margin, xs[c + 1] - margin, ys[r + 1] - margin) for c, r in gaps
    ]
    outside.append((xs[-1] + 0.05, ys[0], xs[-1] + 0.3, ys[-1]))
    outside.append((xs[0], ys[-1] + 0.05, xs[-1], ys[-1] + 0.3))

    ordered = [tracts[g] for g in sorted(tracts)]
    for tract in ordered:
        tract.predictors = (
            rng.uniform(0.05, 0.95),
            rng.uniform(0.02, 0.6),
            rng.uniform(0.05, 0.9),
            rng.uniform(200.0, 20000.0),
            rng.uniform(50.0, 30000.0),
        )
    missing = {t.geoid for t in rng.sample(ordered, max(1, len(ordered) // 100))}
    vertices = sum(len(ring) for t in ordered for poly in t.parts for ring in poly)
    return CityModel(ordered, boundary_points, outside, zero_county, missing, vertices)


def _uniform_in(region, rng):
    x0, y0, x1, y1, hole = region
    while True:
        x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
        if hole is None or not (hole[0] <= x <= hole[2] and hole[1] <= y <= hole[3]):
            return x, y


def _tract_weights(model: CityModel, docked: bool) -> list[float]:
    """Poisson-model intensity per tract; zero for the bike-free county."""
    lows = [min(t.predictors[k] for t in model.tracts) for k in range(5)]
    highs = [max(t.predictors[k] for t in model.tracts) for k in range(5)]
    weights = []
    for tract in model.tracts:
        if tract.geoid[2:5] == model.zero_county:
            weights.append(0.0)
            continue
        x = [(v - lo) / (hi - lo) for v, lo, hi in zip(tract.predictors, lows, highs)]
        eta = MODEL_BETA[0] + sum(b * v for b, v in zip(MODEL_BETA[1:6], x))
        if docked:
            eta += MODEL_BETA[6] + sum(b * v for b, v in zip(MODEL_BETA[7:12], x))
        weights.append(math.exp(eta))
    return weights


def sample_points(model: CityModel, n: int, weights, rng: random.Random) -> list:
    """n points as (lon, lat, truth_geoid or None)."""
    points = []
    chosen = rng.choices(model.tracts, weights=weights, k=n)
    for tract in chosen:
        roll = rng.random()
        if roll < EDGE_SHARE:
            points.append(rng.choice(model.boundary_points))
        elif roll < EDGE_SHARE + OUTSIDE_SHARE:
            x0, y0, x1, y1 = rng.choice(model.outside_regions)
            points.append((rng.uniform(x0, x1), rng.uniform(y0, y1), None))
        else:
            areas = [(r[2] - r[0]) * (r[3] - r[1]) for r in tract.regions]
            region = rng.choices(tract.regions, weights=areas)[0]
            points.append(_uniform_in(region, rng) + (tract.geoid,))
    return points


# ---------------------------------------------------------------------------
# GBFS fleet
# ---------------------------------------------------------------------------

def _coord(value: float, rng: random.Random):
    return repr(value) if rng.random() < STRING_COORD_SHARE else value


def _malformed(rng: random.Random, id_key: str, index: int):
    kind = rng.randrange(5)
    if kind == 0:
        return {"lat": 45.5, "lon": -122.6}  # no id
    if kind == 1:
        return {id_key: f"bad{index}", "lat": 95.0, "lon": -122.6}
    if kind == 2:
        return {id_key: f"bad{index}", "lat": 45.5, "lon": 200.0}
    if kind == 3:
        return {id_key: f"bad{index}", "lat": "north", "lon": -122.6}
    return "not-an-object"


def _feed_entries(entities, id_key, rng, bikes):
    """GBFS entries for (entity_id, lon, lat, state) tuples plus deviants.

    Returns (entries, dropped) where dropped counts the malformed extras.
    """
    entries = []
    dropped = 0
    for index, (entity_id, lon, lat, state) in enumerate(entities):
        entry = {id_key: entity_id, "lat": _coord(lat, rng), "lon": _coord(lon, rng)}
        if bikes:
            if state != "ok":
                entry["is_reserved"] = state == "reserved"
                entry["is_disabled"] = state == "disabled"
            elif rng.random() >= ABSENT_FLAGS_SHARE:
                entry["is_reserved"] = False
                entry["is_disabled"] = False
        else:
            entry["name"] = f"Station {entity_id}"
            entry["capacity"] = rng.randrange(8, 40)
        entries.append(entry)
        if rng.random() < MALFORMED_SHARE:
            entries.append(_malformed(rng, id_key, index))
            dropped += 1
    return entries, dropped


def _split(items, sizes):
    out, start = [], 0
    for size in sizes:
        out.append(items[start:start + size])
        start += size
    return out


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path.resolve().as_uri()


def generate(name: str, size: str, seed: int, out: Path) -> dict:
    """Write a workload's inputs under `out` and return its ground truth.

    Files: boundaries.geojson, demographics.csv and, per harvest time point t,
    catalog_t<t>.csv with its GBFS documents under feeds_t<t>/.
    """
    spec = workload(name, size)
    rng = random.Random(f"{name}:{size}:{seed}")
    model = build_city(spec.city, rng)
    out.mkdir(parents=True, exist_ok=True)

    features = []
    for tract in model.tracts:
        if len(tract.parts) == 1:
            geometry = {"type": "Polygon", "coordinates": tract.parts[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": tract.parts}
        features.append({"type": "Feature", "properties": {"GEOID": tract.geoid}, "geometry": geometry})
    boundaries = out / "boundaries.geojson"
    boundaries.write_text(json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8")

    demo_lines = ["tract_geoid," + ",".join(PREDICTOR_NAMES)]
    for tract in model.tracts:
        if tract.geoid not in model.demographics_missing:
            demo_lines.append(tract.geoid + "," + ",".join(repr(v) for v in tract.predictors))
    demographics = out / "demographics.csv"
    demographics.write_text("\n".join(demo_lines) + "\n", encoding="utf-8")

    fleet = spec.fleet
    station_sizes = _spread(fleet.docked_systems, *fleet.station_range, rng)
    bike_sizes = _spread(fleet.dockless_systems, *fleet.bike_range, rng)
    docked_weights = _tract_weights(model, True)
    free_weights = _tract_weights(model, False)
    stations = sample_points(model, sum(station_sizes), docked_weights, rng)
    station_systems = _split(stations, station_sizes)

    catalogs = []
    harvests = []
    for t in range(fleet.timepoints):
        feed_dir = out / f"feeds_t{t}"
        feed_dir.mkdir(exist_ok=True)
        bikes = sample_points(model, sum(bike_sizes), free_weights, rng)
        systems = []  # (system_id, docked, [(entity_id, lon, lat, state, truth)])
        for i, group in enumerate(station_systems):
            systems.append((f"dock_{i:02d}", True,
                            [(f"st{j}", x, y, "ok", g) for j, (x, y, g) in enumerate(group)]))
        for i, group in enumerate(_split(bikes, bike_sizes)):
            entities = []
            for j, (x, y, g) in enumerate(group):
                roll = rng.random()
                state = ("reserved" if roll < RESERVED_SHARE
                         else "disabled" if roll < RESERVED_SHARE + DISABLED_SHARE else "ok")
                entities.append((f"b{j}", x, y, state, g))
            systems.append((f"free_{i:02d}", False, entities))

        observations = []
        dropped = 0
        catalog_lines = ["system_id,country_code,name,auto_discovery_url"]
        for k, (system_id, docked, entities) in enumerate(systems):
            feed_name = "station_information" if docked else "free_bike_status"
            entries, n_bad = _feed_entries(
                [e[:4] for e in entities], "station_id" if docked else "bike_id", rng, not docked
            )
            dropped += n_bad
            key = "stations" if docked else "bikes"
            url = _write_json(feed_dir / f"{system_id}_{feed_name}.json",
                              {"last_updated": 1_700_000_000, "ttl": 60, "data": {key: entries}})
            feeds = [{"name": feed_name, "url": url}]
            data = {"en": {"feeds": feeds}} if k % 2 == 0 else {"feeds": feeds}
            discovery = _write_json(feed_dir / f"{system_id}_gbfs.json",
                                    {"last_updated": 1_700_000_000, "ttl": 60, "data": data})
            catalog_lines.append(f"{system_id},US,{system_id} bikes,{discovery}")
            for entity_id, x, y, state, truth in entities:
                if state == "ok":
                    observations.append(
                        (system_id, entity_id, "docked" if docked else "free", x, y, truth)
                    )
        # One system whose advertised feed file is missing, one whose feed is
        # not JSON: each is a recorded failure that must not abort the harvest.
        missing = feed_dir / "missing_station_information.json"
        bad = feed_dir / f"{BROKEN_FREE}_free_bike_status.json"
        bad.write_text('{"data": {"bikes": [', encoding="utf-8")
        for system_id, feed_name, url in (
            (BROKEN_DOCKED, "station_information", missing.resolve().as_uri()),
            (BROKEN_FREE, "free_bike_status", bad.resolve().as_uri()),
        ):
            discovery = _write_json(
                feed_dir / f"{system_id}_gbfs.json",
                {"last_updated": 1_700_000_000, "ttl": 60,
                 "data": {"en": {"feeds": [{"name": feed_name, "url": url}]}}},
            )
            catalog_lines.append(f"{system_id},US,{system_id} bikes,{discovery}")
        catalog = out / f"catalog_t{t}.csv"
        catalog.write_text("\n".join(catalog_lines) + "\n", encoding="utf-8")
        catalogs.append(str(catalog))
        harvests.append({
            "rows": len(observations),
            "dropped": dropped,
            "failures": sorted([[BROKEN_DOCKED, "station_information"], [BROKEN_FREE, "free_bike_status"]]),
            "observations": observations,
        })

    # What a load over the selector returns: the latest snapshot, or for a
    # range the newest observation per (system, entity, docking type).
    if spec.selector == "latest":
        loaded = harvests[-1]["observations"]
    else:
        newest = {}
        for snapshot in harvests:
            for obs in snapshot["observations"]:
                newest[obs[:3]] = obs
        loaded = list(newest.values())
    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "primary": spec.primary,
        "selector": spec.selector,
        "boundaries": str(boundaries),
        "demographics": str(demographics),
        "catalogs": catalogs,
        "harvest": {k: v for k, v in harvests[-1].items() if k != "observations"},
        "harvest_observations": harvests[-1]["observations"],
        "ring_vertices": model.ring_vertices,
        "analyze": analysis_truth(model, loaded, spec.selector),
        "map_markers": len(loaded),
    }


def analysis_truth(model: CityModel, loaded: list, selector: str) -> dict:
    """Expected analyze results for the loaded observations."""
    geoids = [t.geoid for t in model.tracts]
    counts = {g: [0, 0] for g in geoids}
    unassigned = 0
    per_system = {"docked": {}, "free": {}}
    for system_id, _, kind, _, _, truth in loaded:
        per_system[kind][system_id] = per_system[kind].get(system_id, 0) + 1
        if truth is None:
            unassigned += 1
        else:
            counts[truth][0 if kind == "docked" else 1] += 1
    active = {g[:5] for g, (d, f) in counts.items() if d + f}
    retained = [g for g in geoids if g[:5] in active]
    joined = [g for g in retained if g not in model.demographics_missing]
    by_geoid = {t.geoid: t.predictors for t in model.tracts}
    scaling = {}
    for k, name in enumerate(PREDICTOR_NAMES):
        values = [by_geoid[g][k] for g in joined]
        scaling[name] = {"min": min(values), "max": max(values)}
    table1 = ["docking_type,total_bikes,n_systems,q25,q50,q75"]
    for kind in ("free", "docked"):
        sizes = sorted(per_system[kind].values())
        if sizes:
            qs = [_quantile(sizes, q) for q in (0.25, 0.5, 0.75)]
            table1.append(f"{kind},{sum(sizes)},{len(sizes)},{qs[0]!r},{qs[1]!r},{qs[2]!r}")
    return {
        "manifest": {
            "snapshot_selector": selector,
            "observations": len(loaded),
            "unassigned_observations": unassigned,
            "tracts_in_boundaries": len(geoids),
            "tracts_retained": len(retained),
            "tracts_joined": len(joined),
            "demographics_unmatched": len(retained) - len(joined),
            "scaling": scaling,
        },
        "counts": counts,
        "table1": "\n".join(table1) + "\n",
        "frame": [[g, *by_geoid[g], *counts[g]] for g in joined],
    }


def _quantile(sorted_values, q):
    """Type-7 quantile (linear interpolation between order statistics)."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    position = (n - 1) * q
    low = math.floor(position)
    high = min(low + 1, n - 1)
    fraction = position - low
    return float(sorted_values[low] + fraction * (sorted_values[high] - sorted_values[low]))
