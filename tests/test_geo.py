import copy
import json
import math
import timeit
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bikeshare_equity import geo
from bikeshare_equity.errors import BikeshareEquityError, GeometryError, SchemaError
from bikeshare_equity.geo import (
    BoundingBox,
    TractIndex,
    TractPolygon,
    assign_tracts,
    load_boundaries,
    point_in_polygon,
)
from bikeshare_equity.join_aggregate import count_by_tract
from helpers import (
    build_synthetic_city,
    five_tract_features,
    multi_city_features,
    observation,
    observations_of,
    square_feature,
    winding_number_inside,
    write_feature_collection,
)


def load_fixture(tmp_path, features, **kwargs):
    path = write_feature_collection(tmp_path / "tracts.geojson", features)
    return load_boundaries(path, **kwargs)


def at_side(monkeypatch, degrees):
    """Give every index built after this the sub-cell side 2**e, the largest
    power of two at most this many degrees, whatever the budget."""
    exponent = math.floor(math.log2(degrees))
    monkeypatch.setattr(geo, "_TABLE_EXPONENTS", range(exponent, exponent + 1))


def poly_from(tmp_path, feature):
    index = load_fixture(tmp_path, [feature])
    return index.polygons[0]


UNIT_SQUARE = square_feature("53033000101", west=0.0, south=0.0)


def concave_u_feature(geoid="53033000900"):
    # U shape: a 4x4 square with a notch cut from the top middle.
    ring = [
        [0.0, 0.0],
        [4.0, 0.0],
        [4.0, 4.0],
        [3.0, 4.0],
        [3.0, 1.0],
        [1.0, 1.0],
        [1.0, 4.0],
        [0.0, 4.0],
        [0.0, 0.0],
    ]
    return {
        "type": "Feature",
        "properties": {"GEOID": geoid},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def holed_square_feature(geoid="53033000800"):
    outer = [[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [0.0, 0.0]]
    hole = [[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0], [1.0, 1.0]]
    return {
        "type": "Feature",
        "properties": {"GEOID": geoid},
        "geometry": {"type": "Polygon", "coordinates": [outer, hole]},
    }


# ---------------------------------------------------------------------------
# load_boundaries
# ---------------------------------------------------------------------------

def test_load_two_disjoint_squares(tmp_path):
    index = load_fixture(
        tmp_path,
        [
            square_feature("53033000101", 0.0, 0.0),
            square_feature("53033000102", 5.0, 5.0),
        ],
    )
    assert len(index.polygons) == 2
    assert index.geoids() == ["53033000101", "53033000102"]
    first = index.polygons[0]
    assert (first.bbox.min_lon, first.bbox.min_lat) == (0.0, 0.0)
    assert (first.bbox.max_lon, first.bbox.max_lat) == (1.0, 1.0)
    assert first.county_geoid == "53033"


def test_load_multipolygon_splits_parts(tmp_path):
    feature = {
        "type": "Feature",
        "properties": {"GEOID": "53033000300"},
        "geometry": {
            "type": "MultiPolygon",
            "coordinates": [
                [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]],
                [[[5.0, 5.0], [6.0, 5.0], [6.0, 6.0], [5.0, 6.0], [5.0, 5.0]]],
            ],
        },
    }
    index = load_fixture(tmp_path, [feature])
    assert len(index.polygons) == 2
    assert {p.tract_geoid for p in index.polygons} == {"53033000300"}


def test_load_three_point_ring_rejected(tmp_path):
    feature = {
        "type": "Feature",
        "properties": {"GEOID": "53033000400"},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
        },
    }
    with pytest.raises(GeometryError):
        load_fixture(tmp_path, [feature])


def test_load_unclosed_ring_rejected(tmp_path):
    feature = {
        "type": "Feature",
        "properties": {"GEOID": "53033000500"},
        "geometry": {
            "type": "Polygon",
            "coordinates": [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]],
        },
    }
    with pytest.raises(GeometryError, match="not closed"):
        load_fixture(tmp_path, [feature])


def test_load_missing_geoid_names_feature_index(tmp_path):
    features = [
        square_feature("53033000101", 0.0, 0.0),
        {
            "type": "Feature",
            "properties": {},
            "geometry": square_feature("53033000102", 2.0, 2.0)["geometry"],
        },
    ]
    with pytest.raises(SchemaError, match="feature 1"):
        load_fixture(tmp_path, features)


def test_load_lowercase_geoid_fallback(tmp_path):
    feature = square_feature("53033000101", 0.0, 0.0)
    feature["properties"] = {"geoid": "53033000101"}
    index = load_fixture(tmp_path, [feature])
    assert index.geoids() == ["53033000101"]


def test_load_non_tract_geoid_rejected(tmp_path):
    feature = square_feature("53033000101", 0.0, 0.0)
    feature["properties"]["GEOID"] = "53033"
    with pytest.raises(SchemaError, match="11"):
        load_fixture(tmp_path, [feature])


# ---------------------------------------------------------------------------
# point_in_polygon
# ---------------------------------------------------------------------------

def test_point_in_unit_square(tmp_path):
    poly = poly_from(tmp_path, UNIT_SQUARE)
    assert point_in_polygon(0.5, 0.5, poly) is True
    assert point_in_polygon(2.0, 2.0, poly) is False


def test_point_on_edge_counts_inside(tmp_path):
    poly = poly_from(tmp_path, UNIT_SQUARE)
    assert point_in_polygon(0.5, 0.0, poly) is True  # west edge
    assert point_in_polygon(0.0, 0.5, poly) is True  # south edge
    assert point_in_polygon(1.0, 1.0, poly) is True  # corner vertex


def test_point_in_concave_notch(tmp_path):
    poly = poly_from(tmp_path, concave_u_feature())
    assert point_in_polygon(3.0, 2.0, poly) is False  # lat 3 in the notch
    assert point_in_polygon(0.5, 0.5, poly) is True
    assert point_in_polygon(3.0, 3.5, poly) is True  # right prong


def test_point_in_hole(tmp_path):
    poly = poly_from(tmp_path, holed_square_feature())
    assert point_in_polygon(2.0, 2.0, poly) is False  # centered hole
    assert point_in_polygon(0.5, 0.5, poly) is True
    assert point_in_polygon(1.0, 2.0, poly) is True  # on the hole boundary


def test_concave_and_hole_agree_with_winding_oracle(tmp_path):
    for feature in (concave_u_feature(), holed_square_feature()):
        poly = poly_from(tmp_path, feature)
        rng = np.random.default_rng(7)
        for _ in range(400):
            lon = float(rng.uniform(-0.5, 4.5))
            lat = float(rng.uniform(-0.5, 4.5))
            assert point_in_polygon(lat, lon, poly) == winding_number_inside(
                lon, lat, poly.rings
            ), (lon, lat, feature["properties"]["GEOID"])


def test_ring_rotation_invariance(tmp_path):
    base = concave_u_feature()
    ring = base["geometry"]["coordinates"][0]
    open_ring = ring[:-1]
    probes = [(x / 3.0, y / 3.0) for x in range(-1, 14) for y in range(-1, 14)]
    reference = None
    for shift in range(len(open_ring)):
        rotated = open_ring[shift:] + open_ring[:shift]
        rotated.append(rotated[0])
        feature = {
            "type": "Feature",
            "properties": {"GEOID": "53033000900"},
            "geometry": {"type": "Polygon", "coordinates": [rotated]},
        }
        poly = poly_from(tmp_path, feature)
        answers = [point_in_polygon(lat, lon, poly) for lon, lat in probes]
        if reference is None:
            reference = answers
        else:
            assert answers == reference, f"shift {shift}"


def test_outside_bbox_short_circuits(tmp_path):
    poly = poly_from(tmp_path, UNIT_SQUARE)
    assert point_in_polygon(50.0, 50.0, poly) is False
    assert point_in_polygon(-0.001, 0.5, poly) is False


def test_edge_rule_deterministic(tmp_path):
    poly = poly_from(tmp_path, UNIT_SQUARE)
    answers = {point_in_polygon(0.0, 0.25, poly) for _ in range(20)}
    assert answers == {True}


# ---------------------------------------------------------------------------
# assign_tracts, one point at a time
# ---------------------------------------------------------------------------

def test_assign_inside_tract(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    assert assign_tracts([0.5], [0.5], index) == ["53033000100"]


def test_assign_in_gap_returns_none(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    assert assign_tracts([0.5], [1.5], index) == [None]  # gap between squares


def test_assign_shared_boundary_prefers_smallest_geoid(tmp_path):
    index = load_fixture(
        tmp_path,
        [
            square_feature("53033000102", 0.0, 0.0),
            square_feature("53033000101", 1.0, 0.0),  # shares the lon=1 edge
        ],
    )
    assert assign_tracts([0.5], [1.0], index) == ["53033000101"]


def test_grid_matches_exhaustive_scan(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(1000):
        lon = float(rng.uniform(-1.0, 9.0))
        lat = float(rng.uniform(-1.0, 5.0))
        fast = assign_tracts([lat], [lon], index)[0]
        matches = [
            poly.tract_geoid
            for poly in index.polygons
            if point_in_polygon(lat, lon, poly)
        ]
        slow = min(matches) if matches else None
        if fast != slow:
            disagreements += 1
    assert disagreements == 0


def assert_pairs_cover_containers(index, probes):
    """geo._pairs lists every (point, container) pair of the (lon, lat)
    probes: its pairs are a superset of the containers."""
    lats = np.array([lat for _, lat in probes], dtype=np.float64)
    lons = np.array([lon for lon, _ in probes], dtype=np.float64)
    pairs = set(zip(*(column.tolist() for column in geo._pairs(lats, lons, index))))
    for point, (lon, lat) in enumerate(probes):
        for position, poly in enumerate(index.polygons):
            if point_in_polygon(lat, lon, poly):
                assert (point, position) in pairs


def test_candidates_are_superset_of_containers(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    rng = np.random.default_rng(3)
    probes = [(float(rng.uniform(-1.0, 9.0)), float(rng.uniform(-1.0, 5.0))) for _ in range(300)]
    assert_pairs_cover_containers(index, probes)


@pytest.mark.parametrize(
    "box", [(0.0, 0.0, 181.0, 1.0), (0.0, -91.0, 1.0, 1.0), (float("nan"), 0.0, 1.0, 1.0)]
)
def test_index_rejects_boxes_beyond_lon_lat_degrees(box):
    ring = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="lon"):
        TractIndex([TractPolygon("53033000101", "53033", (ring,), BoundingBox(*box))])


def test_load_boundaries_rejects_non_geojson(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "Telephone"}))
    with pytest.raises(SchemaError):
        load_boundaries(path)


# ---------------------------------------------------------------------------
# assign_tracts: the batch geocoder against the scalar point_in_polygon scan
# ---------------------------------------------------------------------------

def exhaustive_tract(index, lat, lon):
    matches = [poly.tract_geoid for poly in index.polygons if point_in_polygon(lat, lon, poly)]
    return min(matches) if matches else None


def multipolygon_city_features():
    """A MultiPolygon tract whose second part fills its first part's hole,
    a neighbour sharing its west side, and four squares sharing a corner."""
    outer = [[20.0, 20.0], [24.0, 20.0], [24.0, 24.0], [20.0, 24.0], [20.0, 20.0]]
    hole = [[21.0, 21.0], [23.0, 21.0], [23.0, 23.0], [21.0, 23.0], [21.0, 21.0]]
    island = [[21.0, 21.0], [23.0, 21.0], [23.0, 23.0], [21.0, 23.0], [21.0, 21.0]]
    features = [
        {
            "type": "Feature",
            "properties": {"GEOID": "53033000700"},
            "geometry": {"type": "MultiPolygon", "coordinates": [[outer, hole], [island]]},
        },
        square_feature("53033000600", west=16.0, south=20.0, size=4.0),
    ]
    for i, (west, south) in enumerate([(10.0, 10.0), (11.0, 10.0), (10.0, 11.0), (11.0, 11.0)]):
        features.append(square_feature(f"5303300050{3 - i}", west=west, south=south))
    return features


def holed_with_island_features():
    # The island tract's ring coincides with the host's hole boundary.
    return [holed_square_feature(), square_feature("53033000801", 1.0, 1.0, size=2.0)]


SHAPE_SETS = {
    "five_tracts": five_tract_features,
    "concave": lambda: [concave_u_feature()],
    "holed": lambda: [holed_square_feature()],
    "holed_with_island": holed_with_island_features,
    "multipolygon_city": multipolygon_city_features,
}


def boundary_probes(index):
    """Every ring vertex, every exactly representable edge midpoint, and the
    nearest floats around each of them, as (lon, lat) pairs."""
    points = set()
    for poly in index.polygons:
        for ring in poly.rings:
            for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
                points.add((x1, y1))
                mx, my = (x1 + x2) / 2, (y1 + y2) / 2
                if 2 * Fraction(mx) == Fraction(x1) + Fraction(x2) and 2 * Fraction(
                    my
                ) == Fraction(y1) + Fraction(y2):
                    points.add((mx, my))
    return sorted(nearest_floats(points))


def nearest_floats(points):
    """Each (lon, lat) point and the nearest floats around it."""
    return {
        (float(np.nextafter(lon, dlon)) if dlon else lon,
         float(np.nextafter(lat, dlat)) if dlat else lat)
        for lon, lat in points
        for dlon in (-np.inf, 0.0, np.inf)
        for dlat in (-np.inf, 0.0, np.inf)
    }


def assert_batch_matches_scan(index, probes):
    lons = [lon for lon, _ in probes]
    lats = [lat for _, lat in probes]
    batch = assign_tracts(lats, lons, index)
    expected = [exhaustive_tract(index, lat, lon) for lon, lat in probes]
    mismatches = [
        (lon, lat, got, want)
        for (lon, lat), got, want in zip(probes, batch, expected)
        if got != want
    ]
    assert mismatches == []
    return expected


@pytest.mark.parametrize("side", [0.05, 0.3, 5.0])
@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_batch_matches_scan_on_boundary_probes(tmp_path, monkeypatch, shapes, side):
    at_side(monkeypatch, side)
    index = load_fixture(tmp_path, SHAPE_SETS[shapes]())
    probes = boundary_probes(index)
    expected = assert_batch_matches_scan(index, probes)
    # The probes exercise every outcome: inside, on an edge and outside.
    assert any(geoid is None for geoid in expected)
    assert any(geoid is not None for geoid in expected)


def test_batch_boundary_special_cases(tmp_path):
    index = load_fixture(tmp_path, multipolygon_city_features() + holed_with_island_features())
    probes = [
        (11.0, 11.0),  # corner shared by four tracts
        (22.0, 21.0),  # hole boundary, shared with the same tract's island part
        (20.0, 22.0),  # side shared with the smaller-GEOID neighbour
        (22.0, 22.0),  # inside the island part
        (2.0, 1.0),  # hole boundary shared with the island tract
        (2.0, 2.0),  # inside the island tract
    ]
    assert assign_tracts([lat for _, lat in probes], [lon for lon, _ in probes], index) == [
        "53033000500",
        "53033000700",
        "53033000600",
        "53033000700",
        "53033000800",
        "53033000801",
    ]
    assert_batch_matches_scan(index, probes)


@pytest.mark.parametrize("side", [0.05, 0.3, 5.0])
@pytest.mark.parametrize(
    "shapes, lon_range, lat_range",
    [
        ("five_tracts", (-1.0, 9.0), (-1.0, 5.0)),
        ("concave", (-0.5, 4.5), (-0.5, 4.5)),
        ("holed_with_island", (-0.5, 4.5), (-0.5, 4.5)),
        ("multipolygon_city", (9.0, 25.0), (9.0, 25.0)),
    ],
)
def test_batch_matches_scan_on_random_points(
    tmp_path, monkeypatch, shapes, lon_range, lat_range, side
):
    at_side(monkeypatch, side)
    index = load_fixture(tmp_path, SHAPE_SETS[shapes]())
    rng = np.random.default_rng(2024)
    probes = list(
        zip(rng.uniform(*lon_range, size=1000).tolist(), rng.uniform(*lat_range, size=1000).tolist())
    )
    assert_batch_matches_scan(index, probes)


def test_batch_matches_scan_when_blocks_are_sliced(tmp_path, monkeypatch):
    # A one-element block forces one point per slice through every ring.
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    index = load_fixture(tmp_path, holed_with_island_features())
    assert_batch_matches_scan(index, boundary_probes(index))


def test_batch_points_in_holed_tract_that_miss_the_hole(tmp_path):
    # Rows for a hole ring, but no point on or in the hole.
    index = load_fixture(tmp_path, [holed_square_feature()])
    assert assign_tracts([0.5], [0.5], index) == ["53033000800"]
    probes = [(0.5, 0.5), (3.5, 0.5), (0.5, 3.5), (3.5, 3.5), (2.0, 0.25), (0.0, 2.0), (5.0, 5.0)]
    expected = ["53033000800"] * 6 + [None]
    assert assign_tracts([lat for _, lat in probes], [lon for lon, _ in probes], index) == expected
    assert_batch_matches_scan(index, probes)


def test_assign_ranks_are_positions_in_geoids(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    lats = np.array([0.5, 0.5, 0.5, 80.0])
    lons = np.array([0.5, 1.5, 2.5, 170.0])
    ranks = geo.assign_ranks(lats, lons, index)
    assert ranks.dtype == np.int64
    geoids = index.geoids()
    # len(geoids) stands for "no tract".
    assert [None if r == len(geoids) else geoids[r] for r in ranks.tolist()] == assign_tracts(
        lats, lons, index
    )
    assert ranks[-1] == len(geoids)


def test_batch_empty_input(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    assert assign_tracts([], [], index) == []
    assert assign_tracts([], [], TractIndex([])) == []


def test_batch_points_outside_grid(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    lats = [80.0, -80.0, 0.5, 0.5, float("nan"), 0.5]
    lons = [170.0, -170.0, 1e6, -1e6, 0.5, float("inf")]
    assert assign_tracts(lats, lons, index) == [None] * 6
    assert assign_tracts([0.5], [0.5], TractIndex([])) == [None]


def test_batch_rejects_mismatched_lengths(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    with pytest.raises(ValueError):
        assign_tracts([0.5, 0.5], [0.5], index)


# ---------------------------------------------------------------------------
# load_boundaries: float64 array rings and the malformed-feature contract
# ---------------------------------------------------------------------------

def reference_arrays(path):
    """What the index must hold, read with per-pair float() like the former
    tuple-per-vertex loader: flat x and y, ring spans, bboxes, GEOID ranks."""
    doc = json.loads(path.read_text())
    polygons = []
    for feature in doc["features"]:
        properties = feature["properties"]
        geoid = str(properties.get("GEOID", properties.get("geoid")))
        geometry = feature["geometry"]
        parts = geometry["coordinates"]
        for part in [parts] if geometry["type"] == "Polygon" else parts:
            polygons.append(
                (geoid, [[(float(p[0]), float(p[1])) for p in ring] for ring in part])
            )
    xs, ys, spans, bboxes = [], [], [], []
    for _, rings in polygons:
        poly_spans = []
        for ring in rings:
            poly_spans.append((len(xs), len(xs) + len(ring)))
            xs += [x for x, _ in ring]
            ys += [y for _, y in ring]
        spans.append(poly_spans)
        points = [point for ring in rings for point in ring]
        bboxes.append(
            (
                min(x for x, _ in points),
                min(y for _, y in points),
                max(x for x, _ in points),
                max(y for _, y in points),
            )
        )
    geoids = sorted({geoid for geoid, _ in polygons})
    ranks = [geoids.index(geoid) for geoid, _ in polygons]
    return xs, ys, spans, bboxes, ranks


def ring_spans(index):
    """Per polygon, the [start, stop) vertex span of each of its rings."""
    offsets, poly_rings = index._ring_offsets.tolist(), index._poly_rings.tolist()
    return [
        [(offsets[r], offsets[r + 1]) for r in range(first, last)]
        for first, last in zip(poly_rings, poly_rings[1:])
    ]


def assert_matches_reference(path, index):
    xs, ys, spans, bboxes, ranks = reference_arrays(path)
    # Bit for bit, so a -0.0 or a differently rounded float would show.
    assert index._xy[:, 0].view(np.int64).tolist() == np.array(xs).view(np.int64).tolist()
    assert index._xy[:, 1].view(np.int64).tolist() == np.array(ys).view(np.int64).tolist()
    assert ring_spans(index) == spans
    bbox_of = [
        (p.bbox.min_lon, p.bbox.min_lat, p.bbox.max_lon, p.bbox.max_lat) for p in index.polygons
    ]
    assert bbox_of == bboxes
    assert all(type(value) is float for box in bbox_of for value in box)
    assert index._rank.tolist() == ranks


def densify(feature, per_side):
    """The feature with per_side - 1 extra vertices on every ring edge."""
    feature = copy.deepcopy(feature)
    rings = feature["geometry"]["coordinates"]
    for r, ring in enumerate(rings):
        dense = []
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            dense += [
                [x1 + (x2 - x1) * k / per_side, y1 + (y2 - y1) * k / per_side]
                for k in range(per_side)
            ]
        rings[r] = dense + [ring[-1]]
    return feature


@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_loader_matches_per_pair_reference_on_fixture_shapes(tmp_path, shapes):
    path = write_feature_collection(tmp_path / "tracts.geojson", SHAPE_SETS[shapes]())
    assert_matches_reference(path, load_boundaries(path))


def test_loader_matches_per_pair_reference_on_dense_city(tmp_path):
    city = build_synthetic_city(tmp_path / "city", n_cols=6, n_rows=5)
    features = json.loads(city["boundaries"].read_text())["features"]
    path = write_feature_collection(
        tmp_path / "dense.geojson", [densify(feature, 50) for feature in features]
    )
    index = load_boundaries(path)
    assert len(index._xy) == 30 * 201
    assert_matches_reference(path, index)
    # The dense rings cover the same squares, so the city's observations
    # still land in their own tracts.
    observations = city["observations"]
    assert assign_tracts(
        [o.lat for o in observations], [o.lon for o in observations], index
    ) == [o.entity_id.split("_")[1] for o in observations]


def test_rings_are_read_only_float64_rows(tmp_path):
    index = load_fixture(tmp_path, [holed_square_feature()])
    for ring in index.polygons[0].rings:
        assert isinstance(ring, np.ndarray)
        assert ring.dtype == np.float64 and ring.ndim == 2 and ring.shape[1] == 2
        assert not ring.flags.writeable
        with pytest.raises(ValueError):
            ring[0, 0] = 9.0


def ring_feature(ring, geoid="53033000101"):
    return {
        "type": "Feature",
        "properties": {"GEOID": geoid},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


DEVIANT_RINGS = {
    "string numbers": [["0", "0.1"], ["1.5", "0.1"], ["1.5", " 2e0"], ["0", "0.1"]],
    "booleans": [[False, False], [True, False], [True, True], [False, False]],
    "altitude": [[0.0, 0.0, 9.0], [1.0, 0.0, 9.0], [1.0, 1.0, 8.0], [0.0, 0.0, 9.0]],
    "mixed 2 and 3 elements": [[0.0, 0.0], [1.0, 0.0, 3.5], [1.0, 1.0], [0.0, 0.0, 1.0]],
    "non-numeric altitude": [[0.0, 0.0, "high"], [1.0, 0.0, None], [1.0, 1.0, {}], [0.0, 0.0]],
    "integers": [[0, 0], [1, 0], [1, 1], [0, 0]],
}


@pytest.mark.parametrize("name", sorted(DEVIANT_RINGS))
def test_loader_accepts_deviant_positions_as_before(tmp_path, name):
    path = write_feature_collection(
        tmp_path / "tracts.geojson", [ring_feature(DEVIANT_RINGS[name])]
    )
    index = load_boundaries(path)
    assert_matches_reference(path, index)
    assert index.polygons[0].rings[0].shape == (4, 2)


def bad_ring(pair):
    """A closed square whose third position is replaced."""
    return [[0.0, 0.0], [1.0, 0.0], pair, [0.0, 1.0], [0.0, 0.0]]


def bad_feature(**replace):
    feature = square_feature("53033000102", 2.0, 2.0)
    feature.update(replace)
    return feature


def multipolygon_feature(coordinates):
    return bad_feature(geometry={"type": "MultiPolygon", "coordinates": coordinates})


MALFORMED_FEATURES = {
    "feature is a string": (SchemaError, "Feature"),
    "feature is a list": (SchemaError, [1, 2]),
    "feature is null": (SchemaError, None),
    "properties is a string": (SchemaError, bad_feature(properties="GEOID")),
    "properties is a list": (SchemaError, bad_feature(properties=[{"GEOID": "53033000102"}])),
    "geometry is a string": (SchemaError, bad_feature(geometry="Polygon")),
    "geometry is a list": (SchemaError, bad_feature(geometry=[[0.0, 0.0]])),
    "non-numeric string": (GeometryError, ring_feature(bad_ring(["abc", 1.0]))),
    "object coordinate": (GeometryError, ring_feature(bad_ring([{}, 1.0]))),
    "null coordinate": (GeometryError, ring_feature(bad_ring([1.0, None]))),
    "null position": (GeometryError, ring_feature(bad_ring(None))),
    "overflowing integer": (GeometryError, ring_feature(bad_ring([10**400, 1.0]))),
    "overflowing integer beside an altitude": (
        GeometryError,
        ring_feature(bad_ring([10**400, 1.0, 0.0]) + [[0.0, 0.0]]),
    ),
    "NaN": (GeometryError, ring_feature(bad_ring([float("nan"), 1.0]))),
    "Infinity": (GeometryError, ring_feature(bad_ring([1.0, float("inf")]))),
    "string infinity": (GeometryError, ring_feature(bad_ring(["-Infinity", 1.0]))),
    "longitude beyond 180": (GeometryError, ring_feature(bad_ring([500.0, 1.0]))),
    "latitude beyond 90": (GeometryError, ring_feature(bad_ring([1.0, -90.5]))),
    "position nested too deep": (GeometryError, ring_feature(bad_ring([[1.0, 1.0], [1.0, 1.0]]))),
    "every position nested too deep": (
        GeometryError,
        ring_feature([[[0.0, 0.0], [0.0, 0.0]]] * 4),
    ),
    "coordinate is a list": (GeometryError, ring_feature(bad_ring([[1.0], 1.0]))),
    "one-element position": (GeometryError, ring_feature(bad_ring([1.0]))),
    "string position": (GeometryError, ring_feature(bad_ring("1.0,1.0"))),
    "ring of numbers": (GeometryError, ring_feature([0.0, 1.0, 2.0, 0.0])),
    "MultiPolygon with null coordinates": (GeometryError, multipolygon_feature(None)),
    "MultiPolygon with string coordinates": (GeometryError, multipolygon_feature("[[[]]]")),
    "MultiPolygon with object coordinates": (GeometryError, multipolygon_feature({})),
    "MultiPolygon without polygons": (GeometryError, multipolygon_feature([])),
}


def test_multipolygon_without_polygons_names_the_problem(tmp_path):
    for coordinates in (None, []):
        with pytest.raises(GeometryError, match="^feature 0: MultiPolygon coordinates are not"):
            load_fixture(tmp_path, [multipolygon_feature(coordinates)])


@pytest.mark.parametrize("name", sorted(MALFORMED_FEATURES))
def test_malformed_feature_fails_cleanly_naming_it(tmp_path, name):
    error, feature = MALFORMED_FEATURES[name]
    features = [square_feature("53033000101", 0.0, 0.0), feature]
    with pytest.raises(error, match=r"^feature 1\b"):
        load_fixture(tmp_path, features)


def test_null_properties_and_geometry_read_as_empty(tmp_path):
    with pytest.raises(SchemaError, match="feature 0 has no GEOID"):
        load_fixture(tmp_path, [bad_feature(properties=None)])
    with pytest.raises(SchemaError, match="feature 0: unsupported geometry type None"):
        load_fixture(tmp_path, [bad_feature(geometry=None)])


def test_index_accepts_polygons_built_by_hand(tmp_path):
    square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
    by_hand = [
        TractPolygon("53033000101", "53033", (square,), BoundingBox(0.0, 0.0, 1.0, 1.0)),
        TractPolygon(
            "53033000102",
            "53033",
            (np.array(square) + [1.0, 0.0],),
            BoundingBox(1.0, 0.0, 2.0, 1.0),
        ),
    ]
    index = TractIndex(by_hand)
    loaded = load_fixture(
        tmp_path,
        [square_feature("53033000101", 0.0, 0.0), square_feature("53033000102", 1.0, 0.0)],
    )
    assert index._xy.tolist() == loaded._xy.tolist()
    assert ring_spans(index) == ring_spans(loaded)
    for name in ("tile_grid", "tile_offsets", "tile_polys", "tiles", "table"):
        assert np.array_equal(getattr(index, "_" + name), getattr(loaded, "_" + name)), name
    probes = [(0.5, 0.5), (1.0, 0.5), (1.5, 0.5), (2.5, 0.5)]
    assert assert_batch_matches_scan(index, probes) == [
        "53033000101", "53033000101", "53033000102", None
    ]


def node_paths(doc):
    """Key paths of every feature, properties, geometry, ring, position and
    coordinate in a FeatureCollection."""
    paths = []
    for i, feature in enumerate(doc["features"]):
        base = ("features", i)
        paths += [base, (*base, "properties"), (*base, "geometry")]
        geometry = feature["geometry"]
        if geometry["type"] == "Polygon":
            polygons = [(*base, "geometry", "coordinates")]
        else:
            polygons = [
                (*base, "geometry", "coordinates", k) for k in range(len(geometry["coordinates"]))
            ]
        for polygon in polygons:
            rings = doc
            for key in polygon:
                rings = rings[key]
            for r, ring in enumerate(rings):
                paths.append((*polygon, r))
                for q in range(len(ring)):
                    paths += [(*polygon, r, q), (*polygon, r, q, 0), (*polygon, r, q, 1)]
    return paths


FUZZ_DOC = {
    "type": "FeatureCollection",
    "features": multipolygon_city_features() + holed_with_island_features(),
}
FUZZ_SCALARS = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.just(float("nan")),
)
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS,
    st.dictionaries(st.text(max_size=4), FUZZ_SCALARS, max_size=3),
    st.lists(FUZZ_SCALARS, max_size=5),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path=st.sampled_from(node_paths(FUZZ_DOC)), value=FUZZ_VALUES)
def test_load_boundaries_fuzz_one_mutated_node(tmp_path, path, value):
    doc = copy.deepcopy(FUZZ_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    target = write_feature_collection(tmp_path / "fuzz.geojson", doc["features"])
    try:
        index = load_boundaries(target)
    except BikeshareEquityError:
        return
    assign_tracts([22.0, 2.0, 50.0], [22.0, 2.0, 50.0], index)


# ---------------------------------------------------------------------------
# The budget: a large tract coarsens the tiles, it never outgrows them
# ---------------------------------------------------------------------------

def assert_within_budget(index, budget):
    """The table, the candidate lists and the directory each hold at most
    budget entries per polygon, unless no side is within it: then the tiles
    are the coarsest, at most 2 x 2 over lon/lat degrees."""
    limit = budget * len(index.polygons)
    table, lists, directory = index._table.size, len(index._tile_polys), index._tiles.size
    assert (table <= limit and geo._TILE**2 * lists <= limit and directory <= limit) or (
        index._tile_grid[2] == geo._TABLE_EXPONENTS[-1]
        and directory <= 4 and lists <= 4 * len(index.polygons)
    )


def assert_tiles_list_their_polygons(index):
    """Each held tile lists, in index order, exactly the polygons whose
    bounding box reaches it, and each tile the directory leaves out is
    reached by no box."""
    x0, y0, exponent = index._tile_grid.tolist()
    size = geo._TILE * 2.0**exponent
    rows, cols = index._tiles.shape
    for y in range(rows):
        for x in range(cols):
            west, south = (x0 + x) * size, (y0 + y) * size
            reach = [p for p, (w, s, e, n) in enumerate(index._bbox.tolist())
                     if w < west + size and west <= e and s < south + size and south <= n]
            tile = index._tiles[y, x]
            if tile < 0:
                assert reach == []
            else:
                listed = index._tile_polys[index._tile_offsets[tile]:index._tile_offsets[tile + 1]]
                assert listed.tolist() == reach


def big_tract_features():
    """A 20-degree square tract and two small neighbours on its edges, one
    with a smaller GEOID (it wins their shared edge) and one with a larger."""
    return [
        square_feature("53033000101", west=-100.0, south=30.0, size=20.0),
        square_feature("53033000100", west=-80.0, south=35.0),
        square_feature("53033000102", west=-90.0, south=50.0),
    ]


def test_index_over_a_20_degree_tract_builds_fast(tmp_path):
    index = load_fixture(tmp_path, big_tract_features()[:1])
    polygons = index.polygons
    best = min(timeit.repeat(lambda: TractIndex(polygons), number=1, repeat=5))
    assert best <= 0.010, best
    assert_within_budget(index, geo._TABLE_BUDGET)
    assert_tiles_list_their_polygons(index)


@pytest.mark.parametrize("side", [0.05, 0.3, 5.0])
def test_oversize_tract_matches_scan(tmp_path, monkeypatch, side):
    at_side(monkeypatch, side)
    index = load_fixture(tmp_path, big_tract_features())
    assert_tiles_list_their_polygons(index)
    probes = boundary_probes(index)
    expected = assert_batch_matches_scan(index, probes)
    assert {"53033000100", "53033000101", "53033000102", None} == set(expected)
    rng = np.random.default_rng(20)
    assert_batch_matches_scan(
        index, list(zip(rng.uniform(-101, -78, 2000).tolist(), rng.uniform(29, 52, 2000).tolist()))
    )
    assert_pairs_cover_containers(index, probes)


def globe_features():
    globe = [[-180.0, -90.0], [180.0, -90.0], [180.0, 90.0], [-180.0, 90.0], [-180.0, -90.0]]
    return [ring_feature(globe, "53033000102"), square_feature("53033000101", 10.0, 10.0)]


def test_globe_spanning_tract_coarsens_the_tiles(tmp_path):
    index = load_fixture(tmp_path, globe_features())
    assert_within_budget(index, geo._TABLE_BUDGET)
    assert_tiles_list_their_polygons(index)
    rng = np.random.default_rng(21)
    probes = boundary_probes(index) + list(
        zip(rng.uniform(-180, 180, 500).tolist(), rng.uniform(-90, 90, 500).tolist())
    )
    expected = assert_batch_matches_scan(index, probes)
    # None: the probes just beyond the globe's edges.
    assert {"53033000101", "53033000102", None} == set(expected)


@pytest.mark.parametrize("budget", [0, 1, 4])
@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_small_cell_budgets_match_scan(tmp_path, monkeypatch, shapes, budget):
    # No side is within so small a budget: the tiles are the coarsest.
    monkeypatch.setattr(geo, "_TABLE_BUDGET", budget)
    index = load_fixture(tmp_path, SHAPE_SETS[shapes]())
    assert index._tile_grid[2] == geo._TABLE_EXPONENTS[-1]
    assert_within_budget(index, budget)
    assert_tiles_list_their_polygons(index)
    assert_batch_matches_scan(index, boundary_probes(index))


# ---------------------------------------------------------------------------
# The columnar pass: rings of several widths in one index
# ---------------------------------------------------------------------------

def zigzag_ring(west, south, teeth, step):
    """A closed ring of teeth + 4 vertices: a flat south side and a north
    side zigzagging one step up and down, every coordinate a dyadic float."""
    top = [[west + k * step, south + 1.0 + (k % 2) * step] for k in range(teeth, -1, -1)]
    return [[west, south], [west + teeth * step, south], *top, [west, south]]


def square_ring(west, south, size):
    return [[west, south], [west + size, south], [west + size, south + size],
            [west, south + size], [west, south]]


def mixed_width_features():
    """Rings of 4, 5, 40, 60 and 1,004 vertices, so that they fall in several
    width classes and the shorter rings of a class are padded: the hole and
    island tracts, the MultiPolygon city, the 20-degree oversize tract and
    its neighbours, zigzags (one sharing its south side with a square that
    has the smaller GEOID), a triangle, a square with a zigzag hole and a
    square hole, and a square with two overlapping holes, where a point on
    one hole's edge and inside the other is decided by the first."""
    triangle = [[37.0, 0.0], [38.0, 0.0], [37.5, 1.0], [37.0, 0.0]]
    return [
        *holed_with_island_features(),
        *multipolygon_city_features(),
        *big_tract_features(),
        ring_feature(zigzag_ring(30.0, 0.0, 1000, 1 / 1024), "53033001001"),
        square_feature("53033001000", west=30.0, south=-1.0),
        ring_feature(zigzag_ring(33.0, 0.0, 56, 1 / 64), "53033001002"),
        ring_feature(zigzag_ring(35.0, 0.0, 36, 1 / 64), "53033001003"),
        ring_feature(triangle, "53033001004"),
        {
            "type": "Feature",
            "properties": {"GEOID": "53033001005"},
            "geometry": {"type": "Polygon", "coordinates": [
                square_ring(40.0, 0.0, 2.0),
                zigzag_ring(40.25, 0.5, 36, 1 / 64)[::-1],
                square_ring(41.25, 0.25, 0.5),
            ]},
        },
        {
            "type": "Feature",
            "properties": {"GEOID": "53033001006"},
            "geometry": {"type": "Polygon", "coordinates": [
                square_ring(44.0, 0.0, 3.0), square_ring(44.5, 0.5, 1.5), square_ring(45.0, 1.0, 1.5),
            ]},
        },
    ]


@pytest.fixture(scope="module")
def mixed_width_battery(tmp_path_factory):
    """The index, its probes and the exhaustive scan's answers, computed once.

    The probes are boundary_probes of every ring but the 1,004-vertex one;
    for that ring (each probe costs the scalar scan about a millisecond), its
    closing vertex and a seeded sample of 100 edges' first vertices and
    midpoints, with their nearest floats; random points over every shape;
    and NaN points.
    """
    features = mixed_width_features()
    (long_ring,) = [f["geometry"]["coordinates"][0] for f in features
                    if f["properties"]["GEOID"] == "53033001001"]
    index = load_fixture(tmp_path_factory.mktemp("mixed"), features)
    sizes = {len(ring) for poly in index.polygons for ring in poly.rings}
    assert {4, 5, 40, 60, 1004} <= sizes
    short = [p for p in index.polygons if p.tract_geoid != "53033001001"]
    probes = set(boundary_probes(SimpleNamespace(polygons=short)))
    rng = np.random.default_rng(77)
    edges = list(zip(long_ring, long_ring[1:]))
    for k in [0, *rng.choice(len(edges), size=100, replace=False).tolist()]:
        (x1, y1), (x2, y2) = edges[k]
        for lon, lat in ((x1, y1), ((x1 + x2) / 2, (y1 + y2) / 2)):
            for dlon in (-np.inf, 0.0, np.inf):
                for dlat in (-np.inf, 0.0, np.inf):
                    probes.add((float(np.nextafter(lon, dlon)), float(np.nextafter(lat, dlat))))
    regions = [((-0.5, 4.5), (-0.5, 4.5)), ((9.0, 25.0), (9.0, 25.0)),
               ((-101.0, -78.0), (29.0, 52.0)), ((29.5, 47.5), (-1.5, 3.5))]
    for (west, east), (south, north) in regions:
        probes.update(zip(rng.uniform(west, east, 300).tolist(),
                          rng.uniform(south, north, 300).tolist()))
    nan = float("nan")
    probes = sorted(probes) + [(nan, 0.5), (0.5, nan), (nan, nan), (31.0, nan)]
    expected = [exhaustive_tract(index, lat, lon) for lon, lat in probes]
    return index, probes, expected


@pytest.mark.parametrize("block", [geo._BLOCK_ELEMENTS, 1, 2500])
def test_mixed_widths_match_scan(mixed_width_battery, monkeypatch, block):
    # 2500 elements hold two rows of the 1,004-vertex ring: its rows, and
    # those of the 60-vertex class, are split across blocks.
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", block)
    index, probes, expected = mixed_width_battery
    got = assign_tracts([lat for _, lat in probes], [lon for lon, _ in probes], index)
    assert [(p, g) for p, g, e in zip(probes, got, expected) if g != e] == []
    assert len(set(expected)) == len(index.geoids()) + 1  # every tract, and None


def test_mixed_widths_match_winding_oracle(mixed_width_battery):
    """Off the boundaries (seeded random points), the smallest GEOID whose
    polygon holds the point by winding number."""
    index = mixed_width_battery[0]
    rng = np.random.default_rng(78)
    points = list(zip(rng.uniform(29.5, 47.5, 2000).tolist(), rng.uniform(-1.5, 3.5, 2000).tolist()))
    points += list(zip(rng.uniform(-0.5, 25.0, 500).tolist(), rng.uniform(-0.5, 25.0, 500).tolist()))
    got = assign_tracts([lat for _, lat in points], [lon for lon, _ in points], index)
    for (lon, lat), geoid in zip(points, got):
        holders = [p.tract_geoid for p in index.polygons
                   if p.bbox.contains(lon, lat) and winding_number_inside(lon, lat, p.rings)]
        assert geoid == min(holders, default=None), (lon, lat)
    assert len(set(got)) >= 10


def test_count_by_tract_memory_is_bounded(tmp_path):
    """Points times edges is 2e8 here; the pass works through it in blocks,
    so its peak allocation stays a few megabytes."""
    ring = zigzag_ring(0.0, 0.0, 19996, 1 / 16384)
    index = load_fixture(tmp_path, [ring_feature(ring)])
    assert len(index._xy) == 20000
    rng = np.random.default_rng(79)
    lons = rng.uniform(0.0, 19996 / 16384, 10000).tolist()
    lats = rng.uniform(0.0, 1.0 + 1 / 16384, 10000).tolist()
    observations = observations_of(
        observation("sys", f"e{i}", lat, lon) for i, (lat, lon) in enumerate(zip(lats, lons))
    )
    tracemalloc.start()
    try:
        counts, diagnostics = count_by_tract(observations, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert counts[0].count_free + diagnostics.unassigned == 10000
    assert counts[0].count_free > 9900


def test_long_ring_work_per_point_is_bounded(tmp_path, monkeypatch):
    """Each (point, ring) row tests only the edges of the band its latitude
    falls in. On the 20,000-vertex zigzag of the memory test, where every
    edge would be 20,000 per point, the (row, edge) elements evaluated
    average a few bands' worth per point; counted, not timed."""
    ring = zigzag_ring(0.0, 0.0, 19996, 1 / 16384)
    index = load_fixture(tmp_path, [ring_feature(ring)])
    rng = np.random.default_rng(79)
    lons = rng.uniform(0.0, 19996 / 16384, 10000)
    lats = rng.uniform(0.0, 1.0 + 1 / 16384, 10000)
    elements = []
    ring_block = geo._ring_block

    def counted(lon, lat, edges, *args):
        elements.append(edges.size)
        return ring_block(lon, lat, edges, *args)

    monkeypatch.setattr(geo, "_ring_block", counted)
    ranks = geo.assign_ranks(lats, lons, index)
    assert sum(elements) / len(lats) <= 4 * geo._BAND_EDGES
    # The points nearest the zigzag, and a sample of the rest, against the
    # exhaustive scan.
    sample = [*np.argsort(lats)[-5:].tolist(), *range(3)]
    (poly,) = index.polygons
    assert [ranks[k] == 0 for k in sample] == [
        point_in_polygon(lats[k], lons[k], poly) for k in sample
    ]


def staircase_ring(west, south):
    """25 edges over 2 degrees of latitude, so 4 bands half a degree high at
    8 edges a band: the east side steps up in half-degree stairs whose treads
    lie on the band lines, and the west side zigzags down in eighths, with a
    vertex on every band line."""
    stairs = [[8.0, 0.0], [8.0, 0.5], [7.0, 0.5], [7.0, 1.0], [6.0, 1.0], [6.0, 1.5],
              [5.0, 1.5], [5.0, 2.0], [0.0, 2.0]]
    zigzag = [[-0.125 * (k % 2), 2.0 - k / 8] for k in range(1, 17)]
    return [[west + x, south + y] for x, y in [[0.0, 0.0], *stairs, *zigzag]]


def flat_ring(west, lat, edges):
    """A ring with no height: out along a line of latitude and back."""
    out = [[west + k / 8, lat] for k in range(edges // 2 + 1)]
    return out + out[-2::-1]


def band_features():
    """Rings split into several bands, with band lines on exact floats:
    horizontal edges and vertices on band lines (the staircase), edges that
    span every band (the zigzag's west and east sides), a hole whose
    latitude range misses the bands of points above and below it, and rings
    with no height, alone and as a hole."""
    return [
        ring_feature(staircase_ring(0.0, 0.0), "53033002000"),
        ring_feature(zigzag_ring(10.0, 0.0, 28, 1 / 16), "53033002001"),
        {
            "type": "Feature",
            "properties": {"GEOID": "53033002002"},
            "geometry": {"type": "Polygon", "coordinates": [
                square_ring(20.0, 0.0, 4.0), zigzag_ring(21.0, 1.0, 20, 1 / 16)[::-1],
            ]},
        },
        ring_feature(flat_ring(30.0, 0.5, 12), "53033002003"),
        {
            "type": "Feature",
            "properties": {"GEOID": "53033002004"},
            "geometry": {"type": "Polygon", "coordinates": [
                square_ring(40.0, 0.0, 1.0), flat_ring(40.25, 0.5, 10),
            ]},
        },
    ]


def band_lines(index):
    """(lat, west, east) of every band line (ylo + b * h) of every ring, and
    of the line halfway up each band, with the ring's longitude range."""
    first, ylo, h = index._band_grid
    lines = []
    for r, (start, end) in enumerate(zip(index._ring_offsets, index._ring_offsets[1:])):
        lons = index._xy[start:end, 0]
        for b in range(2 * (first[r + 1] - first[r]) + 1):
            lines.append((float(ylo[r] + b / 2 * h[r]), float(lons.min()), float(lons.max())))
    return lines


@pytest.fixture(scope="module")
def band_battery(tmp_path_factory):
    """The index, its probes and the exhaustive scan's answers: the boundary
    probes, and points every sixteenth of a degree along each band line and
    each line halfway up a band, a quarter degree past the ring at either
    end, with the nearest floats above and below them."""
    index = load_fixture(tmp_path_factory.mktemp("bands"), band_features())
    first, _, h = index._band_grid
    bands = np.diff(first)
    assert (bands > 1).sum() == 5  # all but the two squares have several
    assert bands[0] == 4 and h[0] == 0.5  # the staircase
    assert h[4] == h[6] == 1.0  # the rings with no height
    # The zigzag's west side (its last edge) is listed in every band.
    west_side = index._ring_offsets[2] - 2
    for band in range(first[1], first[2]):
        start, end = index._band_offsets[band : band + 2]
        assert west_side in index._band_edges[start:end]
    probes = set(boundary_probes(index))
    for lat, west, east in band_lines(index):
        for lon in np.arange(west - 0.25, east + 0.25 + 1 / 32, 1 / 16).tolist():
            for dlat in (-np.inf, 0.0, np.inf):
                probes.add((lon, float(np.nextafter(lat, dlat))))
    probes = sorted(probes)
    expected = [exhaustive_tract(index, lat, lon) for lon, lat in probes]
    return index, probes, expected


@pytest.mark.parametrize("block", [geo._BLOCK_ELEMENTS, 1, 2500])
def test_band_edges_match_scan(band_battery, monkeypatch, block):
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", block)
    index, probes, expected = band_battery
    got = assign_tracts([lat for _, lat in probes], [lon for lon, _ in probes], index)
    assert [(p, g) for p, g, e in zip(probes, got, expected) if g != e] == []
    assert set(expected) == {*index.geoids(), None}


@pytest.mark.parametrize("block", [geo._BLOCK_ELEMENTS, 1, 2500])
def test_band_edges_match_winding_oracle(band_battery, monkeypatch, block):
    """Off the boundaries (seeded random points over each shape), the
    smallest GEOID whose polygon holds the point by winding number."""
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", block)
    index = band_battery[0]
    rng = np.random.default_rng(80)
    points = []
    for west, east in ((-0.5, 8.5), (9.5, 12.5), (19.5, 24.5), (29.5, 31.5), (39.5, 41.5)):
        points += zip(rng.uniform(west, east, 400).tolist(), rng.uniform(-0.5, 4.5, 400).tolist())
    got = assign_tracts([lat for _, lat in points], [lon for lon, _ in points], index)
    for (lon, lat), geoid in zip(points, got):
        holders = [p.tract_geoid for p in index.polygons
                   if p.bbox.contains(lon, lat) and winding_number_inside(lon, lat, p.rings)]
        assert geoid == min(holders, default=None), (lon, lat)
    assert {"53033002000", "53033002001", "53033002002", "53033002004", None} <= set(got)


# ---------------------------------------------------------------------------
# The answer table: its entries against the exhaustive scan
# ---------------------------------------------------------------------------

def overlapping_features():
    """Three squares that overlap one another: the smallest GEOID wins each
    overlap."""
    return [
        square_feature("53033003001", west=0.0, south=0.0, size=2.0),
        square_feature("53033003000", west=1.0, south=0.0, size=2.0),
        square_feature("53033003002", west=0.5, south=0.5, size=2.0),
    ]


TABLE_SHAPES = {
    **SHAPE_SETS,
    "overlapping": overlapping_features,
    "big_tract": big_tract_features,
    "globe": globe_features,
    "bands": band_features,
}

NAN, INF = float("nan"), float("inf")
# (lon, lat) probes off the tables: non-finite, beyond lon/lat degrees, and
# the corners of lon/lat degrees (on the globe-spanning tract's table only).
OFF_TABLE = [(NAN, 0.5), (0.5, NAN), (NAN, NAN), (INF, 0.5), (0.5, -INF), (-INF, INF),
             (1e6, 0.5), (-1e6, -1e6), (0.5, 1e300), (180.0, 90.0), (-180.0, -90.0)]


def table_probes(index, limit=1500):
    """Every corner and centre of the sub-cells of the held tiles (of a
    seeded sample of `limit` sub-cells, in a larger table), with the nearest
    floats around each, as sorted (lon, lat) pairs."""
    x0, y0, exponent = index._tile_grid.tolist()
    side, n = 2.0**exponent, geo._TILE
    tile_y, tile_x = np.divmod(np.flatnonzero(index._tiles >= 0), index._tiles.shape[1])
    cells = [(n * (x0 + x) + i, n * (y0 + y) + j)
             for y, x in zip(tile_y.tolist(), tile_x.tolist()) for j in range(n) for i in range(n)]
    if len(cells) > limit:
        rng = np.random.default_rng(len(cells))
        cells = [cells[k] for k in rng.choice(len(cells), size=limit, replace=False).tolist()]
    points = set()
    for i, j in cells:
        for di, dj in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)):
            points.add(((i + di) * side, (j + dj) * side))
    return sorted(nearest_floats(points))


def assert_table_matches_scan(index, probes, monkeypatch, answers=True):
    """assign_tracts equals the exhaustive scan on the probes, and only the
    probes whose table entry is -1 reach the ring test (geo._pairs). With
    answers, the table answers some probes (a coarse one may answer none)."""
    seen = []
    pairs = geo._pairs
    monkeypatch.setattr(geo, "_pairs", lambda lats, lons, i: seen.append(len(lats)) or pairs(lats, lons, i))
    expected = assert_batch_matches_scan(index, probes)
    monkeypatch.setattr(geo, "_pairs", pairs)
    lats = np.array([lat for _, lat in probes])
    lons = np.array([lon for lon, _ in probes])
    entries = geo._table_entries(lats, lons, index)
    assert sum(seen) == (entries < 0).sum()
    # Every answer of the table is the scan's.
    answered = np.flatnonzero(entries >= 0)
    assert len(answered) or not answers
    geoid_of = [*index.geoids(), None]
    assert [geoid_of[e] for e in entries[answered].tolist()] == [expected[k] for k in answered]
    return expected


@pytest.mark.parametrize("budget", [256, 1, 4, geo._TABLE_BUDGET])
@pytest.mark.parametrize("shapes", sorted(TABLE_SHAPES))
def test_table_matches_scan(tmp_path, monkeypatch, shapes, budget):
    # A smaller budget gives a coarser table, down to the coarsest side.
    monkeypatch.setattr(geo, "_TABLE_BUDGET", budget)
    index = load_fixture(tmp_path, TABLE_SHAPES[shapes]())
    assert index._table.dtype == np.int32
    assert_within_budget(index, budget)
    probes = table_probes(index) + boundary_probes(index) + OFF_TABLE
    expected = assert_table_matches_scan(index, probes, monkeypatch, budget > 4)
    assert None in expected and set(expected) > {None}


def budget_entries(bbox, exponent):
    """(own, directory): the polygons' box tiles, in sub-cells, summed over
    the polygons, and the tiles of the directory over the union of the boxes,
    at sub-cell side 2**exponent."""
    size = geo._TILE * 2.0**exponent
    x1, y1, x2, y2 = (np.floor(bbox / size)).T
    own = geo._TILE**2 * ((x2 - x1 + 1) * (y2 - y1 + 1)).sum()
    return own, (x2.max() - x1.min() + 1) * (y2.max() - y1.min() + 1)


def test_table_side_is_the_finest_within_the_budget(tmp_path):
    for features in (five_tract_features(), multi_city_features()):
        index = load_fixture(tmp_path, features)
        budget = geo._TABLE_BUDGET * len(index.polygons)
        exponent = index._tile_grid[2]
        assert max(budget_entries(index._bbox, exponent)) <= budget
        assert max(budget_entries(index._bbox, exponent - 1)) > budget
        assert index._tiles.size == budget_entries(index._bbox, exponent)[1]


def test_overlap_reads_the_smallest_geoid(tmp_path):
    index = load_fixture(tmp_path, overlapping_features())
    # The centre of the sub-cell at (1.5, 1.5) lies in all three squares.
    side = 2.0 ** index._tile_grid[2]
    centre = np.array([(math.floor(1.5 / side) + 0.5) * side])
    (entry,) = geo._table_entries(centre, centre, index).tolist()
    assert index.geoids()[entry] == "53033003000"


def test_mixed_width_table_matches_scan(mixed_width_battery, monkeypatch):
    index, probes, expected = mixed_width_battery
    table = table_probes(index, limit=600)
    assert_table_matches_scan(index, probes + table, monkeypatch)
    for budget in (1, 4):
        monkeypatch.setattr(geo, "_TABLE_BUDGET", budget)
        coarse = TractIndex(index.polygons)
        assert_within_budget(coarse, budget)
        assert_table_matches_scan(coarse, probes + table_probes(coarse), monkeypatch, False)


def notched_square_feature():
    """A square with a notch cut from its east side to a tip at (0, 0),
    whose upper edge's ray crossing rounds: just above the tip and west of
    it, where the point is inside, ray casting in float64 counts the edge on
    the wrong side and answers outside."""
    ring = [[-1.0, -1.0], [1.0, -1.0], [1.0, -0.5], [0.0, 0.0], [0.877, 0.75],
            [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]
    return ring_feature(ring, "53033004000")


def test_table_leaves_rounded_answers_to_the_ring_test(tmp_path, monkeypatch):
    """The sub-cell west of the tip and above it holds the probe and, in its
    middle, points inside; no edge passes through it. Only the margin marks
    it, so that the probe gets the float64 answer, as point_in_polygon does."""
    index = load_fixture(tmp_path, [notched_square_feature()])
    (poly,) = index.polygons
    tiny = float(np.nextafter(0.0, 1.0))
    probe = (-tiny, tiny)
    ring = [tuple(map(Fraction, vertex)) for vertex in poly.rings[0].tolist()]
    assert winding_number_inside(Fraction(-tiny), Fraction(tiny), [ring])
    assert not point_in_polygon(tiny, -tiny, poly)
    side = 2.0 ** index._tile_grid[2]
    assert point_in_polygon(side / 2, -side / 2, poly)
    assert geo._table_entries(np.array([tiny]), np.array([-tiny]), index).tolist() == [-1]
    probes = [probe, *table_probes(index)]
    assert assert_table_matches_scan(index, probes, monkeypatch)[0] is None


def test_box_that_cuts_its_polygon_marks_its_sides(monkeypatch):
    """A hand-built polygon whose bounding box holds only part of its ring:
    points of the ring outside the box are in no tract, and the table does
    not answer across the box's sides."""
    ring = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 0.0]])
    cut = TractPolygon("53033005000", "53033", (ring,), BoundingBox(0.0, 0.0, 1.25, 1.25))
    index = TractIndex([cut, TractPolygon("53033005001", "53033", (ring + 3.0,),
                                          BoundingBox(3.0, 3.0, 5.0, 5.0))])
    expected = assert_table_matches_scan(index, table_probes(index), monkeypatch)
    assert assign_tracts([1.0, 1.5], [1.0, 1.5], index) == ["53033005000", None]
    assert {"53033005000", "53033005001", None} == set(expected)


@pytest.mark.parametrize("budget", [geo._TABLE_BUDGET, 1, 4])
def test_multi_city_matches_scan(tmp_path, monkeypatch, budget):
    """Clusters degrees apart and a large tract over two of them, against
    the exhaustive scan: the held sub-cells (a sample), the boundaries,
    random points over and between the clusters, and points off the tiles."""
    monkeypatch.setattr(geo, "_TABLE_BUDGET", budget)
    index = load_fixture(tmp_path, multi_city_features())
    assert_within_budget(index, budget)
    rng = np.random.default_rng(22)
    between = list(zip(rng.uniform(-105, -94, 500).tolist(), rng.uniform(29, 39, 500).tolist()))
    over = list(zip(rng.uniform(-100.25, -98.9, 500).tolist(), rng.uniform(29.8, 30.6, 500).tolist()))
    probes = table_probes(index, limit=300) + boundary_probes(index) + between + over + OFF_TABLE
    expected = assert_table_matches_scan(index, probes, monkeypatch, budget > 4)
    # The large tract wins all of the second cluster, which lies inside it.
    assert set(expected) == {g for g in index.geoids() if g[:9] != "530330120"} | {None}


def test_multi_city_table_answers_most_sub_cells(tmp_path):
    """Clusters degrees apart keep the sub-cells of one city: the directory
    is sparse, and most sub-cells of the held tiles have an answer."""
    index = load_fixture(tmp_path, multi_city_features())
    assert index._tile_grid[2] == -7
    assert len(index._table) < index._tiles.size / 10
    assert (index._table >= 0).mean() > 0.75
