import json
from fractions import Fraction

import numpy as np
import pytest

from bikeshare_equity import geo
from bikeshare_equity.errors import GeometryError, SchemaError
from bikeshare_equity.geo import (
    TractIndex,
    assign_tract,
    assign_tracts,
    load_boundaries,
    point_in_polygon,
)
from bikeshare_equity.join_aggregate import count_by_tract
from helpers import (
    five_tract_features,
    observation,
    square_feature,
    winding_number_inside,
    write_feature_collection,
)


def load_fixture(tmp_path, features, **kwargs):
    path = write_feature_collection(tmp_path / "tracts.geojson", features)
    return load_boundaries(path, **kwargs)


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
# assign_tract
# ---------------------------------------------------------------------------

def test_assign_inside_tract(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    obs = observation("sys", "e", lat=0.5, lon=0.5)
    assert assign_tract(obs, index) == "53033000100"


def test_assign_in_gap_returns_none(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    obs = observation("sys", "e", lat=0.5, lon=1.5)  # gap between squares
    assert assign_tract(obs, index) is None


def test_assign_shared_boundary_prefers_smallest_geoid(tmp_path):
    index = load_fixture(
        tmp_path,
        [
            square_feature("53033000102", 0.0, 0.0),
            square_feature("53033000101", 1.0, 0.0),  # shares the lon=1 edge
        ],
    )
    obs = observation("sys", "e", lat=0.5, lon=1.0)
    assert assign_tract(obs, index) == "53033000101"


def test_grid_matches_exhaustive_scan(tmp_path):
    index = load_fixture(tmp_path, five_tract_features(), cell_size=0.05)
    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(1000):
        lon = float(rng.uniform(-1.0, 9.0))
        lat = float(rng.uniform(-1.0, 5.0))
        obs = observation("sys", "e", lat=lat, lon=lon)
        fast = assign_tract(obs, index)
        matches = [
            poly.tract_geoid
            for poly in index.polygons
            if point_in_polygon(lat, lon, poly)
        ]
        slow = min(matches) if matches else None
        if fast != slow:
            disagreements += 1
    assert disagreements == 0


def test_candidates_are_superset_of_containers(tmp_path):
    index = load_fixture(tmp_path, five_tract_features(), cell_size=0.3)
    rng = np.random.default_rng(3)
    for _ in range(300):
        lon = float(rng.uniform(-1.0, 9.0))
        lat = float(rng.uniform(-1.0, 5.0))
        candidate_ids = {id(poly) for poly in index.candidates(lat, lon)}
        for poly in index.polygons:
            if point_in_polygon(lat, lon, poly):
                assert id(poly) in candidate_ids


def test_index_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        TractIndex([], cell_size=0.0)


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
    probes = set()
    for lon, lat in points:
        for dlon in (-np.inf, 0.0, np.inf):
            for dlat in (-np.inf, 0.0, np.inf):
                probes.add(
                    (
                        float(np.nextafter(lon, dlon)) if dlon else lon,
                        float(np.nextafter(lat, dlat)) if dlat else lat,
                    )
                )
    return sorted(probes)


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


@pytest.mark.parametrize("cell_size", [0.05, 0.3, 5.0])
@pytest.mark.parametrize("shapes", sorted(SHAPE_SETS))
def test_batch_matches_scan_on_boundary_probes(tmp_path, shapes, cell_size):
    index = load_fixture(tmp_path, SHAPE_SETS[shapes](), cell_size=cell_size)
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


@pytest.mark.parametrize("cell_size", [0.05, 0.3, 5.0])
@pytest.mark.parametrize(
    "shapes, lon_range, lat_range",
    [
        ("five_tracts", (-1.0, 9.0), (-1.0, 5.0)),
        ("concave", (-0.5, 4.5), (-0.5, 4.5)),
        ("holed_with_island", (-0.5, 4.5), (-0.5, 4.5)),
        ("multipolygon_city", (9.0, 25.0), (9.0, 25.0)),
    ],
)
def test_batch_matches_scan_on_random_points(tmp_path, shapes, lon_range, lat_range, cell_size):
    index = load_fixture(tmp_path, SHAPE_SETS[shapes](), cell_size=cell_size)
    rng = np.random.default_rng(2024)
    probes = list(
        zip(rng.uniform(*lon_range, size=1000).tolist(), rng.uniform(*lat_range, size=1000).tolist())
    )
    assert_batch_matches_scan(index, probes)


def test_batch_matches_scan_when_blocks_are_sliced(tmp_path, monkeypatch):
    # A one-element block forces one point per slice through every ring.
    monkeypatch.setattr(geo, "_BLOCK_ELEMENTS", 1)
    index = load_fixture(tmp_path, holed_with_island_features(), cell_size=5.0)
    assert_batch_matches_scan(index, boundary_probes(index))


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


def test_count_by_tract_accepts_generator(tmp_path):
    index = load_fixture(tmp_path, five_tract_features())
    observations = [
        observation("sys", f"e{i}", lat=0.5, lon=lon) for i, lon in enumerate([0.5, 1.5, 2.5, 2.0])
    ]
    from_list = count_by_tract(observations, index)
    from_generator = count_by_tract((obs for obs in observations), index)
    assert from_generator == from_list
    counts, diagnostics = from_generator
    assert diagnostics.unassigned == 1
    assert {c.tract_geoid: c.count_free for c in counts}["53033000101"] == 2
