"""Census-tract boundaries and point-in-polygon reverse geocoding.

Containment uses even-odd ray casting (the classic pnpoly test, see
W. R. Franklin, "PNPOLY - Point Inclusion in Polygon Test") in planar lon/lat
degree space, which is accurate at tract scale. Points exactly on a ring edge
count as inside, and ties across shared boundaries resolve to the
lexicographically smallest GEOID so assignments are reproducible.

Lookups go through a uniform lat/lon grid: each cell lists every polygon whose
bounding box intersects it, so a cell lookup yields a superset of the true
containers and grid-accelerated assignment agrees exactly with an exhaustive
scan.

Batch assignment (``assign_tracts``) runs the same tests with numpy: the index
compiles every ring into flat float64 vertex arrays once, points are grouped by
grid cell, and each polygon tests only the points of the cells that list it,
one (points x ring edges) block at a time. It evaluates the scalar test's
float64 expressions in the same order, so it agrees with ``point_in_polygon``
bit for bit; the scalar functions stay as the reference oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GeometryError, ParseError, SchemaError
from .gbfs_client import BikeObservation

DEFAULT_CELL_SIZE = 0.05

GEOID_LENGTH = 11
COUNTY_PREFIX_LENGTH = 5

# A ring is a closed sequence of (lon, lat) pairs: first point equals last.
Ring = tuple[tuple[float, float], ...]

# Most elements in one (points x ring edges) block of the batch test; a ring
# meeting more points is tested a slice of points at a time.
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class BoundingBox:
    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float

    def contains(self, lon: float, lat: float) -> bool:
        return (
            self.min_lon <= lon <= self.max_lon
            and self.min_lat <= lat <= self.max_lat
        )


@dataclass(frozen=True)
class TractPolygon:
    tract_geoid: str
    county_geoid: str
    rings: tuple[Ring, ...]  # first ring is the outer boundary, rest are holes
    bbox: BoundingBox


class TractIndex:
    """Immutable uniform-grid spatial index over tract polygons."""

    def __init__(self, polygons: list[TractPolygon], cell_size: float = DEFAULT_CELL_SIZE):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.polygons = list(polygons)
        self.cell_size = float(cell_size)
        self._grid: dict[tuple[int, int], list[int]] = {}
        for index, poly in enumerate(self.polygons):
            for cell in self._cells_for_bbox(poly.bbox):
                self._grid.setdefault(cell, []).append(index)
        if self._grid:
            self._grid_lo = tuple(map(min, zip(*self._grid)))
            self._grid_hi = tuple(map(max, zip(*self._grid)))

        # Every ring's vertices in flat float64 arrays, polygon by polygon. A
        # ring spanning [start, stop) owns the edges k -> k + 1 for k in
        # [start, stop - 1).
        n_points = sum(len(ring) for poly in self.polygons for ring in poly.rings)
        coords = np.fromiter(
            itertools.chain.from_iterable(
                point for poly in self.polygons for ring in poly.rings for point in ring
            ),
            dtype=np.float64,
            count=2 * n_points,
        )
        self._x = coords[0::2].copy()
        self._y = coords[1::2].copy()
        self._ring_spans: list[list[tuple[int, int]]] = []
        start = 0
        for poly in self.polygons:
            spans = []
            for ring in poly.rings:
                spans.append((start, start + len(ring)))
                start += len(ring)
            self._ring_spans.append(spans)

        # Polygons in GEOID order, so the first container found for a point
        # carries the smallest GEOID. The table maps a rank back to its
        # GEOID; its extra last entry stands for "no tract".
        geoids = self.geoids()
        rank = {geoid: r for r, geoid in enumerate(geoids)}
        self._rank = [rank[poly.tract_geoid] for poly in self.polygons]
        self._by_rank = sorted(range(len(self.polygons)), key=self._rank.__getitem__)
        self._geoid_table: list[str | None] = [*geoids, None]

    def _cell_of(self, lon: float, lat: float) -> tuple[int, int]:
        return (
            math.floor(lon / self.cell_size),
            math.floor(lat / self.cell_size),
        )

    def _cells_for_bbox(self, bbox: BoundingBox):
        x0, y0 = self._cell_of(bbox.min_lon, bbox.min_lat)
        x1, y1 = self._cell_of(bbox.max_lon, bbox.max_lat)
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                yield (x, y)

    def candidates(self, lat: float, lon: float) -> list[TractPolygon]:
        """Polygons whose grid cell matches the point; a superset of containers."""
        indices = self._grid.get(self._cell_of(lon, lat), [])
        return [self.polygons[i] for i in indices]

    def geoids(self) -> list[str]:
        """Sorted unique tract GEOIDs covered by the index."""
        return sorted({poly.tract_geoid for poly in self.polygons})


def _build_ring(raw, feature_index: int) -> Ring:
    if not isinstance(raw, list) or len(raw) < 4:
        raise GeometryError(
            f"feature {feature_index}: ring with {len(raw) if isinstance(raw, list) else 0} "
            "points (closed rings need at least 4)"
        )
    points = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) < 2:
            raise GeometryError(f"feature {feature_index}: malformed coordinate pair")
        points.append((float(pair[0]), float(pair[1])))
    if points[0] != points[-1]:
        raise GeometryError(f"feature {feature_index}: ring is not closed")
    return tuple(points)


def _build_polygon(geoid: str, raw_rings, feature_index: int) -> TractPolygon:
    if not isinstance(raw_rings, list) or not raw_rings:
        raise GeometryError(f"feature {feature_index}: polygon without rings")
    rings = tuple(_build_ring(raw, feature_index) for raw in raw_rings)
    lons = [point[0] for ring in rings for point in ring]
    lats = [point[1] for ring in rings for point in ring]
    return TractPolygon(
        tract_geoid=geoid,
        county_geoid=geoid[:COUNTY_PREFIX_LENGTH],
        rings=rings,
        bbox=BoundingBox(min(lons), min(lats), max(lons), max(lats)),
    )


def load_boundaries(
    path: str | Path, cell_size: float = DEFAULT_CELL_SIZE
) -> TractIndex:
    """Load a GeoJSON FeatureCollection of tract boundaries into a TractIndex.

    Each feature must carry a GEOID property (fallback: geoid) with the
    11-character state+county+tract id. MultiPolygon features are split into
    one TractPolygon per part, all sharing the GEOID. Coordinates are read in
    GeoJSON lon,lat order.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read boundary file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"boundary file is not valid JSON at offset {exc.pos}", offset=exc.pos
        ) from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise SchemaError("boundary file is not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise SchemaError("boundary file has no features array")
    polygons: list[TractPolygon] = []
    for feature_index, feature in enumerate(features):
        properties = feature.get("properties") or {}
        geoid = properties.get("GEOID", properties.get("geoid"))
        if geoid is None:
            raise SchemaError(f"feature {feature_index} has no GEOID property")
        geoid = str(geoid)
        if len(geoid) != GEOID_LENGTH:
            raise SchemaError(
                f"feature {feature_index}: GEOID {geoid!r} is not an "
                f"{GEOID_LENGTH}-character tract id"
            )
        geometry = feature.get("geometry") or {}
        geom_type = geometry.get("type")
        coordinates = geometry.get("coordinates")
        if geom_type == "Polygon":
            parts = [coordinates]
        elif geom_type == "MultiPolygon":
            parts = coordinates if isinstance(coordinates, list) else []
        else:
            raise SchemaError(
                f"feature {feature_index}: unsupported geometry type {geom_type!r}"
            )
        for part in parts:
            polygons.append(_build_polygon(geoid, part, feature_index))
    return TractIndex(polygons, cell_size=cell_size)


def _on_ring_edge(lon: float, lat: float, ring: Ring) -> bool:
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if min(x1, x2) <= lon <= max(x1, x2) and min(y1, y2) <= lat <= max(y1, y2):
            cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
            if cross == 0.0:
                return True
    return False


def _in_ring(lon: float, lat: float, ring: Ring) -> bool:
    """Even-odd ray cast; the closing point is skipped so each edge counts once."""
    inside = False
    j = len(ring) - 2
    for i in range(len(ring) - 1):
        xi, yi = ring[i]
        xj, yj = ring[j]
        if (yi > lat) != (yj > lat) and lon < (xj - xi) * (lat - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def point_in_polygon(lat: float, lon: float, poly: TractPolygon) -> bool:
    """True iff the point is inside the outer ring and outside every hole.

    Points exactly on any ring edge (outer or hole boundary) count as inside.
    Points outside the bounding box are rejected without ring evaluation.
    """
    if not poly.bbox.contains(lon, lat):
        return False
    outer = poly.rings[0]
    if _on_ring_edge(lon, lat, outer):
        return True
    if not _in_ring(lon, lat, outer):
        return False
    for hole in poly.rings[1:]:
        if _on_ring_edge(lon, lat, hole):
            return True
        if _in_ring(lon, lat, hole):
            return False
    return True


def _ring_tests(
    lons: np.ndarray, lats: np.ndarray, x: np.ndarray, y: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per point: on an edge of the ring (as _on_ring_edge), and an odd number
    of ray crossings (as _in_ring), for the ring owning vertices [start, stop).

    Each edge k -> k + 1 is _in_ring's edge from j = k to i = k + 1, and the
    float64 expressions are the scalar ones in the same order, so both answers
    are bit-identical to the scalar functions'.
    """
    x1, x2 = x[start : stop - 1], x[start + 1 : stop]
    y1, y2 = y[start : stop - 1], y[start + 1 : stop]
    lo_x, hi_x = np.minimum(x1, x2), np.maximum(x1, x2)
    lo_y, hi_y = np.minimum(y1, y2), np.maximum(y1, y2)
    on_edge = np.empty(len(lons), dtype=bool)
    crossed = np.empty(len(lons), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // len(x1))
    for s in range(0, len(lons), step):
        lon = lons[s : s + step, None]
        lat = lats[s : s + step, None]
        in_box = (lo_x <= lon) & (lon <= hi_x) & (lo_y <= lat) & (lat <= hi_y)
        cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
        on_edge[s : s + step] = (in_box & (cross == 0.0)).any(axis=1)
        straddles = (y2 > lat) != (y1 > lat)
        # Edges that do not straddle the ray may divide by zero (horizontal
        # edges); their quotient is masked out by the straddle test.
        with np.errstate(divide="ignore", invalid="ignore"):
            ray_x = (x1 - x2) * (lat - y2) / (y1 - y2) + x2
        crossed[s : s + step] = np.logical_xor.reduce(straddles & (lon < ray_x), axis=1)
    return on_edge, crossed


def _polygon_contains(
    lons: np.ndarray, lats: np.ndarray, index: TractIndex, poly_index: int
) -> np.ndarray:
    """point_in_polygon for many points inside the polygon's bounding box."""
    (start, stop), *holes = index._ring_spans[poly_index]
    on_edge, crossed = _ring_tests(lons, lats, index._x, index._y, start, stop)
    inside = on_edge | crossed
    # Points strictly inside the outer ring; the first hole whose edge or
    # interior holds one decides it.
    undecided = crossed & ~on_edge
    for start, stop in holes:
        which = np.flatnonzero(undecided)
        if not len(which):
            break
        on_hole, in_hole = _ring_tests(lons[which], lats[which], index._x, index._y, start, stop)
        inside[which[in_hole & ~on_hole]] = False
        undecided[which[on_hole | in_hole]] = False
    return inside


def _points_by_polygon(
    lats: np.ndarray, lons: np.ndarray, index: TractIndex
) -> dict[int, list[np.ndarray]]:
    """Polygon position -> index arrays of the points in grid cells listing it."""
    if not index._grid:
        return {}
    (x0, y0), (x1, y1) = index._grid_lo, index._grid_hi
    cell_x = np.floor(lons / index.cell_size)
    cell_y = np.floor(lats / index.cell_size)
    # NaN compares false, so non-finite points fall outside the grid.
    points = np.flatnonzero((x0 <= cell_x) & (cell_x <= x1) & (y0 <= cell_y) & (cell_y <= y1))
    height = y1 - y0 + 1
    keys = (cell_x[points] - x0).astype(np.int64) * height + (
        cell_y[points] - y0
    ).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys, points = keys[order], points[order]
    cells, starts = np.unique(keys, return_index=True)
    stops = np.append(starts[1:], len(keys))
    groups: dict[int, list[np.ndarray]] = {}
    for key, start, stop in zip(cells.tolist(), starts.tolist(), stops.tolist()):
        listed = index._grid.get((x0 + key // height, y0 + key % height), ())
        for poly_index in listed:
            groups.setdefault(poly_index, []).append(points[start:stop])
    return groups


def assign_tracts(
    lats: Sequence[float] | np.ndarray, lons: Sequence[float] | np.ndarray, index: TractIndex
) -> list[str | None]:
    """GEOID of the tract containing each point, or None where no tract does.

    The batch form of assign_tract with the same answers: points on an edge
    count inside, the lexicographically smallest GEOID wins on a boundary
    shared by several tracts, and a point with a non-finite coordinate lies in
    no tract. Each polygon is tested only against the points of the grid
    cells that list it and lie in its bounding box.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.ndim != 1 or lats.shape != lons.shape:
        raise ValueError("lats and lons must be 1-D sequences of equal length")
    unassigned = len(index._geoid_table) - 1
    best = np.full(len(lats), unassigned, dtype=np.intp)
    groups = _points_by_polygon(lats, lons, index)
    for poly_index in index._by_rank:
        blocks = groups.get(poly_index)
        if blocks is None:
            continue
        points = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        # A point keeps the first container found: its GEOID is the smallest.
        points = points[best[points] == unassigned]
        px, py = lons[points], lats[points]
        bbox = index.polygons[poly_index].bbox
        in_bbox = (
            (bbox.min_lon <= px) & (px <= bbox.max_lon)
            & (bbox.min_lat <= py) & (py <= bbox.max_lat)
        )
        points = points[in_bbox]
        inside = _polygon_contains(px[in_bbox], py[in_bbox], index, poly_index)
        best[points[inside]] = index._rank[poly_index]
    return [index._geoid_table[rank] for rank in best.tolist()]


def assign_tract(obs: BikeObservation, index: TractIndex) -> str | None:
    """GEOID of the tract containing the observation, or None if no tract does.

    When a point sits on a boundary shared by several tracts, the
    lexicographically smallest GEOID wins.
    """
    return assign_tracts([obs.lat], [obs.lon], index)[0]
