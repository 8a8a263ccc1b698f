"""Census-tract boundaries and point-in-polygon reverse geocoding.

Containment uses even-odd ray casting (the classic pnpoly test, see
W. R. Franklin, "PNPOLY - Point Inclusion in Polygon Test") in planar lon/lat
degree space, which is accurate at tract scale. Points exactly on a ring edge
count as inside, and ties across shared boundaries resolve to the
lexicographically smallest GEOID so assignments are reproducible.

Lookups go through a uniform lat/lon grid held as CSR arrays: the sorted
int64 keys of the cells that polygon bounding boxes touch, and per cell a
run of polygon positions. A cell lookup (``np.searchsorted`` on the keys)
yields a superset of the true containers, so grid-accelerated assignment
agrees exactly with an exhaustive scan. A polygon may register at most
``_CELL_BUDGET`` cells: one whose bounding box covers more goes on the
oversize list instead, and every point is tested against the oversize
polygons by bounding box. The grid therefore never holds more than the
budget times the number of polygons, however large a tract is.

Rings load straight from the decoded GeoJSON into read-only (n, 2) float64
arrays, one ``np.array`` call per ring, and must hold finite lon/lat degrees.
The compiled index is a handful of flat arrays (vertices, ring and polygon
offsets, bounding boxes, GEOID ranks, the grid). ``load_boundaries`` can keep
all but the grid in a cache directory, one ``content_cache`` file per
boundary-file content, so a later load of the same file at any cell size
decodes no JSON and builds no TractPolygon.

Batch assignment (``assign_tracts``) runs the same tests with numpy, on
whole columns of points rather than one polygon at a time. Each point pairs
with the polygons its grid cell lists (and every oversize polygon) whose
bounding box holds it; each pair expands to one row per ring of its polygon;
the rows are tested against per-ring vertex tables, padded to a common
width within each power-of-two size class, one bounded block at a time; the
first hole hit decides a point inside an outer ring, and ``np.minimum.at``
picks each point's smallest GEOID rank. The float64 expressions are the
scalar test's in the same order, so it agrees with ``point_in_polygon`` bit
for bit; the scalar functions stay as the reference oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .content_cache import content_key, read_entry, write_entry
from .errors import GeometryError, ParseError, SchemaError
from .gbfs_client import BikeObservation

DEFAULT_CELL_SIZE = 0.05

GEOID_LENGTH = 11
COUNTY_PREFIX_LENGTH = 5

# A ring is a read-only (n, 2) float64 array of (lon, lat) rows, closed: the
# first row equals the last.
Ring = np.ndarray

# The batch test takes at most this many points at a time, which bounds its
# (point, polygon) pair and (pair, ring) row arrays however many points there
# are, and then at most this many (row x ring edge) elements at a time, which
# bounds its temporaries however long the rings are.
_POINT_CHUNK = 2048
_BLOCK_ELEMENTS = 1 << 14

# Most grid cells one polygon registers; a polygon whose bounding box covers
# more goes on the oversize list.
_CELL_BUDGET = 4096

# The arrays a cache file stores (TractIndex attributes with a leading
# underscore); every load builds the grid from them.
_PART_NAMES = ("xy", "ring_offsets", "poly_rings", "bbox", "rank")

# Part of every cache key: a change to the cache file's layout or meaning
# must bump it, so files written before the change are never read.
_CACHE_VERSION = 2


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


# Compared and hashed by identity: field-wise equality is ambiguous for
# array rings.
@dataclass(frozen=True, eq=False)
class TractPolygon:
    tract_geoid: str
    county_geoid: str
    rings: tuple[Ring, ...]  # first ring is the outer boundary, rest are holes
    bbox: BoundingBox


class TractIndex:
    """Immutable uniform-grid spatial index over tract polygons.

    The index is a handful of flat arrays:

    - ``_xy``: every ring's (lon, lat) vertices, polygon by polygon. Ring r
      spans [_ring_offsets[r], _ring_offsets[r + 1]) and owns the edges
      k -> k + 1 inside that span.
    - ``_poly_rings``: polygon p owns rings [_poly_rings[p], _poly_rings[p + 1]),
      the outer ring first.
    - ``_bbox``: per polygon, (min_lon, min_lat, max_lon, max_lat).
    - ``_rank``: per polygon, the position of its GEOID in ``geoids()``, the
      sorted GEOIDs.
    - The grid: cell i, whose key is ``_cell_keys[i]`` (sorted), lists the
      polygons ``_cell_polys[_cell_offsets[i]:_cell_offsets[i + 1]]``. The
      cell (x, y) covers lon [x, x + 1) and lat [y, y + 1) times the cell
      size, and its key is (x - x0) * (y1 - y0 + 1) + (y - y0) for
      ``_grid`` = (x0, y0, x1, y1), the range of listed cells. Polygons
      over the cell budget are in ``_oversize`` instead.

    The parts (``_PART_NAMES``) come from the polygons given or from a cache
    file; one initialiser builds the grid over them. The padded ring tables
    of the batch test (``_ring_tables``) and ``polygons`` are built on use.
    """

    def __init__(self, polygons: list[TractPolygon], cell_size: float = DEFAULT_CELL_SIZE):
        polygons = list(polygons)
        rings = [ring for poly in polygons for ring in poly.rings]
        geoids = sorted({poly.tract_geoid for poly in polygons})
        rank = {geoid: r for r, geoid in enumerate(geoids)}
        boxes = [poly.bbox for poly in polygons]
        parts = {
            "xy": np.concatenate(rings, dtype=np.float64) if rings else np.empty((0, 2)),
            "ring_offsets": _offsets([len(ring) for ring in rings]),
            "poly_rings": _offsets([len(poly.rings) for poly in polygons]),
            "bbox": np.array(
                [(b.min_lon, b.min_lat, b.max_lon, b.max_lat) for b in boxes], dtype=np.float64
            ).reshape(-1, 4),
            "rank": np.array([rank[poly.tract_geoid] for poly in polygons], dtype=np.int64),
        }
        self._set_parts(parts, geoids, cell_size)

    @classmethod
    def _from_parts(cls, parts: dict[str, np.ndarray], geoids: list[str], cell_size: float):
        index = cls.__new__(cls)
        index._set_parts(parts, geoids, cell_size)
        return index

    def _set_parts(self, parts: dict[str, np.ndarray], geoids: list[str], cell_size: float):
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        for name, array in {**parts, **_grid_arrays(parts["bbox"], self.cell_size)}.items():
            setattr(self, "_" + name, array)
        self._xy.flags.writeable = False
        # Maps a rank back to its GEOID; the extra last entry stands for "no tract".
        self._geoid_table: list[str | None] = [*geoids, None]

    @cached_property
    def polygons(self) -> list[TractPolygon]:
        """The indexed polygons, built on first use; their rings are read-only
        views of _xy."""
        rings = np.split(self._xy, self._ring_offsets[1:-1])
        starts = self._poly_rings.tolist()
        geoids = [self._geoid_table[rank] for rank in self._rank.tolist()]
        return [
            TractPolygon(geoid, geoid[:COUNTY_PREFIX_LENGTH], tuple(rings[a:b]), BoundingBox(*box))
            for geoid, a, b, box in zip(geoids, starts, starts[1:], self._bbox.tolist())
        ]

    # Built on first use, not with the rest of the index: built during a load
    # from the cache, they raised the peak RSS of analyze by about 0.5 MB.
    @cached_property
    def _ring_tables(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
        """The padded ring vertex tables of the batch test; see _pad_rings."""
        return _pad_rings(self._xy, self._ring_offsets)

    def candidates(self, lat: float, lon: float) -> list[TractPolygon]:
        """Polygons listed by the point's grid cell, and the oversize polygons,
        whose bounding box holds it; a superset of containers."""
        _, polys = _pairs(np.array([lat], dtype=np.float64), np.array([lon], dtype=np.float64), self)
        return [self.polygons[i] for i in sorted(set(polys.tolist()))]

    def geoids(self) -> list[str]:
        """Sorted unique tract GEOIDs covered by the index."""
        return self._geoid_table[:-1]


def _offsets(sizes: list[int]) -> np.ndarray:
    """Run boundaries [0, s0, s0 + s1, ...] of consecutive runs of these sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _pad_rings(
    xy: np.ndarray, ring_offsets: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """The rings' vertices as padded tables for the batch test: (tables,
    ring_table, ring_row).

    Rings with 2**(c - 1) < edges <= 2**c share class c's pair of (rings,
    width + 1) tables of lons and lats, width being the class's most edges,
    so one long ring cannot widen the table of short ones. A shorter ring's
    row repeats its closing vertex to the full width. Ring r is row
    ring_row[r] of tables[ring_table[r]].
    """
    starts = ring_offsets[:-1]
    edges = np.diff(ring_offsets) - 1
    classes = np.frexp(np.maximum(edges - 1, 0).astype(np.float64))[1]  # ceil(log2(edges))
    tables = []
    ring_table = np.empty(len(edges), dtype=np.int64)
    ring_row = np.empty(len(edges), dtype=np.int64)
    # Not np.unique: it imports numpy.ma, a few milliseconds and megabytes.
    for t, c in enumerate(np.flatnonzero(np.bincount(classes)).tolist()):
        rings = np.flatnonzero(classes == c)
        ring_table[rings] = t
        ring_row[rings] = np.arange(len(rings))
        vertices = np.minimum(np.arange(edges[rings].max() + 1), edges[rings, None])
        vertices += starts[rings, None]
        tables.append((xy[:, 0][vertices], xy[:, 1][vertices]))
    return tables, ring_table, ring_row


def _grid_arrays(bbox: np.ndarray, cell_size: float) -> dict[str, np.ndarray]:
    """The grid of TractIndex over these bounding boxes: every polygon within
    the cell budget registers each cell its box touches."""
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor(bbox / cell_size)  # x0, y0, x1, y1 per polygon
    # Cell numbers stay exact integers in float64 (NaN fails the test too).
    if not (np.abs(cells) < 2.0**52).all():
        raise ValueError("bounding boxes must be finite, in cells numbered below 2**52")
    # Each box's size in cells; an inverted box (min above max) has none.
    widths = np.maximum(cells[:, 2] - cells[:, 0] + 1, 0)
    heights = np.maximum(cells[:, 3] - cells[:, 1] + 1, 0)
    n_cells = widths * heights
    polys = np.flatnonzero(n_cells <= _CELL_BUDGET)
    oversize = np.flatnonzero(n_cells > _CELL_BUDGET)
    if not len(polys):
        empty = np.empty(0, dtype=np.int64)
        # An empty cell range: no point falls in the grid.
        return {"cell_keys": empty, "cell_offsets": np.zeros(1, dtype=np.int64),
                "cell_polys": empty, "oversize": oversize,
                "grid": np.array([0, 0, -1, -1], dtype=np.int64)}
    x0, y0, x1, y1 = cells[polys].astype(np.int64).T
    gx0, gy0, gx1, gy1 = x0.min(), y0.min(), x1.max(), y1.max()
    span = gy1 - gy0 + 1
    if (int(gx1) - int(gx0) + 1) * int(span) >= 2**63:
        raise ValueError("cell_size is too small for the extent of the boundaries")
    # One entry per (polygon, cell): entry j of a polygon whose box is h
    # cells high is the cell (x0 + j // h, y0 + j % h).
    counts = n_cells[polys].astype(np.int64)
    h = np.repeat(heights[polys].astype(np.int64), counts)
    j = _runs(np.zeros_like(counts), counts)
    keys = (np.repeat(x0, counts) + j // h - gx0) * span + (np.repeat(y0, counts) + j % h - gy0)
    # Stable, so each cell lists its polygons in index order.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return {
        "cell_keys": keys[starts],
        "cell_offsets": np.append(starts, len(keys)),
        "cell_polys": np.repeat(polys, counts)[order],
        "oversize": oversize,
        "grid": np.array([gx0, gy0, gx1, gy1], dtype=np.int64),
    }


def _build_ring(raw, feature_index: int) -> Ring:
    if not isinstance(raw, list) or len(raw) < 4:
        raise GeometryError(
            f"feature {feature_index}: ring with {len(raw) if isinstance(raw, list) else 0} "
            "points (closed rings need at least 4)"
        )
    try:
        coords = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        coords = _lon_lat_rows(raw, feature_index)
    if coords.ndim != 2 or coords.shape[1] < 2:
        raise GeometryError(f"feature {feature_index}: malformed coordinate pair")
    ring = coords[:, :2]
    ring.flags.writeable = False
    return ring


def _lon_lat_rows(raw: list, feature_index: int) -> np.ndarray:
    """The ring's (lon, lat) rows when numpy cannot convert the positions
    whole: positions of mixed length (some carry an altitude), or a third
    element that is not a number. Only the first two elements are read."""
    if not all(isinstance(pair, list) and len(pair) >= 2 for pair in raw):
        raise GeometryError(f"feature {feature_index}: malformed coordinate pair")
    try:
        return np.array([pair[:2] for pair in raw], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"feature {feature_index}: bad coordinate: {exc}") from None


def _build_polygon(geoid: str, raw_rings, feature_index: int) -> TractPolygon:
    if not isinstance(raw_rings, list) or not raw_rings:
        raise GeometryError(f"feature {feature_index}: polygon without rings")
    rings = tuple(_build_ring(raw, feature_index) for raw in raw_rings)
    # One contiguous row of lons and one of lats: reductions along a row are
    # several times faster than down the columns of an (n, 2) array.
    lon_lat = (rings[0] if len(rings) == 1 else np.concatenate(rings)).T.copy()
    min_lon, min_lat = lon_lat.min(axis=1).tolist()
    max_lon, max_lat = lon_lat.max(axis=1).tolist()
    # A coordinate beyond these is not lon/lat in degrees (projected metres,
    # say). NaN (a null coordinate converts to NaN) fails every comparison.
    if not (-180.0 <= min_lon and max_lon <= 180.0 and -90.0 <= min_lat and max_lat <= 90.0):
        raise GeometryError(
            f"feature {feature_index}: a coordinate is null, non-finite or outside "
            "lon [-180, 180] / lat [-90, 90]"
        )
    if any(ring[0].tolist() != ring[-1].tolist() for ring in rings):
        raise GeometryError(f"feature {feature_index}: ring is not closed")
    return TractPolygon(
        tract_geoid=geoid,
        county_geoid=geoid[:COUNTY_PREFIX_LENGTH],
        rings=rings,
        bbox=BoundingBox(min_lon, min_lat, max_lon, max_lat),
    )


def _object_member(feature: dict, key: str, feature_index: int) -> dict:
    """feature[key] as a dict; a missing or null member reads as empty."""
    value = feature.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(f"feature {feature_index}: {key} is not an object")
    return value


def load_boundaries(
    path: str | Path,
    cell_size: float = DEFAULT_CELL_SIZE,
    *,
    cache_dir: str | Path | None = None,
) -> TractIndex:
    """Load a GeoJSON FeatureCollection of tract boundaries into a TractIndex.

    Each feature must carry a GEOID property (fallback: geoid) with the
    11-character state+county+tract id. MultiPolygon features are split into
    one TractPolygon per part, all sharing the GEOID. Coordinates are read in
    GeoJSON lon,lat order; a third position element (altitude) is ignored.
    Coordinates must be finite lon/lat degrees. A malformed feature raises
    SchemaError or GeometryError naming its index in ``features``.

    With ``cache_dir``, the compiled index of a file that loaded cleanly is
    kept there, and a later load of the same bytes, at any cell size, reads
    it instead of decoding the JSON. A cache file that is missing,
    unreadable or not written for these bytes is a miss (and is replaced);
    a directory that cannot be written is left alone. Either way the result
    and the errors are those of a load without the cache.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read boundary file {path}: {exc}") from exc
    if cache_dir is None:
        return _parse_boundaries(data, cell_size)
    key = content_key(f"tract-index-v{_CACHE_VERSION}", data)
    cache_file = Path(cache_dir) / key
    index = _read_cache(cache_file, key, cell_size)
    if index is None:
        index = _parse_boundaries(data, cell_size)
        _write_cache(cache_file, key, index)
    return index


def _parse_boundaries(data: bytes, cell_size: float) -> TractIndex:
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"boundary file is not UTF-8 text at byte {exc.start}", offset=exc.start
        ) from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"boundary file is not valid JSON at offset {exc.pos}", offset=exc.pos
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal over the int-conversion digit limit, or nesting
        # deeper than the decoder's recursion limit.
        raise ParseError(f"boundary file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise SchemaError("boundary file is not a GeoJSON FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list):
        raise SchemaError("boundary file has no features array")
    polygons: list[TractPolygon] = []
    for feature_index, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise SchemaError(f"feature {feature_index} is not an object")
        properties = _object_member(feature, "properties", feature_index)
        geoid = properties.get("GEOID", properties.get("geoid"))
        if geoid is None:
            raise SchemaError(f"feature {feature_index} has no GEOID property")
        geoid = str(geoid)
        if len(geoid) != GEOID_LENGTH:
            raise SchemaError(
                f"feature {feature_index}: GEOID {geoid!r} is not an "
                f"{GEOID_LENGTH}-character tract id"
            )
        geometry = _object_member(feature, "geometry", feature_index)
        geom_type = geometry.get("type")
        coordinates = geometry.get("coordinates")
        if geom_type == "Polygon":
            parts = [coordinates]
        elif geom_type == "MultiPolygon":
            # A tract with no polygon would vanish, its bikes unassigned.
            if not isinstance(coordinates, list) or not coordinates:
                raise GeometryError(
                    f"feature {feature_index}: MultiPolygon coordinates are "
                    "not a non-empty list of polygons"
                )
            parts = coordinates
        else:
            raise SchemaError(
                f"feature {feature_index}: unsupported geometry type {geom_type!r}"
            )
        for part in parts:
            polygons.append(_build_polygon(geoid, part, feature_index))
    return TractIndex(polygons, cell_size=cell_size)


def _read_cache(path: Path, key: str, cell_size: float) -> TractIndex | None:
    """The index over the parts of the cache file, or None (a miss) unless it
    is a good cache file for this key (content_cache.read_entry) holding
    well-formed parts whose grid builds."""

    def decode(header: dict, body: memoryview) -> TractIndex:
        geoids = header["geoids"]
        parts, offset = {}, 0
        for name in _PART_NAMES:
            dtype, shape = header[name]
            part = np.frombuffer(body, np.dtype(dtype), math.prod(shape), offset)
            parts[name] = part.reshape(shape)
            offset += part.nbytes
        if offset != len(body) or not _well_formed(geoids, **parts):
            raise ValueError("parts are not those of a compiled index")
        return TractIndex._from_parts(parts, geoids, cell_size)

    return read_entry(path, key, decode)


def _well_formed(geoids, xy, ring_offsets, poly_rings, bbox, rank) -> bool:
    """Whether cached parts have the types, dtypes, shapes and offsets of a
    compiled index, so that no lookup can fall out of range (an index error
    here is a miss too)."""
    if not (
        all(a.dtype == np.int64 and a.ndim == 1 for a in (ring_offsets, poly_rings, rank))
        and xy.dtype == np.float64 and xy.ndim == 2 and xy.shape[1] == 2
        and bbox.dtype == np.float64 and bbox.shape == (len(rank), 4)
        and type(geoids) is list and all(type(geoid) is str for geoid in geoids)
        and all(a < b for a, b in zip(geoids, geoids[1:]))
    ):
        return False
    # Polygons per GEOID (a negative rank raises, which is a miss).
    per_geoid = np.bincount(rank, minlength=len(geoids))

    def runs(offsets, total, least):
        return offsets[0] == 0 and offsets[-1] == total and (np.diff(offsets) >= least).all()

    return bool(
        runs(ring_offsets, len(xy), 2)  # every ring has an edge
        and runs(poly_rings, len(ring_offsets) - 1, 1)
        and len(poly_rings) == len(rank) + 1
        # Every rank names a GEOID and every GEOID has a polygon.
        and len(per_geoid) == len(geoids) and (per_geoid > 0).all()
    )


def _write_cache(path: Path, key: str, index: TractIndex) -> None:
    """Store the index's parts at path, whole or not at all; a location that
    cannot be written is skipped. The body is 8-byte aligned, so a hit's
    parts are aligned views of the file's bytes."""
    parts = {name: getattr(index, "_" + name) for name in _PART_NAMES}
    header = {name: [part.dtype.str, part.shape] for name, part in parts.items()}
    write_entry(path, key, {"geoids": index.geoids(), **header}, list(parts.values()), align=8)


def _vertices(ring: Ring) -> list[list[float]]:
    return np.asarray(ring, dtype=np.float64).tolist()


def _on_ring_edge(lon: float, lat: float, ring: Ring) -> bool:
    ring = _vertices(ring)
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if min(x1, x2) <= lon <= max(x1, x2) and min(y1, y2) <= lat <= max(y1, y2):
            cross = (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)
            if cross == 0.0:
                return True
    return False


def _in_ring(lon: float, lat: float, ring: Ring) -> bool:
    """Even-odd ray cast; the closing point is skipped so each edge counts once."""
    ring = _vertices(ring)
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


def _ring_block(
    lon: np.ndarray, lat: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether the point (lon[row], lat[row]) lies on an edge of the
    ring whose vertices are that row of xs, ys (as _on_ring_edge), and whether
    it makes an odd number of ray crossings (as _in_ring).

    Each edge k -> k + 1 is _in_ring's edge from j = k to i = k + 1, and the
    float64 expressions are the scalar ones in the same order, so both answers
    are bit-identical to the scalar functions'. They are evaluated only for
    the edges near the point's horizontal line: those that straddle it, or
    have an end on it. That is a superset of the edges whose box holds the
    point, and of those the ray can cross. A padding edge (the closing vertex
    repeated) has zero length: it straddles no line, and a point is on it only
    at the closing vertex, which is on the ring's first edge too.
    """
    edges = xs.shape[1] - 1
    line = lat[:, None]
    above = ys > line
    level = ys == line
    straddles = above[:, 1:] != above[:, :-1]
    near = straddles | level[:, 1:]
    near |= level[:, :-1]
    # Flat positions of the near edges; edge k of a row starts at its vertex k.
    i = np.flatnonzero(near)
    row = i // edges
    start = i + row
    x, y = xs.reshape(-1), ys.reshape(-1)
    x1, y1 = x[start], y[start]
    start += 1
    x2, y2 = x[start], y[start]
    px, py = lon[row], lat[row]
    in_box = (np.minimum(x1, x2) <= px) & (px <= np.maximum(x1, x2))
    in_box &= (np.minimum(y1, y2) <= py) & (py <= np.maximum(y1, y2))
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    # Narrowed in place: near edges become the edges the point is on, and
    # straddling edges the ones its ray crosses.
    on_edge = near
    on_edge.reshape(-1)[i] = in_box & (cross == 0.0)
    # An edge with an end on the line but not straddling it may divide by
    # zero (a horizontal edge); the straddle test masks its quotient out.
    with np.errstate(divide="ignore", invalid="ignore"):
        ray_x = (x1 - x2) * (py - y2) / (y1 - y2) + x2
    crosses = straddles
    crosses.reshape(-1)[i] &= px < ray_x
    return on_edge.any(axis=1), np.logical_xor.reduce(crosses, axis=1)


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - counts), counts)


def _pairs(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> tuple[np.ndarray, np.ndarray]:
    """(point, polygon) pairs, as a column of point indices and a column of
    polygon positions, whose polygon's bounding box holds the point: each
    point with the polygons its grid cell lists, and with every oversize
    polygon. A superset of the (point, container) pairs."""
    x0, y0, x1, y1 = index._grid.tolist()
    cell_x = np.floor(lons / index.cell_size)
    cell_y = np.floor(lats / index.cell_size)
    # NaN compares false, so non-finite points fall outside the grid.
    points = np.flatnonzero((x0 <= cell_x) & (cell_x <= x1) & (y0 <= cell_y) & (cell_y <= y1))
    keys = (cell_x[points] - x0).astype(np.int64) * (y1 - y0 + 1) + (
        cell_y[points] - y0
    ).astype(np.int64)
    cells = np.searchsorted(index._cell_keys, keys)
    listed = index._cell_keys[np.minimum(cells, len(index._cell_keys) - 1)] == keys
    points, cells = points[listed], cells[listed]
    first = index._cell_offsets[cells]
    counts = index._cell_offsets[cells + 1] - first
    points, polys = np.repeat(points, counts), index._cell_polys[_runs(first, counts)]
    if len(index._oversize):
        everyone = np.tile(np.arange(len(lats)), len(index._oversize))
        points = np.concatenate((points, everyone))
        polys = np.concatenate((polys, np.repeat(index._oversize, len(lats))))
    # The bounding-box test, lon then lat, on the pairs left.
    min_lon, min_lat, max_lon, max_lat = index._bbox.T
    for low, high, coords in ((min_lon, max_lon, lons), (min_lat, max_lat, lats)):
        coord = coords[points]
        keep = (low[polys] <= coord) & (coord <= high[polys])
        points, polys = points[keep], polys[keep]
    return points, polys


def _contains(
    lats: np.ndarray, lons: np.ndarray, points: np.ndarray, polys: np.ndarray, index: TractIndex
) -> np.ndarray:
    """point_in_polygon for each (point, polygon) pair whose polygon's
    bounding box holds the point."""
    # One row per (pair, ring), each pair's rows consecutive, outer ring first.
    first = index._poly_rings[polys]
    n_rings = index._poly_rings[polys + 1] - first
    rings = _runs(first, n_rings)
    row_points = np.repeat(points, n_rings)
    on_edge = np.empty(len(rings), dtype=bool)
    crossed = np.empty(len(rings), dtype=bool)
    tables, ring_table, ring_row = index._ring_tables
    ring_table, ring_row = ring_table[rings], ring_row[rings]
    for t, (xs, ys) in enumerate(tables):
        rows = np.flatnonzero(ring_table == t)
        table_rows, lon, lat = ring_row[rows], lons[row_points[rows]], lats[row_points[rows]]
        table_on_edge = np.empty(len(rows), dtype=bool)
        table_crossed = np.empty(len(rows), dtype=bool)
        step = max(1, _BLOCK_ELEMENTS // (xs.shape[1] - 1))
        for s in range(0, len(rows), step):
            block = slice(s, s + step)
            table_on_edge[block], table_crossed[block] = _ring_block(
                lon[block], lat[block], xs[table_rows[block]], ys[table_rows[block]]
            )
        on_edge[rows], crossed[rows] = table_on_edge, table_crossed
    outer = np.cumsum(n_rings) - n_rings
    inside = on_edge[outer] | crossed[outer]
    if len(rings) > len(polys):
        # A point strictly inside the outer ring is decided by the first hole
        # whose edge or interior holds it: inside on its edge, else outside.
        is_hole = np.ones(len(rings), dtype=bool)
        is_hole[outer] = False
        hits = np.flatnonzero(is_hole & (on_edge | crossed))
        owners = np.repeat(np.arange(len(polys)), n_rings)[hits]
        # As long as owners, which is empty when no point is on or in a hole.
        first_hit = np.ones(len(owners), dtype=bool)
        first_hit[1:] = owners[1:] != owners[:-1]
        hits, owners = hits[first_hit], owners[first_hit]
        undecided = crossed[outer[owners]] & ~on_edge[outer[owners]]
        inside[owners[undecided]] = on_edge[hits[undecided]]
    return inside


def assign_ranks(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> np.ndarray:
    """Per point, as an int64 array, the rank of the tract containing it: its
    GEOID's position in ``index.geoids()``, or ``len(index.geoids())`` where
    no tract does.

    The columnar core of assign_tracts, with the same answers; lats and lons
    are 1-D float64 arrays of equal length. A caller that tallies points per
    tract can count ranks (``np.bincount``) without forming GEOID strings.
    """
    ranks = np.full(len(lats), len(index._geoid_table) - 1, dtype=np.int64)
    for s in range(0, len(lats), _POINT_CHUNK):
        chunk = slice(s, s + _POINT_CHUNK)
        points, polys = _pairs(lats[chunk], lons[chunk], index)
        inside = _contains(lats[chunk], lons[chunk], points, polys, index)
        # The smallest rank among a point's containers: the smallest GEOID.
        np.minimum.at(ranks[chunk], points[inside], index._rank[polys[inside]])
    return ranks


def assign_tracts(
    lats: Sequence[float] | np.ndarray, lons: Sequence[float] | np.ndarray, index: TractIndex
) -> list[str | None]:
    """GEOID of the tract containing each point, or None where no tract does.

    The batch form of assign_tract with the same answers: points on an edge
    count inside, the lexicographically smallest GEOID wins on a boundary
    shared by several tracts, and a point with a non-finite coordinate lies in
    no tract. The points are tested as columns, _POINT_CHUNK at a time, not
    polygon by polygon: each point pairs with the polygons its grid cell
    lists (and every oversize polygon) whose bounding box holds it, each
    pair expands to one row per ring, the rows are tested against the rings'
    padded vertex tables a block at a time, and each point keeps its
    container with the smallest GEOID.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.ndim != 1 or lats.shape != lons.shape:
        raise ValueError("lats and lons must be 1-D sequences of equal length")
    table = index._geoid_table
    return [table[rank] for rank in assign_ranks(lats, lons, index).tolist()]


def assign_tract(obs: BikeObservation, index: TractIndex) -> str | None:
    """GEOID of the tract containing the observation, or None if no tract does.

    When a point sits on a boundary shared by several tracts, the
    lexicographically smallest GEOID wins.
    """
    return assign_tracts([obs.lat], [obs.lon], index)[0]
