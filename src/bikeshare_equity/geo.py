"""Census-tract boundaries and point-in-polygon reverse geocoding.

Containment uses even-odd ray casting (the classic pnpoly test, see
W. R. Franklin, "PNPOLY - Point Inclusion in Polygon Test") in planar lon/lat
degree space, which is accurate at tract scale. Points exactly on a ring edge
count as inside, and ties across shared boundaries resolve to the
lexicographically smallest GEOID so assignments are reproducible.

Rings load straight from the decoded GeoJSON into read-only (n, 2) float64
arrays, one ``np.array`` call per ring, and must hold finite lon/lat degrees.
``load_boundaries`` can keep the compiled index (see TractIndex) in a cache
directory, one file per boundary-file content, so a later load of the same
file decodes no JSON and builds nothing (``content_cache.load``, given this
module's parse, ``_encode`` and ``_decode``).

One structure serves every lookup: square sub-cells whose side is a power of
two in degrees, in tiles of ``_TILE`` x ``_TILE`` sub-cells. Only the tiles
that some polygon's bounding box reaches are held, each listing those
polygons, and a point in no held tile is in no box, so in no tract. The side
is the finest within ``_TABLE_BUDGET`` (see _tile_frame), so tracts in
cities far apart keep the sub-cells of one city, and a 20-degree tract only
coarsens them. Each held sub-cell has an entry in the answer table: the rank
of the tract that contains the whole sub-cell, ``len(geoids)`` where no tract
does, or -1 where the bounding box of some ring edge, widened by ``_MARGIN``
of a sub-cell, touches the sub-cell (so do the sides of a polygon's bounding
box that cuts its outer ring). Only the points that read -1 go through the
ring test. The table's answers are the ring test's:

- Scaling by a power of two is exact in float64, so a point's sub-cell is
  the one it lies in (to within an underflow, far below the margin).
- A point in an unmarked sub-cell is outside every edge's box, so it lies on
  no edge. An edge that straddles its latitude is at least the margin to its
  left or right, far beyond the rounding error of the ray's crossing, so
  ``px < ray_x`` has its exact value; an edge that does not straddle it
  counts for nothing. The float64 test therefore gives the exact even-odd
  answer, and no ring boundary passes through the sub-cell, so every point
  in it has the answer of its centre.
- A run of unmarked sub-cells along one row of a tile is one region with no
  boundary in it, so the build answers each run once, at the centre of its
  first sub-cell, with the ring test itself.

The ring test (``assign_tracts`` without the table) runs the scalar tests
with numpy, on whole columns of points rather than one polygon at a time.
Each point pairs with the polygons its tile lists whose bounding box holds
it; each pair expands to one row per ring of its polygon. Each ring is split
into horizontal bands of equal height, about ``_BAND_EDGES`` edges a band,
and lists every edge in each band its latitude range touches: an edge that
can change a point's answer straddles the point's horizontal line or ends on
it, so it is in the band of the point's latitude (the y-interval idea behind
GEOS's IndexedPointInAreaLocator). A row tests only that band's edges. Rows
are tested widest band first, in bounded blocks each padded to the width of
its first row; the first hole hit decides a point inside an outer ring, and
``np.minimum.at`` picks each point's smallest GEOID rank. The float64
expressions are the scalar test's in the same order, so it agrees with
``point_in_polygon`` bit for bit; the scalar functions stay as the reference
oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import content_cache
from .errors import GeometryError, ParseError, SchemaError

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

# A ring of E edges is split into ceil(E / _BAND_EDGES) horizontal bands, so
# a ring of at most this many edges is one band.
_BAND_EDGES = 8

# Most entries per polygon (see _tile_frame) at the sub-cell side 2**e, for
# the finest e in _TABLE_EXPONENTS within it. A tract of the benchmark cities
# reaches about 450 entries at 2**-7 degrees and 1,200 at 2**-8.
_TABLE_BUDGET = 1024
_TABLE_EXPONENTS = range(-16, 10)

# A tile is _TILE x _TILE sub-cells; a power of two.
_TILE = 8

# A ring edge's box is widened by this fraction of a sub-cell before it marks
# the sub-cells it touches: at least 2**-36 degrees, far above the float64
# rounding of a ray's crossing (about 1e-13 at 180 degrees), far below a
# sub-cell.
_MARGIN = 2.0**-20

# The arrays a cache file stores (TractIndex attributes with a leading
# underscore): the whole index. The int32 parts are last, so that every
# int64 and float64 part stays 8-byte aligned in the file.
_PART_NAMES = (
    "xy", "ring_offsets", "poly_rings", "bbox", "rank", "band_offsets", "band_edges",
    "tile_grid", "tile_offsets", "tile_polys", "tiles", "table",
)

# Part of every cache key: a change to the cache file's layout or meaning
# must bump it, so files written before the change are never read.
_CACHE_VERSION = 5


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
    """Immutable tiled spatial index over tract polygons.

    The index is a handful of flat arrays:

    - ``_xy``: every ring's (lon, lat) vertices, polygon by polygon. Ring r
      spans [_ring_offsets[r], _ring_offsets[r + 1]) and owns the edges
      k -> k + 1 inside that span.
    - ``_poly_rings``: polygon p owns rings [_poly_rings[p], _poly_rings[p + 1]),
      the outer ring first.
    - ``_bbox``: per polygon, (min_lon, min_lat, max_lon, max_lat).
    - ``_rank``: per polygon, the position of its GEOID in ``geoids()``, the
      sorted GEOIDs.
    - The edge bands of the batch test: ring r of E edges is split into
      ceil(E / _BAND_EDGES) bands of equal height over its latitude range
      (see _ring_band_grid); band k lists the edges
      ``_band_edges[_band_offsets[k]:_band_offsets[k + 1]]``, each edge by the
      index in ``_xy`` of its first vertex. An edge is in every band its
      latitude range touches, in edge order.
    - The tiles, for ``_tile_grid`` = (x0, y0, e): tile (x, y) covers lon
      [x, x + 1) and lat [y, y + 1) times _TILE * 2**e degrees. ``_tiles``,
      an int32 directory, holds at [y - y0, x - x0] the tile's position, in
      row-major order, or -1 where no bounding box reaches it. Tile t lists
      ``_tile_polys[_tile_offsets[t]:_tile_offsets[t + 1]]``, in order.
    - The answer table: ``_table`` is an int32 (tiles, _TILE, _TILE) array
      whose entry [t, j, i] answers sub-cell row j, column i of tile t.

    The parts (``_PART_NAMES``) come from the polygons given, or all of them
    from a cache file. Each ring's band height (``_band_grid``) and
    ``polygons`` are built on use.
    """

    def __init__(self, polygons: list[TractPolygon]):
        polygons = list(polygons)
        rings = [ring for poly in polygons for ring in poly.rings]
        geoids = sorted({poly.tract_geoid for poly in polygons})
        rank = {geoid: r for r, geoid in enumerate(geoids)}
        boxes = [poly.bbox for poly in polygons]
        xy = np.concatenate(rings, dtype=np.float64) if rings else np.empty((0, 2))
        ring_offsets = _offsets([len(ring) for ring in rings])
        band_offsets, band_edges = _edge_bands(xy, ring_offsets)
        parts = {
            "xy": xy,
            "ring_offsets": ring_offsets,
            "poly_rings": _offsets([len(poly.rings) for poly in polygons]),
            "bbox": np.array(
                [(b.min_lon, b.min_lat, b.max_lon, b.max_lat) for b in boxes], dtype=np.float64
            ).reshape(-1, 4),
            "rank": np.array([rank[poly.tract_geoid] for poly in polygons], dtype=np.int64),
            "band_offsets": band_offsets,
            "band_edges": band_edges,
        }
        self._set_parts({**parts, **_tile_parts(parts["bbox"])}, geoids)
        self._table = _answer_table(self)

    @classmethod
    def _from_parts(cls, parts: dict[str, np.ndarray], geoids: list[str]):
        index = cls.__new__(cls)
        index._set_parts(parts, geoids)
        return index

    def _set_parts(self, parts: dict[str, np.ndarray], geoids: list[str]):
        for name, array in parts.items():
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

    @cached_property
    def _band_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each ring's bands; see _ring_band_grid."""
        return _ring_band_grid(self._xy, self._ring_offsets)

    def geoids(self) -> list[str]:
        """Sorted unique tract GEOIDs covered by the index."""
        return self._geoid_table[:-1]


def _offsets(sizes: list[int]) -> np.ndarray:
    """Run boundaries [0, s0, s0 + s1, ...] of consecutive runs of these sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _ring_bands(ring_offsets: np.ndarray) -> np.ndarray:
    """Band boundaries [0, b0, b0 + b1, ...]: ring r owns bands [result[r],
    result[r + 1]), ceil(edges / _BAND_EDGES) of them."""
    return _offsets(-(-(np.diff(ring_offsets) - 1) // _BAND_EDGES))


def _ring_band_grid(
    xy: np.ndarray, ring_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, ylo, h): ring r owns bands [first[r], first[r + 1]), of height
    h[r] upward from ylo[r], its lowest latitude. The bands of a ring with no
    height (a flat ring) are 1 high, so all its edges are in its first."""
    first = _ring_bands(ring_offsets)
    y = xy[:, 1]
    starts = ring_offsets[:-1]
    ylo = np.minimum.reduceat(y, starts)
    h = (np.maximum.reduceat(y, starts) - ylo) / np.diff(first)
    h[~(h > 0)] = 1.0
    return first, ylo, h


def _band(values: np.ndarray, rings: np.ndarray, grid: tuple) -> np.ndarray:
    """The band of latitude values[i] in ring rings[i], as a position in the
    index's bands: band clip(floor((v - ylo) / h), 0, bands - 1) of the ring.
    Monotone in v, so an edge whose latitude range holds v is listed in v's
    band (_edge_bands lists it from the band of its lower end to that of its
    upper end, by this same function)."""
    first, ylo, h = grid
    start = first[rings]
    last = first[rings + 1] - start - 1
    # A tiny h may overflow the quotient to inf, which clips to the last band.
    with np.errstate(over="ignore"):
        band = np.floor((values - ylo[rings]) / h[rings])
    return start + np.fmin(np.fmax(band, 0.0), last).astype(np.int64)


def _edge_bands(xy: np.ndarray, ring_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(band_offsets, band_edges) of TractIndex: each edge listed in every
    band from the band of its lower end to that of its upper end."""
    grid = _ring_band_grid(xy, ring_offsets)
    rings = np.repeat(np.arange(len(ring_offsets) - 1), np.diff(ring_offsets) - 1)
    # Edge k of the index starts at vertex k + r of ring r: each ring before
    # it has one closing vertex that starts no edge.
    edges = np.arange(len(rings)) + rings
    y = xy[:, 1]
    y1, y2 = y[edges], y[1:][edges]
    low = _band(np.minimum(y1, y2), rings, grid)
    count = _band(np.maximum(y1, y2), rings, grid) - low + 1
    bands = _runs(low, count)
    # One key per (band, edge) entry, band * vertices + edge: sorted, each
    # band lists its edges in ring order. Exact while bands * vertices < 2**63.
    vertices = max(len(xy), 1)
    keys = bands * vertices
    keys += np.repeat(edges, count)
    keys.sort()
    return _offsets(np.bincount(bands, minlength=grid[0][-1])), keys % vertices


def _tiles_of(values: np.ndarray, exponent: int) -> np.ndarray:
    """The tile numbers of degree values at sub-cell side 2**exponent, as
    _locate finds them: monotone, so a point in a box is in one of its tiles."""
    return np.floor(np.floor(values * 2.0**-exponent) / _TILE)


def _tile_frame(bbox: np.ndarray, exponent: int) -> tuple[int, int, int, int, bool]:
    """(x0, y0, rows, cols, fits) at sub-cell side 2**exponent: the tile
    directory's frame over the union of the boxes, and whether both it and
    the polygons' own box tiles, _TILE**2 entries each, hold at most
    _TABLE_BUDGET entries per polygon (both grow as the exponent falls, and
    bound the table and candidate lists). Raises ValueError unless the boxes
    lie in lon/lat degrees: the coarsest tiles are then at most 2 x 2."""
    degrees = np.array([180.0, 90.0, 180.0, 90.0])
    if not ((-degrees <= bbox) & (bbox <= degrees)).all():  # NaN fails too
        raise ValueError("bounding boxes must lie within lon [-180, 180] / lat [-90, 90]")
    if not len(bbox):
        return 0, 0, 1, 1, False
    tiles = _tiles_of(bbox, exponent)
    own = np.maximum(tiles[:, 2:] - tiles[:, :2] + 1, 0).prod(axis=1).sum()
    low = tiles[:, :2].min(axis=0)
    cols, rows = np.maximum(tiles[:, 2:].max(axis=0) - low + 1, 1)
    budget = _TABLE_BUDGET * len(bbox)
    fits = _TILE**2 * own <= budget and rows * cols <= budget
    return int(low[0]), int(low[1]), int(rows), int(cols), bool(fits)


def _box_cells(x1, y1, x2, y2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(box, x, y): every cell (x, y) of each box i, columns x1[i] to x2[i]
    and rows y1[i] to y2[i] inclusive (none if inverted), row by row."""
    widths = np.maximum(x2 - x1 + 1, 0)
    counts = widths * np.maximum(y2 - y1 + 1, 0)
    box = np.repeat(np.arange(len(counts)), counts)
    dy, dx = np.divmod(_runs(np.zeros_like(counts), counts), widths[box])
    return box, x1[box] + dx, y1[box] + dy


def _tile_parts(bbox: np.ndarray) -> dict[str, np.ndarray]:
    """The tile grid, directory and candidate lists of TractIndex over these
    bounding boxes, at the finest exponent of _TABLE_EXPONENTS within the
    budget (see _tile_frame), or the coarsest: a tile where some box reaches."""
    for exponent in _TABLE_EXPONENTS:
        x0, y0, rows, cols, fits = _tile_frame(bbox, exponent)
        if fits:
            break
    polys, x, y = _box_cells(*(_tiles_of(bbox, exponent).astype(np.int64) - [x0, y0, x0, y0]).T)
    # Stable, so each tile lists its polygons in index order.
    order = np.argsort(y * cols + x, kind="stable")
    keys = (y * cols + x)[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    directory = np.full(rows * cols, -1, dtype=np.int32)
    directory[keys[starts]] = np.arange(len(starts))
    return {
        "tile_grid": np.array([x0, y0, exponent], dtype=np.int64),
        "tile_offsets": np.append(starts, len(keys)),
        "tile_polys": polys[order],
        "tiles": directory.reshape(rows, cols),
    }


def _answer_table(index: TractIndex) -> np.ndarray:
    """_table of an index whose other parts are set: each sub-cell near a
    ring edge or a bounding-box side -1, and each run of the others along a
    tile's row answered at the centre of its first sub-cell."""
    free = ~_marked_sub_cells(index)
    first = free.copy()
    first[:, :, 1:] &= ~free[:, :, :-1]
    tile, row, col = np.nonzero(first)
    x0, y0, exponent = index._tile_grid.tolist()
    # Each tile's (row, column) in the directory, in order of position.
    tile_y, tile_x = np.divmod(np.flatnonzero(index._tiles >= 0), index._tiles.shape[1])
    side = 2.0**exponent
    lats = (_TILE * (y0 + tile_y[tile]) + row + 0.5) * side
    lons = (_TILE * (x0 + tile_x[tile]) + col + 0.5) * side
    answers = _exact_ranks(lats, lons, index)
    table = np.full(free.shape, -1, dtype=np.int32)
    table[free] = answers[np.cumsum(first)[free.reshape(-1)] - 1]
    return table


def _marked_sub_cells(index: TractIndex) -> np.ndarray:
    """Per sub-cell of each tile, as a (tiles, _TILE, _TILE) bool array:
    whether the box of a ring edge, widened by _MARGIN of a sub-cell, touches
    it. So does the outline of a polygon's bounding box where the box does
    not hold its outer ring: such a box cuts the polygon, and answers change
    along its sides."""
    xy, bbox = index._xy, index._bbox
    starts, outer = index._ring_offsets[:-1], index._poly_rings[:-1]
    loose = ~(
        (bbox[:, :2] <= np.minimum.reduceat(xy, starts)[outer]).all(axis=1)
        & (np.maximum.reduceat(xy, starts)[outer] <= bbox[:, 2:]).all(axis=1)
    )
    west, south, east, north = bbox[loose].T
    outlines = np.stack((west, south, east, south, east, north, west, north, west, south), 1)
    points = np.concatenate((xy, outlines.reshape(-1, 2)))
    # The sub-cells of each point, less and plus the margin, from the frame's
    # first, clipped to the frame: the map from a coordinate to them is
    # monotone, so an edge's box spans the sub-cells from the lesser of its
    # ends' first (start) to the greater of their last (one before stop).
    x0, y0, exponent = index._tile_grid.tolist()
    rows, cols = index._tiles.shape
    margin = _MARGIN * 2.0**exponent
    scale = 2.0**-exponent
    span = []
    for v, origin, size in ((points[:, 0], x0, cols), (points[:, 1], y0, rows)):
        origin, size = _TILE * origin, _TILE * size
        start = np.clip(np.floor((v - margin) * scale) - origin, 0, size).astype(np.int64)
        stop = np.clip(np.floor((v + margin) * scale) - (origin - 1), 0, size).astype(np.int64)
        span.append((np.minimum(start[:-1], start[1:]), np.maximum(stop[:-1], stop[1:])))
    (c1, c2), (r1, r2) = span
    # The step from one ring's closing point to the next ring's first is no
    # edge: its box is made empty. A box beyond the frame is empty already.
    gaps = np.concatenate((starts[1:], len(xy) + 5 * np.arange(loose.sum()))) - 1
    c2[gaps] = c1[gaps]
    # Each box's pieces, one per tile it touches (an empty box adds nothing
    # below), as sub-cells [x1, x2) by [y1, y2) of the tile; a piece in a
    # tile that no bounding box reaches marks nothing.
    box, tile_x, tile_y = _box_cells(c1 // _TILE, r1 // _TILE, (c2 - 1) // _TILE, (r2 - 1) // _TILE)
    tile = index._tiles[tile_y, tile_x].astype(np.int64)
    held = tile >= 0
    tile, box, tile_x, tile_y = tile[held], box[held], _TILE * tile_x[held], _TILE * tile_y[held]
    x1, x2 = np.clip(c1[box] - tile_x, 0, _TILE), np.clip(c2[box] - tile_x, 0, _TILE)
    y1, y2 = np.clip(r1[box] - tile_y, 0, _TILE), np.clip(r2[box] - tile_y, 0, _TILE)
    # A 2-D difference array per tile: +1 at each piece's (y1, x1) and (y2,
    # x2) corners, -1 at the other two, then a running sum along each axis
    # counts the pieces over each sub-cell.
    width = _TILE + 1
    y1, y2 = (tile * width + y1) * width, (tile * width + y2) * width
    length = (len(index._tile_offsets) - 1) * width**2
    count = np.bincount(np.concatenate((y1 + x1, y2 + x2)), minlength=length)
    count -= np.bincount(np.concatenate((y1 + x2, y2 + x1)), minlength=length)
    count = count.reshape(-1, width, width)
    np.cumsum(count, axis=2, out=count)
    np.cumsum(count, axis=1, out=count)
    return count[:, :_TILE, :_TILE] > 0


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


def load_boundaries(path: str | Path, *, cache_dir: str | Path | None = None) -> TractIndex:
    """Load a GeoJSON FeatureCollection of tract boundaries into a TractIndex.

    Each feature must carry a GEOID property (fallback: geoid) with the
    11-character state+county+tract id. MultiPolygon features are split into
    one TractPolygon per part, all sharing the GEOID. Coordinates are read in
    GeoJSON lon,lat order; a third position element (altitude) is ignored.
    Coordinates must be finite lon/lat degrees. A malformed feature raises
    SchemaError or GeometryError naming its index in ``features``.

    With ``cache_dir``, the compiled index of a file that loaded cleanly is
    kept there, whole, and a later load of the same bytes reads it instead
    of decoding the JSON or building any part of the index. A cache file that is missing,
    unreadable or not written for these bytes is a miss (and is replaced);
    a directory that cannot be written is left alone. Either way the result
    and the errors are those of a load without the cache.
    """
    try:
        return content_cache.load(
            path, cache_dir, f"tract-index-v{_CACHE_VERSION}", _parse_boundaries, _encode,
            _decode, align=8,
        )
    except OSError as exc:
        raise ParseError(f"cannot read boundary file {path}: {exc}") from exc


def _parse_boundaries(data: bytes) -> TractIndex:
    # The decoded document is freed before the index (and its bands) is built.
    return TractIndex(_parse_polygons(data))


def _parse_polygons(data: bytes) -> list[TractPolygon]:
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
    return polygons


def _decode(header: dict, body: memoryview) -> TractIndex:
    """The index over a cache file's parts; raises (a miss) unless they are
    well-formed."""
    geoids = header["geoids"]
    parts, offset = {}, 0
    for name in _PART_NAMES:
        dtype, shape = header[name]
        part = np.frombuffer(body, np.dtype(dtype), math.prod(shape), offset)
        parts[name] = part.reshape(shape)
        offset += part.nbytes
    if offset != len(body) or not _well_formed(geoids, **parts):
        raise ValueError("parts are not those of a compiled index")
    return TractIndex._from_parts(parts, geoids)


def _well_formed(
    geoids, xy, ring_offsets, poly_rings, bbox, rank, band_offsets, band_edges,
    tile_grid, tile_offsets, tile_polys, tiles, table,
) -> bool:
    """Whether cached parts have the types, dtypes, shapes and offsets of a
    compiled index, so that no lookup can fall out of range (an index error
    here is a miss too)."""
    if not (
        all(
            a.dtype == np.int64 and a.ndim == 1
            for a in (ring_offsets, poly_rings, rank, band_offsets, band_edges,
                      tile_offsets, tile_polys)
        )
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

    if not (
        runs(ring_offsets, len(xy), 2)  # every ring has an edge
        and runs(poly_rings, len(ring_offsets) - 1, 1)
        and len(poly_rings) == len(rank) + 1
        # Every rank names a GEOID and every GEOID has a polygon.
        and len(per_geoid) == len(geoids) and (per_geoid > 0).all()
        # Within lon/lat degree bounds (NaN fails), so the band arithmetic stays finite.
        and xy.min(initial=0.0) >= -180.0 and xy.max(initial=0.0) <= 180.0
        and len(band_offsets) == _ring_bands(ring_offsets)[-1] + 1
        and runs(band_offsets, len(band_edges), 0)
    ):
        return False
    # Ring r lists band_edges[entries[r]:entries[r + 1]]: at least one entry
    # per edge of the ring (every edge is in a band), each an edge of the
    # ring, from its first vertex up to the one before its closing vertex.
    entries = band_offsets[_ring_bands(ring_offsets)]
    if not (
        (np.diff(entries) >= np.diff(ring_offsets) - 1).all()
        and (np.minimum.reduceat(band_edges, entries[:-1]) >= ring_offsets[:-1]).all()
        and (np.maximum.reduceat(band_edges, entries[:-1]) < ring_offsets[1:] - 1).all()
        and tile_grid.dtype == np.int64 and tile_grid.shape == (3,)
        and tiles.dtype == np.int32 and tiles.ndim == 2
        and table.dtype == np.int32 and table.shape == (len(tile_offsets) - 1, _TILE, _TILE)
    ):
        return False
    # Raises (a miss) unless the boxes are lon/lat degrees, as does a
    # directory value below -1; listed counts each value + 1.
    x0, y0, exponent = tile_grid.tolist()
    *frame, fits = _tile_frame(bbox, exponent)
    listed = np.bincount(tiles.reshape(-1) + 1, minlength=len(table) + 1)
    # The tiles are those of the finest exponent within the budget (or the
    # coarsest), each listed once; every listed polygon exists; each entry
    # is -1, a rank, or len(geoids) for "no tract".
    return bool(
        exponent in _TABLE_EXPONENTS and frame == [x0, y0, *tiles.shape]
        and (fits or exponent == _TABLE_EXPONENTS[-1])
        and (exponent == _TABLE_EXPONENTS[0] or not _tile_frame(bbox, exponent - 1)[-1])
        and len(listed) == len(table) + 1 and (listed[1:] == 1).all()
        and runs(tile_offsets, len(tile_polys), 0)
        and tile_polys.min(initial=0) >= 0 and tile_polys.max(initial=-1) < len(rank)
        and table.min(initial=-1) >= -1 and table.max(initial=-1) <= len(geoids)
    )


def _encode(index: TractIndex) -> tuple[dict, list[np.ndarray]]:
    """The cache file's header (GEOIDs, each part's dtype and shape) and body
    (the parts), written 8-byte aligned so a hit's parts are aligned views of
    the file's bytes."""
    parts = {name: getattr(index, "_" + name) for name in _PART_NAMES}
    header = {name: [part.dtype.str, part.shape] for name, part in parts.items()}
    return {"geoids": index.geoids(), **header}, list(parts.values())


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
    lon: np.ndarray, lat: np.ndarray, edges: np.ndarray, n_edges: np.ndarray, xy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether the point (lon[row], lat[row]) lies on one of the
    edges listed by the first n_edges[row] entries of that row of edges (as
    _on_ring_edge), and whether its ray crosses an odd number of them (as
    _in_ring). An edge e runs from vertex e of xy to vertex e + 1; entries
    past n_edges[row] are padding and are ignored.

    Each edge is _in_ring's edge from j = e to i = e + 1, and the float64
    expressions are the scalar ones in the same order, so both answers are
    bit-identical to the scalar functions' when the listed edges include
    every edge of the ring near the point's horizontal line: those that
    straddle it, or have an end on it. That is a superset of the edges whose
    box holds the point, and of those the ray can cross; only they are
    evaluated.
    """
    x, y = xy[:, 0], xy[:, 1]
    line = lat[:, None]
    # Near: an end on each side of the line or on it, so the product of the
    # ends' heights above the line is not positive. (A product that
    # underflows to zero admits an edge that is not near, which is harmless.)
    heights = y[edges] - line
    heights *= y[1:][edges] - line
    # Flat positions of the near edges, padding left out.
    i = np.flatnonzero(heights <= 0.0)
    row = i // edges.shape[1]
    keep = i - row * edges.shape[1] < n_edges[row]
    i, row = i[keep], row[keep]
    start = edges.reshape(-1)[i]
    x1, y1 = x[start], y[start]
    x2, y2 = x[1:][start], y[1:][start]
    px, py = lon[row], lat[row]
    in_box = (np.minimum(x1, x2) <= px) & (px <= np.maximum(x1, x2))
    in_box &= (np.minimum(y1, y2) <= py) & (py <= np.maximum(y1, y2))
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    on_edge = np.zeros(len(lat), dtype=bool)
    on_edge[row[in_box & (cross == 0.0)]] = True
    # An edge with an end on the line but not straddling it may divide by
    # zero (a horizontal edge); the straddle test masks its quotient out.
    with np.errstate(divide="ignore", invalid="ignore"):
        ray_x = (x1 - x2) * (py - y2) / (y1 - y2) + x2
    crosses = ((y1 > py) != (y2 > py)) & (px < ray_x)
    return on_edge, np.bincount(row[crosses], minlength=len(lat)) % 2 == 1


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each i in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - counts), counts)


def _pairs(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> tuple[np.ndarray, np.ndarray]:
    """(point, polygon) pairs, as a column of point indices and a column of
    polygon positions, whose polygon's bounding box holds the point: each
    point with the polygons its tile lists. A superset of the (point,
    container) pairs."""
    tile, _ = _locate(lats, lons, index)
    points = np.flatnonzero(tile >= 0)
    first = index._tile_offsets[tile[points]]
    counts = index._tile_offsets[tile[points] + 1] - first
    points, polys = np.repeat(points, counts), index._tile_polys[_runs(first, counts)]
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
    lon, lat = lons[row_points], lats[row_points]
    # Each row tests the edges of its ring's band that holds its latitude.
    bands = _band(lat, rings, index._band_grid)
    starts = index._band_offsets[bands]
    n_edges = index._band_offsets[bands + 1] - starts
    on_edge = np.empty(len(rings), dtype=bool)
    crossed = np.empty(len(rings), dtype=bool)
    # Rows are tested widest band first, each block padded to the width of
    # its first row, so one long band cannot widen the blocks of short ones.
    order = np.argsort(-n_edges, kind="stable")
    s = 0
    while s < len(order):
        # At least one slot: a flat ring's upper bands list no edge.
        slots = np.arange(max(1, n_edges[order[s]]))
        block = order[s : s + max(1, _BLOCK_ELEMENTS // len(slots))]
        s += len(block)
        # Padding slots repeat the next band's edges, or the last edge.
        edges = index._band_edges.take(starts[block, None] + slots, mode="clip")
        on_edge[block], crossed[block] = _ring_block(
            lon[block], lat[block], edges, n_edges[block], index._xy
        )
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
    Each point's answer-table entry answers it, unless the entry is -1; only
    those points go through the ring test.
    """
    ranks = _table_entries(lats, lons, index)
    near = np.flatnonzero(ranks < 0)
    ranks[near] = _exact_ranks(lats[near], lons[near], index)
    return ranks


def _locate(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per point, as integer arrays, the position of its tile (-1 for a point
    in no tile or with a NaN coordinate, which lies in no bounding box) and
    its sub-cell in the tile, row * _TILE + column (0 where it has no tile)."""
    x0, y0, exponent = index._tile_grid.tolist()
    rows, cols = index._tiles.shape
    bits = _TILE.bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        # Sub-cell numbers from the frame's first: exact integers.
        x = np.floor(lons * 2.0**-exponent) - _TILE * x0
        y = np.floor(lats * 2.0**-exponent) - _TILE * y0
        # NaN compares false, so it is in no tile.
        on = (0 <= x) & (x < _TILE * cols) & (0 <= y) & (y < _TILE * rows)
        x = np.where(on, x, 0.0).astype(np.intp)
        y = np.where(on, y, 0.0).astype(np.intp)
    tile = np.where(on, index._tiles.reshape(-1)[(y >> bits) * cols + (x >> bits)], -1)
    return tile, (y & (_TILE - 1)) << bits | (x & (_TILE - 1))


def _table_entries(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> np.ndarray:
    """Per point, as an int64 array, its entry in the answer table: "no
    tract", len(geoids), for a point in no tile or with a NaN coordinate."""
    tile, cell = _locate(lats, lons, index)
    no_tract = len(index._geoid_table) - 1
    if not len(index._table):  # no tile holds any point
        return np.full(len(lats), no_tract, dtype=np.int64)
    entries = index._table.reshape(-1)[np.maximum(tile, 0) * _TILE**2 + cell]
    return np.where(tile >= 0, entries, no_tract).astype(np.int64)


def _exact_ranks(lats: np.ndarray, lons: np.ndarray, index: TractIndex) -> np.ndarray:
    """assign_ranks by the ring test alone: tile pairs, then _contains."""
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

    Points on an edge count inside, the lexicographically smallest GEOID wins
    on a boundary shared by several tracts, and a point with a non-finite
    coordinate lies in no tract. Each point whose answer-table entry is not
    -1 takes it; the others are tested as columns, _POINT_CHUNK at a time,
    not polygon by polygon: each point pairs with the polygons its tile
    lists whose bounding box holds it, each pair expands to one row per
    ring, each row is tested against the edges of the ring's band that holds
    the point's latitude, a block of rows at a time, and each point keeps
    its container with the smallest GEOID.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.ndim != 1 or lats.shape != lons.shape:
        raise ValueError("lats and lons must be 1-D sequences of equal length")
    table = index._geoid_table
    return [table[rank] for rank in assign_ranks(lats, lons, index).tolist()]

