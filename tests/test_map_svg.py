"""cli.render_map_svg against the per-observation renderer it replaced, kept
below as a reference: the SVG text must be identical. Its markers are
formatted from whole columns (cli._Fixed2), which must write each value as
'%.2f' does."""

import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity.cli import _MARKER_BLOCK, _Fixed2, main, render_map_svg
from bikeshare_equity.snapshot_store import DockingType, load_snapshot
from helpers import build_synthetic_city, observation, observations_of

# ---------------------------------------------------------------------------
# Reference: the renderer as it was before it formatted markers from columns.
# ---------------------------------------------------------------------------


def ref_render_map_svg(observations, width=800, height=500):
    margin = 40.0
    if observations:
        lons = [obs.lon for obs in observations]
        lats = [obs.lat for obs in observations]
        min_lon, max_lon = min(lons), max(lons)
        min_lat, max_lat = min(lats), max(lats)
    else:
        # Continental-US default frame so an empty plot still shows axes.
        min_lon, max_lon, min_lat, max_lat = -125.0, -66.0, 24.0, 50.0
    pad_lon = (max_lon - min_lon) * 0.05 or 0.5
    pad_lat = (max_lat - min_lat) * 0.05 or 0.5
    min_lon -= pad_lon
    max_lon += pad_lon
    min_lat -= pad_lat
    max_lat += pad_lat
    # One shared degrees-per-pixel scale keeps the projection equirectangular.
    scale = min(
        (width - 2 * margin) / (max_lon - min_lon),
        (height - 2 * margin) / (max_lat - min_lat),
    )

    def x_of(lon: float) -> float:
        return margin + (lon - min_lon) * scale

    def y_of(lat: float) -> float:
        return height - margin - (lat - min_lat) * scale

    n_docked = sum(1 for obs in observations if obs.docking_type is DockingType.DOCKED)
    n_free = len(observations) - n_docked
    plot_right = x_of(max_lon)
    plot_top = y_of(max_lat)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>"
        ".marker.docked{fill:#1f6fb4;} .marker.free{fill:#e07b28;} "
        "text{font-family:sans-serif;font-size:12px;} "
        ".axis{stroke:#333;stroke-width:1;}"
        "</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line class="axis" x1="{margin:.2f}" y1="{height - margin:.2f}" '
        f'x2="{plot_right:.2f}" y2="{height - margin:.2f}"/>',
        f'<line class="axis" x1="{margin:.2f}" y1="{height - margin:.2f}" '
        f'x2="{margin:.2f}" y2="{plot_top:.2f}"/>',
        f'<text x="{margin:.2f}" y="{height - margin + 16:.2f}">lon {min_lon:.2f}</text>',
        f'<text x="{plot_right - 60:.2f}" y="{height - margin + 16:.2f}">lon {max_lon:.2f}</text>',
        f'<text x="4" y="{height - margin:.2f}">lat {min_lat:.2f}</text>',
        f'<text x="4" y="{plot_top + 4:.2f}">lat {max_lat:.2f}</text>',
    ]
    for obs in observations:
        kind = "docked" if obs.docking_type is DockingType.DOCKED else "free"
        lines.append(
            f'<circle class="marker {kind}" cx="{x_of(obs.lon):.2f}" '
            f'cy="{y_of(obs.lat):.2f}" r="2.5"/>'
        )
    legend_x = width - margin - 120
    lines.extend(
        [
            f'<circle class="legend docked" cx="{legend_x:.2f}" cy="{margin:.2f}" '
            'r="4" fill="#1f6fb4"/>',
            f'<text x="{legend_x + 10:.2f}" y="{margin + 4:.2f}">docked ({n_docked})</text>',
            f'<circle class="legend free" cx="{legend_x:.2f}" cy="{margin + 18:.2f}" '
            'r="4" fill="#e07b28"/>',
            f'<text x="{legend_x + 10:.2f}" y="{margin + 22:.2f}">free ({n_free})</text>',
            f'<text x="{margin:.2f}" y="{margin / 2:.2f}">'
            f"{len(observations)} observations ({n_docked} docked, {n_free} free)</text>",
            "</svg>",
        ]
    )
    return "\n".join(lines) + "\n"


def sample(count, seed):
    rng = random.Random(seed)
    return [
        observation("sys", f"e{i}", rng.uniform(24.0, 50.0), rng.uniform(-125.0, -66.0),
                    rng.choice([DockingType.DOCKED, DockingType.FREE]))
        for i in range(count)
    ]


CASES = {
    "10k points": sample(10_000, 1),
    "empty": [],
    "one point": [observation("sys", "e", 45.5, -122.6, DockingType.DOCKED)],
    "one column of points": [observation("sys", f"e{i}", 40.0 + i, -100.0) for i in range(3)],
}


@pytest.mark.parametrize("observations", CASES.values(), ids=CASES.keys())
def test_render_map_svg_matches_reference(observations):
    expected = ref_render_map_svg(observations)
    assert render_map_svg(observations_of(observations)) == expected


def alternating(count, seed):
    """One docking-type run per row."""
    kinds = [DockingType.DOCKED, DockingType.FREE]
    return [obs._replace(docking_type=kinds[i % 2]) for i, obs in enumerate(sample(count, seed))]


def all_of(kind, count, seed):
    return [obs._replace(docking_type=kind) for obs in sample(count, seed)]


def with_coordinate(observations, index, lat=None, lon=None):
    edited = list(observations)
    edited[index] = edited[index]._replace(
        lat=edited[index].lat if lat is None else lat, lon=edited[index].lon if lon is None else lon
    )
    return edited


def straddling_zero():
    """At width 60 and height 50 the scale is about -2.73 pixels a degree, and
    x runs from about +0.002 down through zero to -0.002 along these lons."""
    corners = [observation("sys", "sw", 0.0, 0.0), observation("sys", "ne", 10.0, 100.0)]
    lons = np.linspace(9.666, 9.6674, 200).tolist()
    return corners + [observation("sys", f"e{i}", 5.0, lon) for i, lon in enumerate(lons)]


# Enough rows for two whole blocks of marker lines and one row more.
PAST_TWO_BLOCKS = 2 * _MARKER_BLOCK + 1

# (observations, width, height)
SIZED_CASES = {
    # The scale goes negative: negative coordinates, and -0.00 where they round to zero.
    "narrower than the margins": (sample(300, 3), 60, 50),
    "x through zero": (straddling_zero(), 60, 50),
    # Coordinates from 40 to about 2e7, so some take the per-value '%.2f' text,
    # over more than one block of marker lines.
    "coordinates past 1e7": (sample(PAST_TWO_BLOCKS, 5), 20_000_000, 20_000_000),
    "coordinates far past 1e7": (sample(30, 6), 10**200, 10**200),
    "one run per row": (alternating(PAST_TWO_BLOCKS, 7), 800, 500),
    "exactly one block": (alternating(_MARKER_BLOCK, 13), 800, 500),
    "one block and one row": (alternating(_MARKER_BLOCK + 1, 14), 800, 500),
    "all docked": (all_of(DockingType.DOCKED, 200, 8), 800, 500),
    "all free": (all_of(DockingType.FREE, 200, 9), 800, 500),
    # Python's min and max let a NaN decide only as the first value.
    "a NaN coordinate": (with_coordinate(sample(50, 10), 7, lat=float("nan")), 800, 500),
    "a NaN first": (with_coordinate(sample(50, 11), 0, lon=float("nan")), 800, 500),
    "an infinite coordinate": (with_coordinate(sample(50, 12), 3, lon=float("inf")), 800, 500),
}


@pytest.mark.parametrize(("observations", "width", "height"), SIZED_CASES.values(), ids=SIZED_CASES.keys())
def test_render_map_svg_matches_reference_at_any_size(observations, width, height):
    expected = ref_render_map_svg(observations, width, height)
    assert render_map_svg(observations_of(observations), width, height) == expected


def marker_xs(svg):
    return re.findall(r'<circle class="marker \w+" cx="([^"]*)"', svg)


def test_sized_cases_reach_what_they_name():
    xs = marker_xs(ref_render_map_svg(*SIZED_CASES["x through zero"]))
    assert "-0.00" in xs and "0.00" in xs
    xs = [float(x) for x in marker_xs(ref_render_map_svg(*SIZED_CASES["coordinates past 1e7"]))]
    assert min(xs) < 1e7 <= max(xs)


# ---------------------------------------------------------------------------
# The column formatter, value by value against '%.2f'.
# ---------------------------------------------------------------------------


def column_text(values):
    """cli._Fixed2's text of each value, written as the renderer writes a
    marker's number: into a byte matrix with a keep-mask, then compacted."""
    values = np.asarray(values, dtype=np.float64)
    field = _Fixed2(values)
    text = np.empty((len(values), field.width + 1), np.uint8)
    keep = np.ones(text.shape, bool)
    text[:, -1] = ord("\n")
    field.write(text[:, :-1], keep[:, :-1])
    return str(text[keep], "ascii").split("\n")[:-1]


def assert_formats_as_percent(values):
    values = np.asarray(values, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = column_text(values)
    expected = ["%.2f" % value for value in values.tolist()]
    mismatches = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not mismatches, mismatches[:10]
    assert len(got) == len(expected)


def test_column_formatter_on_every_half_hundredth_and_its_neighbours():
    halves = np.arange(-200_000, 200_001) / 200.0  # [-1000, 1000] in steps of 0.005
    assert_formats_as_percent(
        np.concatenate([halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
    )


def test_column_formatter_on_ties_zeros_and_extremes():
    assert_formats_as_percent([
        0.125, 40.125, 2.675, -0.125, -40.125, -2.675, 0.005, 1.005, 2.5e-3,  # exact and near ties
        0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, -0.001, -0.004999, 0.004999,
        1e7, np.nextafter(1e7, 0.0), np.nextafter(1e7, np.inf), -1e7, 9_999_999.995, 9_999_999.994,
        9_999_999.999, 12_345_678.125, 1e300, -1e300, 1.7976931348623157e308,
        float("nan"), float("inf"), float("-inf"),
    ])


def test_column_formatter_across_magnitudes():
    """Log-spread values from 1e-4 to 1e16, and half-hundredths with their
    neighbours around 1e7, 2**31 hundredths and 1e12: where the float64
    product |v|*100 stops deciding the rounding, or would not fit a cast."""
    rng = np.random.default_rng(15)
    spread = rng.standard_normal(20_000) * 10.0 ** rng.integers(-4, 17, 20_000)
    halves = np.concatenate([base + np.arange(-400, 401) / 200.0 for base in (1e7, 2**31 / 100, 1e12)])
    assert_formats_as_percent(
        np.concatenate([spread, halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)])
    )


def test_column_formatter_on_an_empty_column():
    assert column_text([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_column_formatter_matches_percent_on_any_finite_floats(values):
    assert_formats_as_percent(values)


# ---------------------------------------------------------------------------
# End to end, and memory.
# ---------------------------------------------------------------------------


def test_map_command_writes_the_reference_svg_on_a_cache_miss_and_a_hit(tmp_path, capsys):
    """About 8k markers: more than one block of marker lines, and a document
    that is written in several slices."""
    city = build_synthetic_city(tmp_path / "city", n_cols=30, n_rows=20)
    store = city["store"]
    observations = list(load_snapshot(store, "latest"))
    assert len(observations) > _MARKER_BLOCK
    expected = ref_render_map_svg(observations).encode("utf-8")
    assert len(expected) > 3 * 2**16
    assert not list(store.glob("cache/snapshot-*"))
    written = []
    for name in ("miss", "hit"):
        out_dir = tmp_path / name
        assert main(["map", "--store", str(store), "--out", str(out_dir)]) == 0, capsys.readouterr().err
        assert len(list(store.glob("cache/snapshot-*"))) == 1
        written.append((out_dir / "map.svg").read_bytes())
    assert written == [expected, expected]


def test_render_map_svg_memory_is_bounded():
    """The markers are written a block of rows at a time, each block into one
    byte matrix with one keep-mask, compacted once. The peak stays under
    3.5 MB: about 1.4 MB at 4,096 rows a block, as at 1,024 (2.1 MB with one
    block for all 10k rows). Building the columns from the list of records
    inside the trace would add about 0.6 MB; the per-marker strings this
    replaced took about 2.9 MB with that build included."""
    observations = observations_of(sample(10_000, 1))
    render_map_svg(observations)  # imports and caches warmed outside the trace
    tracemalloc.start()
    try:
        svg = render_map_svg(observations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, peak
    assert svg.count("<circle class=\"marker ") == 10_000
