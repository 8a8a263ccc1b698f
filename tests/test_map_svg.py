"""cli.render_map_svg against the per-observation renderer it replaced, kept
below as a reference: the SVG text must be identical."""

import random

import pytest

from bikeshare_equity.cli import render_map_svg
from bikeshare_equity.gbfs_client import DockingType, Observations
from helpers import observation

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
    assert render_map_svg(observations) == expected
    assert render_map_svg(Observations.from_records(observations)) == expected


def test_render_map_svg_reads_a_generator_once():
    observations = sample(50, 2)
    expected = ref_render_map_svg(observations)
    assert render_map_svg(obs for obs in observations) == expected
