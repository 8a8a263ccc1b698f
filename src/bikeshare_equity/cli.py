"""Command-line pipeline: catalog, harvest, analyze, map.

analyze runs the full chain (load snapshot -> geocode -> count -> zero-county
filter -> join demographics -> scale -> model frame -> Poisson fit) and writes
table1.csv (per-docking-type system summaries), table2.csv (the coefficient
report), and run_manifest.json (scaling bounds and drop tallies, so every
coefficient can be unscaled by a reader). All outputs are deterministic for
fixed inputs: re-running produces byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import BikeshareEquityError, StageError, StorageError
from .gbfs_client import fetch_system_catalog, harvest
from .geo import load_boundaries
from .join_aggregate import (
    build_model_frame,
    count_by_tract,
    filter_zero_counties,
    join_demographics,
    read_demographics_csv,
    scale_predictors,
    summarize_systems,
)
from .poisson_glm import fit_poisson, render_report, report_to_csv, report_to_text
from .snapshot_store import DockingType, Observations, append_snapshot, load_snapshot

DOCKED_MODES = ("stations", "available_bikes")
# The store's subdirectory for cached parses of its snapshots and of the
# boundary files analyzed against it.
CACHE_DIR_NAME = "cache"

CONFIG_KEYS = {
    "catalog": "catalog_source",
    "country": "country_filter",
    "store": "store_path",
    "boundaries": "boundaries_path",
    "demographics": "demographics_path",
    "snapshot": "snapshot_selector",
    "docked-mode": "docked_count_mode",
    "out": "output_dir",
}


class UsageError(BikeshareEquityError):
    """Bad invocation (missing input, empty catalog); exits with status 2."""


@dataclass
class PipelineConfig:
    catalog_source: str = ""
    country_filter: str | None = None
    store_path: str = ""
    boundaries_path: str = ""
    demographics_path: str = ""
    snapshot_selector: str = "latest"
    docked_count_mode: str = "stations"
    output_dir: str = "."


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_number}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{line_number}: unknown key {key!r}")
        values[CONFIG_KEYS[key]] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Build the pipeline config from defaults, config file, then flags."""
    config = PipelineConfig()
    if getattr(args, "config", None):
        for field_name, value in _load_config_file(args.config).items():
            setattr(config, field_name, value)
    for key, field_name in CONFIG_KEYS.items():
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            setattr(config, field_name, value)
    for key, field_name in CONFIG_KEYS.items():
        # Opening a path that holds a NUL raises ValueError, not OSError.
        if "\x00" in (getattr(config, field_name) or ""):
            raise UsageError(f"{key} holds a NUL byte")
    if config.docked_count_mode not in DOCKED_MODES:
        raise UsageError(
            f"--docked-mode must be one of {', '.join(DOCKED_MODES)}"
        )
    return config


def parse_snapshot_selector(raw: str):
    """Selector syntax: "latest", a snapshot id, or "start..end" epoch range."""
    raw = raw.strip()
    if raw == "latest":
        return "latest"
    if ".." in raw:
        start_text, end_text = raw.split("..", 1)
        try:
            return (int(start_text), int(end_text))
        except ValueError as exc:
            raise UsageError(f"bad snapshot range {raw!r}") from exc
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(
            f"bad snapshot selector {raw!r}; use 'latest', an id, or start..end"
        ) from exc


def _require(config: PipelineConfig, *fields: str) -> None:
    labels = {value: key for key, value in CONFIG_KEYS.items()}
    for field_name in fields:
        if not getattr(config, field_name):
            raise UsageError(f"missing required option --{labels[field_name]}")


def cmd_catalog(config: PipelineConfig) -> int:
    _require(config, "catalog_source")
    entries = fetch_system_catalog(config.catalog_source, config.country_filter)
    for entry in entries:
        print(f"{entry.system_id:<24} {entry.country_code:<3} {entry.name}")
    print(f"{len(entries)} systems")
    return 0


def cmd_harvest(config: PipelineConfig) -> int:
    _require(config, "catalog_source", "store_path")
    entries = fetch_system_catalog(config.catalog_source, config.country_filter)
    if not entries:
        raise UsageError("catalog matched no systems; nothing to harvest")
    observations, diagnostics = harvest(
        entries, docked_mode=config.docked_count_mode
    )
    for failure in diagnostics.failures:
        print(
            f"warning: {failure.system_id} {failure.feed}: {failure.message}",
            file=sys.stderr,
        )
    if not observations and diagnostics.failures:
        failed_systems = {failure.system_id for failure in diagnostics.failures}
        if failed_systems == {entry.system_id for entry in entries}:
            raise StageError("harvest", "every system failed; no observations gathered")
    receipt = append_snapshot(observations, config.store_path)
    if diagnostics.dropped_entities:
        print(
            f"warning: dropped {diagnostics.dropped_entities} malformed entities",
            file=sys.stderr,
        )
    print(
        f"snapshot {receipt.snapshot_id}: {receipt.row_count} observations "
        f"from {len(receipt.systems)} systems at {receipt.observed_at}"
    )
    return 0


def _stage(name: str, func: Callable):
    try:
        return func()
    except StageError:
        raise
    except BikeshareEquityError as exc:
        raise StageError(name, str(exc)) from exc


@contextlib.contextmanager
def _writing_outputs(out_dir: Path):
    """Raise an OSError from creating or writing the output directory as one
    StorageError naming it."""
    try:
        yield
    except OSError as exc:
        raise StorageError(f"cannot write outputs to {out_dir}: {exc}") from exc


def cmd_analyze(config: PipelineConfig) -> int:
    _require(config, "store_path", "boundaries_path", "demographics_path")
    out_dir = Path(config.output_dir)
    with _writing_outputs(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    selector = parse_snapshot_selector(config.snapshot_selector)

    # Parsed snapshots, compiled boundaries and the demographics table are
    # cached in the store, keyed by the files' content.
    cache_dir = Path(config.store_path) / CACHE_DIR_NAME
    observations = _stage(
        "load_snapshot",
        lambda: load_snapshot(config.store_path, selector, cache_dir=cache_dir),
    )
    index = _stage(
        "load_boundaries",
        lambda: load_boundaries(config.boundaries_path, cache_dir=cache_dir),
    )
    if not observations:
        raise StageError("summarize_systems", "snapshot contains no observations")
    summaries = _stage("summarize_systems", lambda: summarize_systems(observations))
    counts, count_diag = _stage(
        "count_by_tract", lambda: count_by_tract(observations, index)
    )
    retained = _stage("filter_zero_counties", lambda: filter_zero_counties(counts))
    demo_table = _stage(
        "read_demographics",
        lambda: read_demographics_csv(config.demographics_path, cache_dir=cache_dir),
    )
    joined, join_diag = _stage(
        "join_demographics", lambda: join_demographics(retained, demo_table)
    )
    if not joined:
        raise StageError("join_demographics", "no tracts matched the demographics table")
    scaled, scaling = _stage("scale_predictors", lambda: scale_predictors(joined))
    frame = _stage("build_model_frame", lambda: build_model_frame(scaled))
    fit = _stage("fit_poisson", lambda: fit_poisson(frame.design, frame.response))
    if not fit.converged:
        raise StageError("fit_poisson", f"did not converge after {fit.iterations} iterations")
    report = _stage("render_report", lambda: render_report(fit))

    manifest = {
        "snapshot_selector": config.snapshot_selector,
        "observations": len(observations),
        "unassigned_observations": count_diag.unassigned,
        "tracts_in_boundaries": len(counts),
        "tracts_retained": len(retained),
        "tracts_joined": len(joined),
        "demographics_unmatched": join_diag.unmatched,
        "scaling": {
            name: {"min": low, "max": high} for name, (low, high) in scaling.items()
        },
        "fit": {
            "converged": fit.converged,
            "iterations": fit.iterations,
            "deviance": fit.deviance,
        },
    }
    with _writing_outputs(out_dir):
        with open(out_dir / "table1.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write("docking_type,total_bikes,n_systems,q25,q50,q75\n")
            for summary in summaries:
                fh.write(
                    f"{summary.docking_type.value},{summary.total_bikes},"
                    f"{summary.n_systems},{summary.q25!r},{summary.q50!r},{summary.q75!r}\n"
                )
        with open(out_dir / "table2.csv", "w", encoding="utf-8", newline="") as fh:
            report_to_csv(report, fh)
        with open(out_dir / "run_manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(report_to_text(report))
    print(
        f"analyzed {len(observations)} observations over {len(joined)} tracts; "
        f"reports in {out_dir}"
    )
    return 0


class _Fixed2:
    """A float64 column as the text '%.2f' gives each of its values, to be
    written into byte columns of a text matrix.

    Each value is rounded to integer hundredths from the float64 product
    |v|*100, which lies within 6e-8 of the exact product while |v| < 1e7;
    where its fractional part is at least 1e-6 away from one half, the
    product rounds as the exact value does. The other values (a near-tie, a
    magnitude of 1e7 or more, a NaN or an infinity) take their whole text
    from Python's own '%.2f', so every value reads as '%.2f' writes it.
    """

    __slots__ = ("negative", "hundredths", "rows", "texts", "width")

    def __init__(self, values: np.ndarray):
        magnitude = np.abs(values)
        small = magnitude < 1e7  # False for a NaN
        # The large and non-finite values are zeroed first, so no cast below
        # meets one.
        scaled = np.where(small, magnitude, 0.0) * 100.0
        exact = small & (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6)
        self.negative = np.signbit(values)  # '-0.00' for -0.0 and tiny negatives
        self.hundredths = np.rint(scaled).astype(np.int32)  # at most 1e9
        self.rows = np.flatnonzero(~exact)
        self.texts = [("%.2f" % value).encode() for value in values[self.rows].tolist()]
        digits = len(str(self.hundredths.max(initial=0) // 100))
        # A sign slot, the integer digits, the point and two decimals.
        self.width = max([digits + 4, *map(len, self.texts)])

    def write(self, text: np.ndarray, keep: np.ndarray) -> None:
        """Fill text, a (rows, width) view of uint8 columns, right-aligned,
        and set keep, a view of bool columns as wide, to the bytes that
        belong: one sign slot on the left, digits, '.', two decimals."""
        hundredths = self.hundredths
        units = hundredths // 100
        text[:, 0] = ord("-")
        keep[:, 0] = self.negative
        keep[:, 1:-4] = False
        text[:, -4] = 48 + units % 10
        keep[:, -4:] = True
        column, power, top = -5, 10, int(units.max(initial=0))
        while power <= top:  # no leading zeros
            text[:, column] = 48 + units // power % 10
            keep[:, column] = units >= power
            column, power = column - 1, power * 10
        text[:, -3] = ord(".")
        text[:, -2] = 48 + hundredths // 10 % 10
        text[:, -1] = 48 + hundredths % 10
        for row, value_text in zip(self.rows.tolist(), self.texts):
            keep[row] = False
            keep[row, -len(value_text):] = True
            text[row, -len(value_text):] = np.frombuffer(value_text, np.uint8)


def _min_max(values: np.ndarray) -> tuple[float, float]:
    """min(values) and max(values) as Python's min and max find them: a NaN
    counts only as the first value."""
    if math.isnan(values[0]):
        return float(values[0]), float(values[0])
    return float(np.fmin.reduce(values)), float(np.fmax.reduce(values))


# Marker lines are written a block of rows at a time: a block's byte matrix,
# mask and compacted text stay about 250 kB each, however many observations
# there are. On harvest_fleet's 10.9k markers (CPython 3.11, numpy 2.4, a
# 2-vCPU x86-64 VM; medians of 100) a render took 3.35 ms at 1,024 rows a
# block, 2.70 ms at 4,096, 3.66 ms at 8,192 and 3.95 ms with one block for
# every row, whose matrix outgrows the CPU cache. Its traced peak was 1.47 MB
# at 4,096 rows or fewer (the document's own lines), against 2.29 MB with
# one block.
_MARKER_BLOCK = 1 << 12


def _marker_lines(is_docked: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One '<circle class="marker ..."/>' line per row, each ending in a
    newline, as ASCII bytes. Every line is written into the same (rows,
    width) byte matrix, column by column, with a mask of the bytes it keeps
    (a free class leaves two spare bytes, a number its unused digit and sign
    slots); the kept bytes, in row order, are the text. The matrix and the
    mask are freed on return, before the caller decodes the text."""
    x, y = _Fixed2(xs), _Fixed2(ys)
    lead, cx, cy = b'<circle class="marker ', b'" cx="', b'" cy="'
    # Every row starts as the template line: a free class, blank numbers.
    template = b"".join(
        [lead, b"free  ", cx, bytes(x.width), cy, bytes(y.width), b'" r="2.5"/>\n']
    )
    text = np.tile(np.frombuffer(template, np.uint8), (len(xs), 1))
    keep = np.ones(text.shape, bool)
    start = len(lead)
    text[is_docked, start:start + 6] = np.frombuffer(b"docked", np.uint8)
    keep[:, start + 4:start + 6] = is_docked[:, None]
    start += 6 + len(cx)
    x.write(text[:, start:start + x.width], keep[:, start:start + x.width])
    start += x.width + len(cy)
    y.write(text[:, start:start + y.width], keep[:, start:start + y.width])
    return text[keep]


def render_map_svg(observations: Observations, width: int = 800, height: int = 500) -> str:
    """Equirectangular scatter of observations as a standalone SVG document.

    Docked and free observations get distinct marker classes; a legend and a
    count caption are always drawn, and an empty snapshot still produces axes.
    The markers are formatted from the observations' columns, as whole
    columns; each coordinate reads as '%.2f' writes it.
    """
    kinds = observations.docking_type_runs
    lons = np.frombuffer(observations.lons)
    lats = np.frombuffer(observations.lats)
    margin = 40.0
    if observations:
        min_lon, max_lon = _min_max(lons)
        min_lat, max_lat = _min_max(lats)
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

    n_docked = sum(count for kind, count in kinds if kind == DockingType.DOCKED)
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
    if observations:
        is_docked = np.repeat(
            [kind == DockingType.DOCKED for kind, _ in kinds], [count for _, count in kinds]
        )
        # Over whole columns, x_of and y_of run the same float64 operations in
        # the same order, so they give the same values. Python's float
        # arithmetic reaches inf and nan silently, and so does this.
        with np.errstate(all="ignore"):
            xs, ys = x_of(lons), y_of(lats)
        for start in range(0, len(xs), _MARKER_BLOCK):
            rows = slice(start, start + _MARKER_BLOCK)
            # The block's lines less the last newline, which join puts back.
            lines.append(str(_marker_lines(is_docked[rows], xs[rows], ys[rows])[:-1], "ascii"))
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
            "",  # so that join ends the document in a newline
        ]
    )
    return "\n".join(lines)


# map.svg is encoded and written this many characters at a time: encoding the
# whole document at once would hold a second copy of it.
_MAP_WRITE_CHUNK = 1 << 16


def cmd_map(config: PipelineConfig) -> int:
    _require(config, "store_path")
    out_dir = Path(config.output_dir)
    with _writing_outputs(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    selector = parse_snapshot_selector(config.snapshot_selector)
    cache_dir = Path(config.store_path) / CACHE_DIR_NAME
    observations = _stage(
        "load_snapshot",
        lambda: load_snapshot(config.store_path, selector, cache_dir=cache_dir),
    )
    svg = render_map_svg(observations)
    path = out_dir / "map.svg"
    with _writing_outputs(out_dir):
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(svg), _MAP_WRITE_CHUNK):
                fh.write(svg[start:start + _MAP_WRITE_CHUNK])
    if not observations:
        print("warning: snapshot is empty; map has no markers", file=sys.stderr)
    print(f"wrote {path} with {len(observations)} markers")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bikeshare-equity",
        description="Harvest bikeshare feeds, geocode to census tracts, and fit "
        "the docked-vs-free count regression.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="list systems from the catalog CSV")
    harvest_cmd = sub.add_parser("harvest", help="fetch feeds and append a snapshot")
    analyze = sub.add_parser("analyze", help="run the tract aggregation and fit")
    map_cmd = sub.add_parser("map", help="render a snapshot scatter map as SVG")

    for command in (catalog, harvest_cmd):
        command.add_argument("--catalog", help="catalog CSV URL or path")
        command.add_argument("--country", help="ISO country code filter")
    for command in (harvest_cmd, analyze, map_cmd):
        command.add_argument("--store", help="snapshot store directory")
    harvest_cmd.add_argument(
        "--docked-mode",
        dest="docked_mode",
        choices=DOCKED_MODES,
        help="count docked supply as stations or as available bikes",
    )
    for command in (analyze, map_cmd):
        command.add_argument(
            "--snapshot", help="snapshot selector: latest, an id, or start..end"
        )
        command.add_argument("--out", help="output directory")
    analyze.add_argument("--boundaries", help="tract boundary GeoJSON path")
    analyze.add_argument("--demographics", help="demographics CSV path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "catalog": cmd_catalog,
        "harvest": cmd_harvest,
        "analyze": cmd_analyze,
        "map": cmd_map,
    }
    try:
        config = resolve_config(args)
        return commands[args.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BikeshareEquityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
