"""Output checks: every CLI invocation's outputs against the generator's truth.

Each check returns a list of problems; an empty list means the outputs are
correct. The checks read only the files and messages a user sees, except
the cold-pass checks, which also compare per-tract counts and the harvested
snapshot's rows with the ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

ANALYZE_OUTPUTS = ("table1.csv", "table2.csv", "run_manifest.json")
DESIGN_COLUMNS = (
    "intercept", "pct_college", "pct_poverty", "pct_nonwhite", "pop_density", "job_density",
    "docking_type", "pct_college_x_docking_type", "pct_poverty_x_docking_type",
    "pct_nonwhite_x_docking_type", "pop_density_x_docking_type", "job_density_x_docking_type",
)
# table2 rounds coefficients to 3 decimals; allow one unit of rounding either way.
COEFFICIENT_TOLERANCE = 0.0011
_SNAPSHOT_LINE = re.compile(r"^snapshot \d+: (\d+) observations", re.MULTILINE)
_DROPPED_LINE = re.compile(r"^warning: dropped (\d+) malformed entities$", re.MULTILINE)
_FAILURE_LINE = re.compile(r"^warning: (\S+) (\S+): ", re.MULTILINE)


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ANALYZE_OUTPUTS
    }


def check_harvest(stdout: str, stderr: str, expected: dict) -> list[str]:
    problems = []
    rows = _SNAPSHOT_LINE.search(stdout)
    if rows is None or int(rows.group(1)) != expected["rows"]:
        problems.append(f"harvest rows {rows and rows.group(1)} != {expected['rows']}")
    dropped = _DROPPED_LINE.search(stderr)
    if int(dropped.group(1) if dropped else 0) != expected["dropped"]:
        problems.append(f"dropped {dropped and dropped.group(1)} != {expected['dropped']}")
    failures = sorted([m.group(1), m.group(2)] for m in _FAILURE_LINE.finditer(stderr))
    if failures != expected["failures"]:
        problems.append(f"feed failures {failures} != {expected['failures']}")
    return problems


def check_snapshot_rows(observations, expected_rows) -> list[str]:
    got = sorted(
        (o.system_id, o.entity_id, o.docking_type.value, o.lon, o.lat) for o in observations
    )
    want = sorted(tuple(row[:5]) for row in expected_rows)
    return [] if got == want else [f"harvested snapshot rows differ ({len(got)} vs {len(want)})"]


def check_map(out_dir: Path, expected_markers: int) -> list[str]:
    markers = (out_dir / "map.svg").read_text(encoding="utf-8").count('<circle class="marker ')
    return [] if markers == expected_markers else [f"map markers {markers} != {expected_markers}"]


def check_counts(counts, diagnostics, truth: dict) -> list[str]:
    """Per-tract counts from count_by_tract against the ground truth."""
    got = {c.tract_geoid: [c.count_docked, c.count_free] for c in counts}
    problems = []
    if got != truth["counts"]:
        wrong = sorted(g for g in set(got) | set(truth["counts"]) if got.get(g) != truth["counts"].get(g))
        problems.append(f"per-tract counts differ in {len(wrong)} tracts, e.g. {wrong[:3]}")
    if diagnostics.unassigned != truth["manifest"]["unassigned_observations"]:
        problems.append(f"unassigned {diagnostics.unassigned} != {truth['manifest']['unassigned_observations']}")
    return problems


def check_analyze(out_dir: Path, truth: dict) -> list[str]:
    """table1 exactly, run_manifest tallies and bounds, table2 against a Newton fit."""
    problems = []
    table1 = (out_dir / "table1.csv").read_text(encoding="utf-8")
    if table1 != truth["table1"]:
        problems.append("table1.csv differs from the expected system summary")
    manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    for key, value in truth["manifest"].items():
        if manifest.get(key) != value:
            problems.append(f"run_manifest {key}: {manifest.get(key)!r} != {value!r}")
    if not manifest.get("fit", {}).get("converged"):
        problems.append("fit did not converge")
    lines = (out_dir / "table2.csv").read_text(encoding="utf-8").splitlines()[1:]
    names = tuple(line.split(",")[0] for line in lines)
    if names != DESIGN_COLUMNS:
        return problems + [f"table2 rows {names}"]
    reference = newton_fit(truth["frame"])
    for line, want in zip(lines, reference):
        got = float(line.split(",")[1])
        if not abs(got - want) <= COEFFICIENT_TOLERANCE:
            problems.append(f"table2 {line.split(',')[0]} {got} vs Newton {want:.6f}")
    return problems


def newton_fit(frame) -> list[float]:
    """Poisson MLE by plain Newton steps on the expected model frame.

    frame rows: [geoid, five raw predictors, docked count, free count] for
    the joined tracts; predictors are min-max scaled over those rows and each
    tract gives a free row then a docked row, as the CLI's design does.
    """
    raw = np.array([row[1:6] for row in frame], dtype=float)
    scaled = (raw - raw.min(axis=0)) / (raw.max(axis=0) - raw.min(axis=0))
    rows, y = [], []
    for x, row in zip(scaled, frame):
        for indicator, count in ((0.0, row[7]), (1.0, row[6])):
            rows.append([1.0, *x, indicator, *(x * indicator)])
            y.append(count)
    X, y = np.array(rows), np.array(y, dtype=float)
    beta = np.zeros(X.shape[1])
    beta[0] = math.log(y.mean() + 0.1)
    for _ in range(100):
        mu = np.exp(X @ beta)
        step = np.linalg.solve(X.T @ (X * mu[:, None]), X.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-12:
            break
    return [float(b) for b in beta]
