"""The benchmark's own tests, on the small size of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import run
import workloads
from bikeshare_equity.geo import load_boundaries, point_in_polygon

ROOT = Path(__file__).resolve().parent.parent


def exhaustive_tract(index, lon, lat):
    """Smallest GEOID among all polygons containing the point, without the grid."""
    matches = [poly.tract_geoid for poly in index.polygons if point_in_polygon(lat, lon, poly)]
    return min(matches) if matches else None


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_ground_truth_agrees_with_exhaustive_scan(name, tmp_path):
    truth = workloads.generate(name, "small", 3, tmp_path)
    index = load_boundaries(truth["boundaries"])
    for _, _, _, lon, lat, geoid in truth["harvest_observations"]:
        assert exhaustive_tract(index, lon, lat) == geoid

    # Every boundary point, and a wider sample than one fleet draws.
    model = workloads.build_city(workloads.workload(name, "small").city, random.Random(f"{name}:small:3"))
    points = model.boundary_points + workloads.sample_points(
        model, 2000, [1.0] * len(model.tracts), random.Random(5)
    )
    for lon, lat, geoid in points:
        assert exhaustive_tract(index, lon, lat) == geoid
    geometries = [f["geometry"] for f in json.loads(Path(truth["boundaries"]).read_text())["features"]]
    assert {g["type"] for g in geometries} == {"Polygon", "MultiPolygon"}
    assert any(g["type"] == "Polygon" and len(g["coordinates"]) > 1 for g in geometries)  # a hole


def test_inputs_depend_only_on_seed(tmp_path):
    first = workloads.generate("analyze_range_squares", "small", 8, tmp_path / "a")
    second = workloads.generate("analyze_range_squares", "small", 8, tmp_path / "b")
    other = workloads.generate("analyze_range_squares", "small", 9, tmp_path / "c")
    assert first["analyze"] == second["analyze"]
    assert first["analyze"] != other["analyze"]
    for name in ("boundaries.geojson", "demographics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_checks_reject_wrong_outputs(tmp_path):
    expected = {"rows": 10, "dropped": 2,
                "failures": [[workloads.BROKEN_DOCKED, "station_information"]]}
    stdout = "snapshot 1: 10 observations from 3 systems at 1\n"
    stderr = (f"warning: {workloads.BROKEN_DOCKED} station_information: cannot read\n"
              "warning: dropped 2 malformed entities\n")
    assert checks.check_harvest(stdout, stderr, expected) == []
    assert checks.check_harvest(stdout.replace("10", "9"), stderr, expected)
    assert checks.check_harvest(stdout, stderr.replace("dropped 2", "dropped 1"), expected)
    assert checks.check_harvest(stdout, stderr.splitlines()[1], expected)
    (tmp_path / "map.svg").write_text('<circle class="marker free" cx="1"/>\n')
    assert checks.check_map(tmp_path, 1) == []
    assert checks.check_map(tmp_path, 2)


def test_benchmark_json_names_known_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_small_run_is_correct(name, trace, capsys):
    assert run.main(["--workload", name, "--size", "small", "--seed", "2",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    expected = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
