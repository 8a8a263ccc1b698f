import pytest

from bikeshare_equity.cli import (
    PipelineConfig,
    UsageError,
    main,
    parse_snapshot_selector,
    render_map_svg,
)
from bikeshare_equity.gbfs_client import DockingType
from bikeshare_equity.snapshot_store import append_snapshot, load_snapshot
from helpers import build_synthetic_city, make_system, observation, write_catalog


@pytest.fixture
def two_system_catalog(tmp_path):
    a = make_system(
        tmp_path / "a",
        "a_city",
        stations=[
            {"station_id": "s1", "lat": 45.0, "lon": -122.0},
            {"station_id": "s2", "lat": 45.1, "lon": -122.1},
            {"station_id": "s3", "lat": 45.2, "lon": -122.2},
        ],
    )
    b = make_system(
        tmp_path / "b",
        "b_city",
        bikes=[
            {"bike_id": "b1", "lat": 40.0, "lon": -100.0},
            {"bike_id": "b2", "lat": 40.1, "lon": -100.1},
        ],
    )
    return write_catalog(tmp_path / "catalog.csv", [a, b])


def test_selector_parsing():
    assert parse_snapshot_selector("latest") == "latest"
    assert parse_snapshot_selector("3") == 3
    assert parse_snapshot_selector("100..200") == (100, 200)
    with pytest.raises(UsageError):
        parse_snapshot_selector("yesterday")
    with pytest.raises(UsageError):
        parse_snapshot_selector("a..b")


def test_catalog_command(two_system_catalog, capsys):
    rc = main(["catalog", "--catalog", str(two_system_catalog), "--country", "US"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 systems" in out
    assert "a_city" in out and "b_city" in out


def test_catalog_command_no_filter(two_system_catalog, capsys):
    rc = main(["catalog", "--catalog", str(two_system_catalog)])
    assert rc == 0
    assert "2 systems" in capsys.readouterr().out


def test_catalog_command_unreachable(tmp_path, capsys):
    rc = main(["catalog", "--catalog", str(tmp_path / "absent.csv")])
    err = capsys.readouterr().err
    assert rc != 0
    assert "error" in err


def test_catalog_command_requires_flag(capsys):
    rc = main(["catalog"])
    assert rc == 2
    assert "--catalog" in capsys.readouterr().err


def test_harvest_command(two_system_catalog, tmp_path, capsys):
    store = tmp_path / "store"
    rc = main(
        ["harvest", "--catalog", str(two_system_catalog), "--store", str(store)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "5 observations" in out
    assert (store / "manifest.csv").exists()


def test_harvest_command_partial_failure(tmp_path, capsys):
    healthy = make_system(
        tmp_path / "ok",
        "ok_city",
        stations=[{"station_id": "s", "lat": 45.0, "lon": -122.0}],
    )
    broken = make_system(
        tmp_path / "broken",
        "broken_city",
        station_feed_url=(tmp_path / "missing.json").as_uri(),
    )
    catalog = write_catalog(tmp_path / "catalog.csv", [healthy, broken])
    store = tmp_path / "store"
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(store)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "1 observations" in captured.out
    assert "warning" in captured.err
    assert "broken_city" in captured.err


def test_harvest_command_survives_bad_last_updated(tmp_path, capsys):
    good = make_system(
        tmp_path, "good_city", stations=[{"station_id": "s1", "lat": 45.0, "lon": -122.0}]
    )
    bad = make_system(
        tmp_path, "bad_city", bikes=[{"bike_id": "b1", "lat": 40.0, "lon": -100.0}]
    )
    discovery = tmp_path / "bad_city_gbfs.json"
    discovery.write_text(discovery.read_text().replace("1700000000", '"yesterday"', 1))
    catalog = write_catalog(tmp_path / "catalog.csv", [good, bad])
    store = tmp_path / "store"
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(store)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "warning: bad_city gbfs" in captured.err
    assert [(o.system_id, o.entity_id) for o in load_snapshot(store)] == [("good_city", "s1")]


def test_harvest_command_empty_catalog(tmp_path, capsys):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("system_id,country_code,name,auto_discovery_url\n")
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(tmp_path / "s")])
    assert rc == 2
    assert "no systems" in capsys.readouterr().err


def test_harvest_command_all_systems_failed(tmp_path, capsys):
    broken = make_system(
        tmp_path / "broken",
        "broken_city",
        station_feed_url=(tmp_path / "missing.json").as_uri(),
    )
    catalog = write_catalog(tmp_path / "catalog.csv", [broken])
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(tmp_path / "s")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "stage harvest" in captured.err


def test_analyze_end_to_end(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "analyze",
            "--store",
            str(city["store"]),
            "--boundaries",
            str(city["boundaries"]),
            "--demographics",
            str(city["demographics"]),
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0, capsys.readouterr().err
    table2 = (out_dir / "table2.csv").read_text().splitlines()
    assert table2[0] == "predictor,coefficient,exp_coefficient,p_value,stars"
    assert len(table2) == 13
    assert (out_dir / "table1.csv").exists()
    assert (out_dir / "run_manifest.json").exists()


def test_analyze_deterministic_outputs(tmp_path):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        rc = main(
            [
                "analyze",
                "--store",
                str(city["store"]),
                "--boundaries",
                str(city["boundaries"]),
                "--demographics",
                str(city["demographics"]),
                "--out",
                str(out_dir),
            ]
        )
        assert rc == 0
        outputs.append(
            {
                file: (out_dir / file).read_bytes()
                for file in ("table1.csv", "table2.csv", "run_manifest.json")
            }
        )
    assert outputs[0] == outputs[1]


def test_analyze_recovers_generating_coefficients(tmp_path):
    import numpy as np

    from bikeshare_equity.geo import load_boundaries
    from bikeshare_equity.join_aggregate import (
        build_model_frame,
        count_by_tract,
        filter_zero_counties,
        join_demographics,
        read_demographics_csv,
        scale_predictors,
    )
    from bikeshare_equity.poisson_glm import fit_poisson
    from bikeshare_equity.snapshot_store import load_snapshot

    city = build_synthetic_city(tmp_path / "city")
    observations = load_snapshot(city["store"], "latest")
    index = load_boundaries(city["boundaries"])
    counts, _ = count_by_tract(observations, index)
    retained = filter_zero_counties(counts)
    records, _ = join_demographics(retained, read_demographics_csv(city["demographics"]))
    records, _ = scale_predictors(records)
    frame = build_model_frame(records)
    fit = fit_poisson(frame.design, frame.response)
    assert fit.converged
    gaps = np.abs(fit.coefficients - city["beta"]) / fit.standard_errors
    assert (gaps < 3.0).all(), gaps


def test_harvest_command_docked_mode(tmp_path, capsys):
    entry = make_system(
        tmp_path / "sys",
        "sys",
        stations=[
            {"station_id": "a", "lat": 45.0, "lon": -122.0},
            {"station_id": "b", "lat": 45.1, "lon": -122.1},
        ],
        status={"a": 3, "b": 1},
    )
    catalog = write_catalog(tmp_path / "catalog.csv", [entry])
    store = tmp_path / "store"
    rc = main(
        [
            "harvest",
            "--catalog", str(catalog),
            "--store", str(store),
            "--docked-mode", "available_bikes",
        ]
    )
    assert rc == 0
    assert "4 observations" in capsys.readouterr().out


def test_analyze_stage_error_names_stage(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    foreign = tmp_path / "foreign.csv"
    foreign.write_text(
        "tract_geoid,pct_college,pct_poverty,pct_nonwhite,pop_density,job_density\n"
        "99999000001,0.5,0.5,0.5,1.0,1.0\n"
    )
    rc = main(
        [
            "analyze",
            "--store",
            str(city["store"]),
            "--boundaries",
            str(city["boundaries"]),
            "--demographics",
            str(foreign),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "stage join_demographics" in err


@pytest.mark.parametrize("command", ["analyze", "map"])
def test_bad_snapshot_field_fails_stage_load_snapshot(tmp_path, capsys, command):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    snapshot = city["store"] / "snapshot_000001.csv"
    lines = snapshot.read_text().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[2] = "notanumber"
    lines[3] = ",".join(fields)
    snapshot.write_text("".join(lines))
    argv = [command, "--store", str(city["store"]), "--out", str(tmp_path / "out")]
    if command == "analyze":
        argv += ["--boundaries", str(city["boundaries"])]
        argv += ["--demographics", str(city["demographics"])]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: stage load_snapshot: " in err
    assert "row 3" in err and "notanumber" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "# analysis inputs\n"
        f"store={city['store']}\n"
        f"boundaries={city['boundaries']}\n"
        f"demographics={city['demographics']}\n"
        f"out={tmp_path / 'from_config'}\n"
    )
    override = tmp_path / "from_flag"
    rc = main(
        ["--config", str(config_path), "analyze", "--out", str(override)]
    )
    assert rc == 0, capsys.readouterr().err
    assert (override / "table2.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_config_file_bad_key(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("flavor=mint\n")
    rc = main(["--config", str(config_path), "catalog"])
    assert rc == 2
    assert "flavor" in capsys.readouterr().err


def test_map_command(tmp_path, capsys):
    store = tmp_path / "store"
    observations = [
        observation("sys", "d1", 45.0, -122.0, DockingType.DOCKED),
        observation("sys", "d2", 45.1, -122.1, DockingType.DOCKED),
        observation("sys", "f1", 45.2, -122.2, DockingType.FREE),
        observation("sys", "f2", 45.3, -122.3, DockingType.FREE),
        observation("sys", "f3", 45.4, -122.4, DockingType.FREE),
    ]
    append_snapshot(observations, store)
    out_dir = tmp_path / "out"
    rc = main(["map", "--store", str(store), "--out", str(out_dir)])
    assert rc == 0, capsys.readouterr().err
    svg = (out_dir / "map.svg").read_text()
    assert svg.count('class="marker') == 5
    assert svg.count('class="marker docked"') == 2
    assert svg.count('class="marker free"') == 3


def test_map_command_empty_snapshot(tmp_path, capsys):
    store = tmp_path / "store"
    append_snapshot([], store, clock=lambda: 5)
    out_dir = tmp_path / "out"
    rc = main(["map", "--store", str(store), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err
    svg = (out_dir / "map.svg").read_text()
    assert svg.count('class="marker') == 0
    assert '<line class="axis"' in svg


def test_render_map_svg_has_legend_and_caption():
    observations = [
        observation("sys", "d", 45.0, -122.0, DockingType.DOCKED),
        observation("sys", "f", 45.2, -122.2, DockingType.FREE),
    ]
    svg = render_map_svg(observations)
    assert "docked (1)" in svg
    assert "free (1)" in svg
    assert "2 observations (1 docked, 1 free)" in svg


def test_pipeline_config_defaults():
    config = PipelineConfig()
    assert config.docked_count_mode == "stations"
    assert config.snapshot_selector == "latest"
