import dataclasses
import json
import operator
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bikeshare_equity import cli, gbfs_client
from bikeshare_equity.cli import (
    PipelineConfig,
    UsageError,
    main,
    parse_snapshot_selector,
    render_map_svg,
)
from bikeshare_equity.snapshot_store import DockingType, append_snapshot, load_snapshot
from helpers import build_synthetic_city, make_system, observation, observations_of, write_catalog


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


def test_harvest_of_ids_holding_line_breaks_and_quotes_reads_back(tmp_path, capsys):
    # A bare "\r" in a snapshot field splits its row in two on reading, so a
    # harvested "b\r1" must be written quoted for map and analyze to load it.
    ids = ["b\r1", "b\n2", 'b"3', "b,4", "b\r\n5", "b6"]
    system = make_system(
        tmp_path,
        "sys",
        bikes=[
            {"bike_id": bike_id, "lat": 40.0 + i / 10, "lon": -100.0}
            for i, bike_id in enumerate(ids)
        ],
    )
    catalog = write_catalog(tmp_path / "catalog.csv", [system])
    store = tmp_path / "store"
    assert main(["harvest", "--catalog", str(catalog), "--store", str(store)]) == 0
    assert [obs.entity_id for obs in load_snapshot(store)] == ids
    capsys.readouterr()
    rc = main(["map", "--store", str(store), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert f"with {len(ids)} markers" in captured.out


@pytest.mark.parametrize("bad_id", ["\ud800", "x" * 140_000, "b\x001"],
                         ids=["a lone surrogate", "140,000 characters", "NUL"])
def test_harvest_drops_an_id_no_snapshot_can_hold(tmp_path, capsys, bad_id):
    bikes = [{"bike_id": bad_id, "lat": 40.0, "lon": -100.0},
             {"bike_id": "ok", "lat": 40.1, "lon": -100.1}]
    systems = [make_system(tmp_path / "odd", "odd_city", bikes=bikes),
               make_system(tmp_path / "good", "good_city", stations=[
                   {"station_id": "s1", "lat": 45.0, "lon": -122.0}])]
    catalog = write_catalog(tmp_path / "catalog.csv", systems)
    store = tmp_path / "store"
    assert main(["harvest", "--catalog", str(catalog), "--store", str(store)]) == 0
    captured = capsys.readouterr()
    assert "snapshot 1: 2 observations from 2 systems" in captured.out
    assert "warning: dropped 1 malformed entities" in captured.err
    for _ in ("miss", "hit"):
        loaded = load_snapshot(store, cache_dir=store / "cache")
        assert [(o.system_id, o.entity_id) for o in loaded] == [
            ("good_city", "s1"), ("odd_city", "ok")]
        assert main(["map", "--store", str(store), "--out", str(tmp_path / "out")]) == 0
        assert "with 2 markers" in capsys.readouterr().out


ID_CHARS = st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),  # lone surrogates
    st.sampled_from(["\x00", "\r", "\n", '"', ",", "\ufeff"]),
)
BOUND = gbfs_client.MAX_ENTITY_ID_LENGTH
IDS = st.one_of(
    st.text(ID_CHARS, max_size=8),
    st.builds(operator.mul, ID_CHARS, st.integers(BOUND - 1, BOUND + 1)),
    st.builds(operator.mul, ID_CHARS, st.integers(1, 200_000)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(IDS, min_size=1, max_size=5))
@example(ids=["\ud800\udc00"])  # kept, as U+10000
@example(ids=["\udc00\ud800"])  # dropped: two lone surrogates
def test_every_id_a_harvest_keeps_reads_back(ids):
    """Ids drawn from all JSON strings: harvest exits 0, and the snapshot it
    stores reads back exactly the ids that harvest() keeps, in order, on a
    cache miss and a hit; map draws them all. The feed carries each id as
    json.dumps writes it, so a surrogate pair, written as two escapes, is
    read as the one character they encode."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        system = make_system(root, "sys", bikes=[
            {"bike_id": bike_id, "lat": 40.0, "lon": -100.0 + k / 10} for k, bike_id in enumerate(ids)
        ])
        kept = list(gbfs_client.harvest([system])[0].entity_ids)
        read = [json.loads(json.dumps(bike_id)) for bike_id in ids]
        assert kept == [bike_id for bike_id in read if bike_id and len(bike_id) <= BOUND
                        and "\x00" not in bike_id and not any(0xD800 <= ord(c) < 0xE000 for c in bike_id)]
        store = root / "store"
        catalog = write_catalog(root / "catalog.csv", [system])
        assert main(["harvest", "--catalog", str(catalog), "--store", str(store)]) == 0
        for _ in ("miss", "hit"):
            assert load_snapshot(store, cache_dir=store / "cache").entity_ids == kept
            assert main(["map", "--store", str(store), "--out", str(root / "out")]) == 0
            svg = (root / "out" / "map.svg").read_text(encoding="utf-8")
            assert svg.count('<circle class="marker ') == len(kept)


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


def test_harvest_command_survives_unexpected_parser_exception(tmp_path, capsys, monkeypatch):
    good = make_system(
        tmp_path, "good_city", stations=[{"station_id": "s1", "lat": 45.0, "lon": -122.0}]
    )
    broken = make_system(
        tmp_path, "broken_city", bikes=[{"bike_id": "b1", "lat": 40.0, "lon": -100.0}]
    )
    # The harvest decodes every entity feed through gbfs_client._entity_rows.
    parse = gbfs_client._entity_rows

    def parse_or_fail(raw, system_id, feed):
        if system_id == "broken_city":
            raise RuntimeError("parser defect")
        return parse(raw, system_id, feed)

    monkeypatch.setattr(gbfs_client, "_entity_rows", parse_or_fail)
    catalog = write_catalog(tmp_path / "catalog.csv", [good, broken])
    store = tmp_path / "store"
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(store)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "warning: broken_city harvest: RuntimeError: parser defect" in captured.err
    assert [(o.system_id, o.entity_id) for o in load_snapshot(store)] == [("good_city", "s1")]


def analyze_argv(city, out_dir, boundaries=None):
    return [
        "analyze",
        "--store",
        str(city["store"]),
        "--boundaries",
        str(boundaries or city["boundaries"]),
        "--demographics",
        str(city["demographics"]),
        "--out",
        str(out_dir),
    ]


def test_harvest_of_local_catalog_starts_no_thread(tmp_path, monkeypatch, capsys):
    """A file:// harvest reads its systems on the calling thread: a pool
    would add nothing but contention for the interpreter lock."""
    entries = [
        make_system(
            tmp_path / f"s{i}",
            f"city{i}",
            stations=[{"station_id": "s1", "lat": 45.0, "lon": -122.0}],
            bikes=[{"bike_id": "b1", "lat": 45.1, "lon": -122.1}],
        )
        for i in range(4)
    ]
    catalog = write_catalog(tmp_path / "catalog.csv", entries)
    started = []
    start = threading.Thread.start

    def record_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    threads_before = threading.active_count()
    rc = main(["harvest", "--catalog", str(catalog), "--store", str(tmp_path / "store")])
    assert rc == 0, capsys.readouterr().err
    assert started == []
    assert threading.active_count() == threads_before
    assert len(load_snapshot(tmp_path / "store")) == 8


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"type": "FeatureCollection", "features": [\xff]}',
         "boundary file is not UTF-8 text at byte 43"),
        (b'{"type": "FeatureCollection", "features": [' + b"1" * 5000 + b"]}",
         "boundary file is not valid JSON: Exceeds the limit"),
    ],
    ids=["not UTF-8", "integer over the digit limit"],
)
def test_undecodable_boundary_file_fails_stage(tmp_path, capsys, content, message):
    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    boundaries = tmp_path / "bad.geojson"
    boundaries.write_bytes(content)
    rc = main(analyze_argv(city, tmp_path / "out", boundaries))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: stage load_boundaries: {message}"), err


def test_analyze_malformed_boundary_feature_fails_stage(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    doc = json.loads(city["boundaries"].read_text())
    doc["features"][3]["geometry"]["coordinates"][0][2][1] = None
    boundaries = tmp_path / "bad.geojson"
    boundaries.write_text(json.dumps(doc))
    rc = main(analyze_argv(city, tmp_path / "out", boundaries))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: stage load_boundaries: feature 3: ")
    assert "null" in err


def test_analyze_multipolygon_without_polygons_fails_stage(tmp_path, capsys):
    """A MultiPolygon with null coordinates used to load as no polygons, so its
    tract and its bikes vanished without a word."""
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    doc = json.loads(city["boundaries"].read_text())
    doc["features"][3]["geometry"] = {"type": "MultiPolygon", "coordinates": None}
    boundaries = tmp_path / "bad.geojson"
    boundaries.write_text(json.dumps(doc))
    rc = main(analyze_argv(city, tmp_path / "out", boundaries))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: stage load_boundaries: feature 3: MultiPolygon")


def test_analyze_non_converged_fit_fails_stage(tmp_path, capsys, monkeypatch):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    fit = cli.fit_poisson
    monkeypatch.setattr(
        cli,
        "fit_poisson",
        lambda design, response: dataclasses.replace(
            fit(design, response), converged=False, iterations=25
        ),
    )
    out_dir = tmp_path / "out"
    rc = main(analyze_argv(city, out_dir))
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: stage fit_poisson: did not converge after 25 iterations" in err
    assert not (out_dir / "table2.csv").exists()


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


def break_manifest(manifest, case):
    if case == "not UTF-8":
        manifest.write_bytes(b"1,1700000000,4,snapshot_000001.csv\xff\n")
    else:
        manifest.unlink()
        manifest.mkdir()


@pytest.mark.parametrize("case", ["not UTF-8", "a directory"])
@pytest.mark.parametrize("command", ["analyze", "map"])
def test_unreadable_manifest_fails_stage_load_snapshot(tmp_path, capsys, command, case):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    manifest = city["store"] / "manifest.csv"
    break_manifest(manifest, case)
    if command == "analyze":
        argv = analyze_argv(city, tmp_path / "out")
    else:
        argv = ["map", "--store", str(city["store"]), "--out", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: stage load_snapshot: cannot read manifest {manifest}: "), err


@pytest.mark.parametrize("case", ["not UTF-8", "a directory"])
def test_unreadable_manifest_fails_harvest(tmp_path, capsys, two_system_catalog, case):
    store = tmp_path / "store"
    assert main(["harvest", "--catalog", str(two_system_catalog), "--store", str(store)]) == 0
    capsys.readouterr()
    break_manifest(store / "manifest.csv", case)
    rc = main(["harvest", "--catalog", str(two_system_catalog), "--store", str(store)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: cannot read manifest {store / 'manifest.csv'}: "), err


@pytest.mark.parametrize("case", ["an existing file", "under a file"])
@pytest.mark.parametrize("command", ["analyze", "map"])
def test_unusable_out_dir_fails_before_loading(tmp_path, capsys, monkeypatch, command, case):
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out_dir = blocker if case == "an existing file" else blocker / "out"

    def no_load(*args):
        raise AssertionError("loaded a snapshot before creating the output directory")

    monkeypatch.setattr(cli, "load_snapshot", no_load)
    if command == "analyze":
        argv = analyze_argv(city, out_dir)
    else:
        argv = ["map", "--store", str(city["store"]), "--out", str(out_dir)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: cannot write outputs to {out_dir}: "), err


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


@pytest.mark.parametrize("command", ["catalog", "harvest", "analyze", "map"])
def test_config_file_value_with_nul_byte_is_a_usage_error(tmp_path, capsys, command):
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        f"catalog={tmp_path}/x\x00y.csv\nstore={tmp_path}/store\n"
        f"boundaries={tmp_path}/b\x00.geojson\ndemographics={tmp_path}/d.csv\n"
    )
    # Every command refuses the file, whichever keys it reads.
    assert main(["--config", str(config_path), command]) == 2
    assert capsys.readouterr().err == "error: catalog holds a NUL byte\n"


@pytest.mark.parametrize("name, content", [("run\x00.conf", b"catalog=c.csv\n"),
                                           ("run.conf", b"catalog=\xff.csv\n")])
def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys, name, content):
    (tmp_path / "run.conf").write_bytes(content)
    assert main(["--config", str(tmp_path / name), "catalog"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["catalog", "--catalog", "x\x00y.csv"], "catalog"),
        (["harvest", "--catalog", "c.csv", "--store", "st\x00re"], "store"),
        (["analyze", "--store", "s", "--boundaries", "b.geojson",
          "--demographics", "d\x00.csv"], "demographics"),
        (["map", "--store", "s", "--out", "o\x00ut"], "out"),
    ],
)
def test_flag_value_with_nul_byte_is_a_usage_error(capsys, argv, key):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {key} holds a NUL byte\n"


def test_map_command(tmp_path, capsys):
    store = tmp_path / "store"
    observations = [
        observation("sys", "d1", 45.0, -122.0, DockingType.DOCKED),
        observation("sys", "d2", 45.1, -122.1, DockingType.DOCKED),
        observation("sys", "f1", 45.2, -122.2, DockingType.FREE),
        observation("sys", "f2", 45.3, -122.3, DockingType.FREE),
        observation("sys", "f3", 45.4, -122.4, DockingType.FREE),
    ]
    append_snapshot(observations_of(observations), store)
    out_dir = tmp_path / "out"
    rc = main(["map", "--store", str(store), "--out", str(out_dir)])
    assert rc == 0, capsys.readouterr().err
    svg = (out_dir / "map.svg").read_text()
    assert svg.count('class="marker') == 5
    assert svg.count('class="marker docked"') == 2
    assert svg.count('class="marker free"') == 3


def test_map_command_empty_snapshot(tmp_path, capsys):
    store = tmp_path / "store"
    append_snapshot(observations_of([]), store, clock=lambda: 5)
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
    svg = render_map_svg(observations_of(observations))
    assert "docked (1)" in svg
    assert "free (1)" in svg
    assert "2 observations (1 docked, 1 free)" in svg


def test_pipeline_config_defaults():
    config = PipelineConfig()
    assert config.docked_count_mode == "stations"
    assert config.snapshot_selector == "latest"


IMPORT_PROBE = """
import sys
import bikeshare_equity.cli as cli
def loaded():
    return [name for name in ("scipy", "requests", "hashlib") if name in sys.modules]
print("after import:", loaded())
for argv in sys.argv[1:]:
    assert cli.main(argv.split("|")) == 0, argv
    print("after", argv.split("|")[0] + ":", loaded())
"""


def test_cli_import_harvest_and_map_load_neither_scipy_nor_requests(tmp_path):
    """SciPy (a test-only dependency) is never imported by the package, and
    requests (only http fetches) and hashlib (only the store's caches, which
    map and analyze read) are imported where they are used, so the CLI's
    start-up and a file:// harvest never pay for them, and neither map nor
    analyze loads SciPy or requests. A module-level import of any of them,
    or an import of SciPy on analyze's first call, fails this."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bikeshare_equity

    system = make_system(
        tmp_path, "city", stations=[{"station_id": "s1", "lat": 45.0, "lon": -122.0}]
    )
    catalog = write_catalog(tmp_path / "catalog.csv", [system])
    store = tmp_path / "store"
    city = build_synthetic_city(tmp_path / "city", n_cols=5, n_rows=4)
    commands = [
        f"harvest|--catalog|{catalog}|--store|{store}",
        f"map|--store|{store}|--out|{tmp_path / 'out'}",
        f"analyze|--store|{city['store']}|--boundaries|{city['boundaries']}"
        f"|--demographics|{city['demographics']}|--out|{tmp_path / 'analysis'}",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(bikeshare_equity.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *commands],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stdout.splitlines() if line.startswith("after ")] == [
        "after import: []",
        "after harvest: []",
        "after map: ['hashlib']",
        "after analyze: ['hashlib']",
    ]
