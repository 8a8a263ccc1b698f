import dataclasses
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bikeshare_equity import gbfs_client
from bikeshare_equity.errors import ParseError, SchemaError, TransportError
from bikeshare_equity.gbfs_client import (
    OBSERVATION_COLUMNS,
    BikeObservation,
    DockingType,
    SystemEntry,
    _BIKES,
    _STATIONS,
    _entity_rows,
    discover_feeds,
    fetch_system_catalog,
    harvest,
    parse_station_status,
    read_observations_csv,
    write_observations_csv,
)
from helpers import bike_doc, make_system, station_doc, write_json

import io


def entry_for(url, system_id="sys"):
    return SystemEntry(system_id, "Sys", "US", url)


# ---------------------------------------------------------------------------
# fetch_system_catalog
# ---------------------------------------------------------------------------

def test_catalog_country_filter(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "system_id,country_code,name,auto_discovery_url\n"
        "c_city,CA,North Bikes,https://example.com/ca/gbfs.json\n"
        "a_city,US,A Bikes,https://example.com/a/gbfs.json\n"
        "b_city,US,B Bikes,https://example.com/b/gbfs.json\n"
    )
    entries = fetch_system_catalog(path, "US")
    assert [e.system_id for e in entries] == ["a_city", "b_city"]
    assert all(e.country_code == "US" for e in entries)


def test_catalog_no_filter_returns_all_sorted(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "system_id,country_code,name,auto_discovery_url\n"
        "zeta,US,Z,https://example.com/z.json\n"
        "alpha,DE,A,https://example.com/a.json\n"
    )
    entries = fetch_system_catalog(path)
    assert [e.system_id for e in entries] == ["alpha", "zeta"]


def test_catalog_empty_body(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("system_id,country_code,name,auto_discovery_url\n")
    assert fetch_system_catalog(path, "US") == []


def test_catalog_duplicate_system_id(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "system_id,country_code,name,auto_discovery_url\n"
        "twin,US,One,https://example.com/1.json\n"
        "twin,US,Two,https://example.com/2.json\n"
    )
    with pytest.raises(SchemaError, match="twin"):
        fetch_system_catalog(path)


def test_catalog_missing_column_named(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("system_id,name\nx,Thing\n")
    with pytest.raises(SchemaError, match="auto_discovery_url"):
        fetch_system_catalog(path)


def test_catalog_unreachable(tmp_path):
    with pytest.raises(TransportError):
        fetch_system_catalog(tmp_path / "nope.csv")


def test_catalog_invalid_discovery_url(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "system_id,country_code,name,auto_discovery_url\nx,US,Thing,not a url\n"
    )
    with pytest.raises(SchemaError, match="auto_discovery_url"):
        fetch_system_catalog(path)


# ---------------------------------------------------------------------------
# discover_feeds
# ---------------------------------------------------------------------------

def test_discover_feeds_language_layer(tmp_path):
    url = write_json(
        tmp_path / "gbfs.json",
        {
            "last_updated": 1700000000,
            "ttl": 30,
            "data": {
                "en": {
                    "feeds": [
                        {"name": "station_information", "url": "https://x/si.json"},
                        {"name": "free_bike_status", "url": "https://x/fbs.json"},
                    ]
                }
            },
        },
    )
    manifest = discover_feeds(entry_for(url))
    assert set(manifest.feeds) == {"station_information", "free_bike_status"}
    assert manifest.language == "en"
    assert manifest.last_updated == 1700000000
    assert manifest.ttl == 30


@pytest.mark.parametrize(
    "fields", [{"last_updated": "yesterday"}, {"last_updated": None}, {"ttl": "soon"}]
)
def test_discover_feeds_non_integer_timestamps_are_schema_errors(tmp_path, fields):
    doc = {
        "last_updated": 1700000000,
        "ttl": 30,
        "data": {"feeds": [{"name": "station_information", "url": "https://x/si.json"}]},
    }
    doc.update(fields)
    url = write_json(tmp_path / "gbfs.json", doc)
    with pytest.raises(SchemaError, match="sys"):
        discover_feeds(entry_for(url))


def test_discover_feeds_without_language_layer(tmp_path):
    url = write_json(
        tmp_path / "gbfs.json",
        {
            "data": {
                "feeds": [
                    {"name": "station_information", "url": "https://x/si.json"},
                    {"name": "free_bike_status", "url": "https://x/fbs.json"},
                ]
            }
        },
    )
    manifest = discover_feeds(entry_for(url))
    assert manifest.feeds == {
        "station_information": "https://x/si.json",
        "free_bike_status": "https://x/fbs.json",
    }


def test_discover_feeds_unknown_names_preserved(tmp_path):
    url = write_json(
        tmp_path / "gbfs.json",
        {"data": {"en": {"feeds": [{"name": "glitter_status", "url": "https://x/g.json"}]}}},
    )
    assert "glitter_status" in discover_feeds(entry_for(url)).feeds


def test_discover_feeds_empty_list(tmp_path):
    url = write_json(tmp_path / "gbfs.json", {"data": {"en": {"feeds": []}}})
    with pytest.raises(SchemaError):
        discover_feeds(entry_for(url))


def test_discover_feeds_missing_feeds_array(tmp_path):
    url = write_json(tmp_path / "gbfs.json", {"data": {"en": {}}})
    with pytest.raises(SchemaError, match="feeds"):
        discover_feeds(entry_for(url))


def test_discover_feeds_first_language_wins(tmp_path):
    url = write_json(
        tmp_path / "gbfs.json",
        {
            "data": {
                "fr": {"feeds": [{"name": "free_bike_status", "url": "https://x/fr.json"}]},
                "en": {"feeds": [{"name": "free_bike_status", "url": "https://x/en.json"}]},
            }
        },
    )
    manifest = discover_feeds(entry_for(url))
    assert manifest.language == "fr"
    assert manifest.feeds["free_bike_status"] == "https://x/fr.json"


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def csv_text(observations) -> str:
    buffer = io.StringIO()
    write_observations_csv(observations, buffer)
    return buffer.getvalue()


def test_parse_station_information_basic():
    payload = station_doc(
        [{"station_id": "s1", "name": "Plaza", "lat": 45.5, "lon": -122.6, "capacity": 12}]
    )
    rows, dropped = _entity_rows(doc_bytes(payload), "sys", _STATIONS)
    assert dropped == 0
    assert rows == [("s1", 45.5, -122.6)]


def test_parse_station_missing_lon_dropped():
    payload = station_doc(
        [
            {"station_id": "a", "lat": 45.0, "lon": -122.0},
            {"station_id": "b", "lat": 45.1},
            {"station_id": "c", "lat": 45.2, "lon": -122.2},
        ]
    )
    rows, dropped = _entity_rows(doc_bytes(payload), "sys", _STATIONS)
    assert [row[0] for row in rows] == ["a", "c"]
    assert dropped == 1


def test_parse_station_out_of_bounds_dropped():
    payload = station_doc([{"station_id": "x", "lat": 91.0, "lon": 0.0}])
    rows, dropped = _entity_rows(doc_bytes(payload), "sys", _STATIONS)
    assert rows == []
    assert dropped == 1


def test_parse_station_string_coordinates():
    payload = station_doc([{"station_id": "s", "lat": "45.5", "lon": "-122.6"}])
    rows, dropped = _entity_rows(doc_bytes(payload), "sys", _STATIONS)
    assert dropped == 0
    assert rows[0][1:] == (45.5, -122.6)


def test_parse_station_schema_error():
    with pytest.raises(SchemaError, match="stations"):
        _entity_rows(doc_bytes({"data": {}}), "sys", _STATIONS)


def test_parse_station_parse_error_offset():
    with pytest.raises(ParseError) as excinfo:
        _entity_rows(b'{"data": {"stations": [', "sys", _STATIONS)
    assert excinfo.value.offset is not None


def test_parse_free_bikes_reserved_flag():
    payload = bike_doc(
        [
            {"bike_id": "b1", "lat": 40.0, "lon": -100.0, "is_reserved": True, "is_disabled": False},
            {"bike_id": "b2", "lat": 40.1, "lon": -100.1, "is_reserved": False, "is_disabled": False},
        ]
    )
    rows, dropped = _entity_rows(doc_bytes(payload), "sys", _BIKES)
    assert dropped == 0
    assert [is_reserved for _, _, _, is_reserved, _ in rows] == [True, False]


def test_parse_free_bikes_empty():
    rows, dropped = _entity_rows(doc_bytes(bike_doc([])), "sys", _BIKES)
    assert rows == [] and dropped == 0


def test_parse_free_bikes_missing_booleans_default_false():
    payload = bike_doc([{"bike_id": "b", "lat": 40.0, "lon": -100.0}])
    rows, _ = _entity_rows(doc_bytes(payload), "sys", _BIKES)
    _, _, _, is_reserved, is_disabled = rows[0]
    assert is_disabled is False
    assert is_reserved is False


def test_parse_station_status_counts():
    doc = {
        "data": {
            "stations": [
                {"station_id": "a", "num_bikes_available": 3},
                {"station_id": "b"},
            ]
        }
    }
    assert parse_station_status(doc_bytes(doc), "sys") == {"a": 3, "b": 0}


def test_parse_deterministic_bytes():
    payload = doc_bytes(
        station_doc([{"station_id": "s", "lat": 45.5, "lon": -122.6}])
    )
    first = _entity_rows(payload, "sys", _STATIONS)[0]
    second = _entity_rows(payload, "sys", _STATIONS)[0]
    obs = [
        gbfs_client.BikeObservation("sys", station_id, lat, lon, DockingType.DOCKED, 0)
        for station_id, lat, lon in first
    ]
    obs2 = [
        gbfs_client.BikeObservation("sys", station_id, lat, lon, DockingType.DOCKED, 0)
        for station_id, lat, lon in second
    ]
    assert csv_text(obs) == csv_text(obs2)


# ---------------------------------------------------------------------------
# harvest
# ---------------------------------------------------------------------------

def test_harvest_two_systems(tmp_path):
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
    observations, diag = harvest([a, b], clock=lambda: 1234)
    assert len(observations) == 5
    assert diag.failures == []
    assert all(obs.observed_at == 1234 for obs in observations)
    docked = [o for o in observations if o.docking_type is DockingType.DOCKED]
    assert {o.system_id for o in docked} == {"a_city"}


def test_harvest_isolates_failing_feed(tmp_path):
    entry = make_system(
        tmp_path,
        "half_up",
        stations=[{"station_id": "s1", "lat": 45.0, "lon": -122.0}],
        bike_feed_url=(tmp_path / "missing.json").as_uri(),
    )
    observations, diag = harvest([entry], clock=lambda: 0)
    assert [o.entity_id for o in observations] == ["s1"]
    assert len(diag.failures) == 1
    assert diag.failures[0].feed == "free_bike_status"


def test_harvest_excludes_disabled_and_reserved(tmp_path):
    entry = make_system(
        tmp_path,
        "sys",
        bikes=[
            {"bike_id": "ok", "lat": 40.0, "lon": -100.0},
            {"bike_id": "broken", "lat": 40.0, "lon": -100.0, "is_disabled": True},
            {"bike_id": "held", "lat": 40.0, "lon": -100.0, "is_reserved": True},
        ],
    )
    observations, _ = harvest([entry], clock=lambda: 0)
    assert [o.entity_id for o in observations] == ["ok"]


def test_harvest_union_property(tmp_path):
    a = make_system(tmp_path / "a", "aa", stations=[{"station_id": "s", "lat": 1.0, "lon": 1.0}])
    b = make_system(tmp_path / "b", "bb", bikes=[{"bike_id": "b", "lat": 2.0, "lon": 2.0}])
    both, _ = harvest([a, b], clock=lambda: 7)
    just_a, _ = harvest([a], clock=lambda: 7)
    just_b, _ = harvest([b], clock=lambda: 7)
    assert sorted(both, key=str) == sorted(just_a + just_b, key=str)


def test_harvest_deterministic_order(tmp_path):
    entries = [
        make_system(
            tmp_path / f"s{i}",
            f"s{i:02d}",
            stations=[{"station_id": f"st{i}", "lat": 1.0 * i, "lon": 1.0}],
        )
        for i in range(6)
    ]
    first, _ = harvest(entries, clock=lambda: 1)
    second, _ = harvest(list(reversed(entries)), clock=lambda: 1)
    assert first == second
    assert [o.system_id for o in first] == sorted(o.system_id for o in first)


def test_harvest_empty_entries_rejected():
    with pytest.raises(ValueError):
        harvest([], clock=lambda: 0)


def test_harvest_system_with_no_relevant_feeds(tmp_path):
    entry = make_system(tmp_path, "empty_sys")
    observations, diag = harvest([entry], clock=lambda: 0)
    assert observations == []
    assert len(diag.failures) == 1


def test_harvest_available_bikes_mode(tmp_path):
    entry = make_system(
        tmp_path,
        "sys",
        stations=[
            {"station_id": "a", "lat": 45.0, "lon": -122.0},
            {"station_id": "b", "lat": 45.1, "lon": -122.1},
        ],
        status={"a": 2, "b": 0},
    )
    observations, diag = harvest([entry], clock=lambda: 0, docked_mode="available_bikes")
    assert [o.entity_id for o in observations] == ["a#0", "a#1"]
    assert diag.failures == []


def test_harvest_available_bikes_mode_without_status_feed(tmp_path):
    entry = make_system(
        tmp_path,
        "sys",
        stations=[{"station_id": "a", "lat": 45.0, "lon": -122.0}],
    )
    observations, diag = harvest([entry], clock=lambda: 0, docked_mode="available_bikes")
    assert [o.entity_id for o in observations] == ["a"]
    assert len(diag.failures) == 1
    assert diag.failures[0].feed == "station_status"


# ---------------------------------------------------------------------------
# harvest scheduling: http(s) systems on a bounded pool, local ones inline
# ---------------------------------------------------------------------------

REMOTE = "http://remote.test"


def remote_system(root, system_id, **feeds):
    """A fixture system whose discovery and feed URLs are
    http://remote.test/<path of the fixture file>, for FakeNetwork to serve."""
    entry = make_system(root, system_id, **feeds)
    discovery = root / f"{system_id}_gbfs.json"
    discovery.write_text(discovery.read_text().replace("file://", REMOTE))
    return dataclasses.replace(entry, discovery_url=entry.discovery_url.replace("file://", REMOTE))


class FakeNetwork:
    """Stands in for gbfs_client.fetch_document: serves http://remote.test
    URLs from the fixture files, records the thread of every fetch and the
    peak number of remote fetches in flight. Remote discovery fetches meet at
    a barrier of `parties`, so a harvest that does not overlap that many
    remote systems times out there (and reports a failure)."""

    def __init__(self, monkeypatch, parties=1):
        self.fetch = gbfs_client.fetch_document
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.threads = {}  # source -> ident of the thread that fetched it
        self.barrier = threading.Barrier(parties, timeout=5)
        monkeypatch.setattr(gbfs_client, "fetch_document", self)

    def __call__(self, source, timeout=None):
        with self.lock:
            self.threads[source] = threading.get_ident()
        if not source.startswith(REMOTE):
            return self.fetch(source, timeout)
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if source.endswith("_gbfs.json"):
                self.barrier.wait()
            else:
                time.sleep(0.001)  # a little latency, so fetches of other systems overlap
            return self.fetch("file://" + source[len(REMOTE):], timeout)
        finally:
            with self.lock:
                self.in_flight -= 1


def station(i):
    return {"station_id": f"st{i}", "lat": 45.0 + i / 100, "lon": -122.0}


def test_harvest_overlaps_remote_systems_up_to_max_in_flight(tmp_path, monkeypatch):
    network = FakeNetwork(monkeypatch, parties=3)
    entries = [remote_system(tmp_path, f"r{i}", stations=[station(i)]) for i in range(6)]
    observations, diag = harvest(entries, clock=lambda: 1, max_in_flight=3)
    assert diag.failures == []
    assert [o.entity_id for o in observations] == [f"st{i}" for i in range(6)]
    assert network.peak == 3
    assert threading.get_ident() not in network.threads.values()


def test_harvest_reads_local_systems_on_the_calling_thread(tmp_path, monkeypatch):
    network = FakeNetwork(monkeypatch)
    entries = [make_system(tmp_path, f"l{i}", stations=[station(i)], bikes=[]) for i in range(4)]
    observations, diag = harvest(entries, clock=lambda: 1, max_in_flight=3)
    assert diag.failures == []
    assert len(observations) == 4
    assert len(network.threads) == 12  # discovery and two feeds per system
    assert set(network.threads.values()) == {threading.get_ident()}


def test_harvest_of_mixed_catalog_matches_a_serial_run(tmp_path, monkeypatch):
    deviant = [station(1), {"station_id": "bad", "lat": 95.0, "lon": 0.0}, "not an object"]
    bikes = [{"bike_id": "b1", "lat": 40.0, "lon": -100.0},
             {"bike_id": "b2", "lat": 40.1, "lon": -100.1, "is_reserved": True}]
    missing = (tmp_path / "missing.json").as_uri()
    entries = [
        remote_system(tmp_path, "d_remote", stations=deviant, bikes=bikes),
        make_system(tmp_path, "a_local", stations=[station(2)], bikes=bikes),
        remote_system(tmp_path, "b_remote", stations=[station(3)], bike_feed_url=missing),
        make_system(tmp_path, "c_local", stations=deviant, bike_feed_url=missing),
        remote_system(tmp_path, "e_remote", bikes=bikes + ["no"]),
        make_system(tmp_path, "f_local"),
        remote_system(tmp_path, "g_remote", stations=[station(4)], bikes=[]),
    ]
    network = FakeNetwork(monkeypatch)
    expected_obs, expected_failures, expected_dropped = [], [], 0
    for entry in sorted(entries, key=lambda e: e.system_id):
        obs, failures, dropped = gbfs_client._harvest_system(entry, 9, "stations", None)
        expected_obs += obs
        expected_failures += failures
        expected_dropped += dropped

    network.threads.clear()
    network.barrier = threading.Barrier(2, timeout=5)
    observations, diag = harvest(entries, clock=lambda: 9, max_in_flight=2)
    assert observations == expected_obs
    assert diag.failures == expected_failures
    assert diag.dropped_entities == expected_dropped == 5
    assert [f.system_id for f in diag.failures] == ["b_remote", "c_local", "f_local"]
    assert network.peak == 2
    main = threading.get_ident()
    for source, thread in network.threads.items():
        assert (thread != main) == source.startswith(REMOTE), source


def test_bike_observation_is_an_immutable_named_tuple():
    obs = BikeObservation("sys", "e1", 45.5, -122.6, DockingType.DOCKED, 1700000000)
    assert BikeObservation._fields == OBSERVATION_COLUMNS
    assert repr(obs) == (
        "BikeObservation(system_id='sys', entity_id='e1', lat=45.5, lon=-122.6, "
        "docking_type=<DockingType.DOCKED: 'docked'>, observed_at=1700000000)"
    )
    with pytest.raises(AttributeError):
        obs.lat = 0.0
    assert not hasattr(obs, "__dict__")
    assert hash(obs) == hash(BikeObservation(*obs))


def test_observation_csv_round_trip(tmp_path):
    observations = [
        gbfs_client.BikeObservation("sys", "e1", 45.5, -122.6, DockingType.DOCKED, 1700000000),
        gbfs_client.BikeObservation("sys", "e2", 40.123456789, -100.987654321, DockingType.FREE, 1700000001),
    ]
    text = csv_text(observations)
    header = text.splitlines()[0]
    assert header == "system_id,entity_id,lat,lon,docking_type,observed_at"
    assert list(read_observations_csv(io.StringIO(text))) == observations


OBSERVATION_HEADER = "system_id,entity_id,lat,lon,docking_type,observed_at\n"
GOOD_ROW = "sys,e1,45.5,-122.6,free,1700000000\n"


@pytest.mark.parametrize(
    "bad_row, field",
    [
        ("sys,e2,notanumber,-122.6,free,1700000000\n", "lat"),
        ("sys,e2,45.5,,free,1700000000\n", "lat, lon"),
        ("sys,e2,nan,-122.6,free,1700000000\n", "lat"),
        ("sys,e2,45.5,-inf,free,1700000000\n", "lat, lon"),
        ("sys,e2,45.5,-122.6,free,1700000000.5\n", "observed_at"),
        ("sys,e2,45.5,-122.6,free,soon\n", "observed_at"),
        ("sys,e2,45.5,-122.6,free\n", "observed_at"),
    ],
    ids=["lat-word", "lon-empty", "lat-nan", "lon-inf", "time-fraction", "time-word", "time-missing"],
)
def test_read_observations_rejects_bad_fields_naming_the_row(bad_row, field):
    text = OBSERVATION_HEADER + GOOD_ROW + bad_row
    with pytest.raises(ParseError, match=f"row 2: {field}"):
        read_observations_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

class _FixtureHandler(BaseHTTPRequestHandler):
    documents: dict[str, bytes] = {}
    fail_once: set[str] = set()

    def do_GET(self):
        if self.path in self.fail_once:
            self.fail_once.discard(self.path)
            self.send_response(503)
            self.end_headers()
            return
        body = self.documents.get(self.path)
        if body is None:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_fixture_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FixtureHandler.documents = {}
    _FixtureHandler.fail_once = set()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def test_discover_feeds_over_http(http_fixture_server):
    base = http_fixture_server
    _FixtureHandler.documents["/gbfs.json"] = json.dumps(
        {"data": {"en": {"feeds": [{"name": "free_bike_status", "url": f"{base}/fbs.json"}]}}}
    ).encode()
    manifest = discover_feeds(entry_for(f"{base}/gbfs.json"))
    assert manifest.feeds["free_bike_status"].endswith("/fbs.json")


def test_http_client_error_is_transport_error(http_fixture_server):
    with pytest.raises(TransportError) as excinfo:
        discover_feeds(entry_for(f"{http_fixture_server}/absent.json"))
    assert excinfo.value.status == 404


def test_http_server_error_retried(http_fixture_server, monkeypatch):
    monkeypatch.setattr(gbfs_client, "RETRY_BACKOFF_SECONDS", 0.01)
    _FixtureHandler.documents["/flaky.json"] = json.dumps(
        {"data": {"en": {"feeds": [{"name": "free_bike_status", "url": "https://x/f.json"}]}}}
    ).encode()
    _FixtureHandler.fail_once.add("/flaky.json")
    manifest = discover_feeds(entry_for(f"{http_fixture_server}/flaky.json"))
    assert "free_bike_status" in manifest.feeds


def test_timeout_env_override(monkeypatch, caplog):
    monkeypatch.setenv(gbfs_client.TIMEOUT_ENV_VAR, "3.5")
    assert gbfs_client.http_timeout() == 3.5
    for unusable in ("junk", "0", "-1", "nan", "inf"):
        monkeypatch.setenv(gbfs_client.TIMEOUT_ENV_VAR, unusable)
        caplog.clear()
        assert gbfs_client.http_timeout() == gbfs_client.DEFAULT_TIMEOUT, unusable
        assert [record.levelname for record in caplog.records] == ["WARNING"], unusable
