"""The table-driven GBFS normalizer against the deepcopy-and-loop parser it
replaced, kept below as a reference: equal rows, equal dropped tallies and
equal exceptions on a battery of conforming and deviant feeds and under a
one-node mutation fuzz, for _entity_rows and for a whole harvest.

The reference carries two intended changes: an integer coordinate beyond the
float range is unusable, so its entry is dropped and tallied (the old parser
raised OverflowError, which failed the whole system); and so is an entry
whose id a snapshot cannot hold (ref_storable_id: the old parser kept it, and
the harvest then stored no snapshot, or one that no reader could read back).
The reference snapshot
bytes quote an id holding a carriage return, as Python 3.13's csv.writer does
(earlier versions left it bare, and the snapshot could not be read back)."""

import copy
import csv
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity.errors import ParseError, SchemaError, TransportError
from bikeshare_equity.gbfs_client import (
    FREE_BIKE_FEED,
    MAX_ENTITY_ID_LENGTH,
    STATION_FEED,
    FeedFailure,
    _BIKES,
    _STATIONS,
    _entity_rows,
    _load_json,
    harvest,
)
from bikeshare_equity.snapshot_store import (
    BikeObservation,
    DockingType,
    Observations,
    write_observations_csv,
)
from helpers import OBSERVED_AT, bike_doc, make_system, observations_of, station_doc

# ---------------------------------------------------------------------------
# Reference: the parsers as they were before the table-driven normalizer.
# ---------------------------------------------------------------------------


class RefStation(NamedTuple):
    system_id: str
    station_id: str
    lat: float
    lon: float


class RefBike(NamedTuple):
    system_id: str
    bike_id: str
    lat: float
    lon: float
    is_reserved: bool
    is_disabled: bool


@dataclass
class RefDiagnostics:
    dropped: int = 0


def ref_coerce_coordinate(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # the intended change, see the module docstring
            return None
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def ref_canonicalize_station_payload(payload):
    out = copy.deepcopy(payload)
    data = out.get("data")
    stations = data.get("stations") if isinstance(data, dict) else None
    for station in stations or []:
        if not isinstance(station, dict):
            continue
        for key in ("lat", "lon"):
            coerced = ref_coerce_coordinate(station.get(key))
            if coerced is not None:
                station[key] = coerced
    return out


def ref_canonicalize_bike_payload(payload):
    out = copy.deepcopy(payload)
    data = out.get("data")
    bikes = data.get("bikes") if isinstance(data, dict) else None
    for bike in bikes or []:
        if not isinstance(bike, dict):
            continue
        for key in ("lat", "lon"):
            coerced = ref_coerce_coordinate(bike.get(key))
            if coerced is not None:
                bike[key] = coerced
        bike.setdefault("is_reserved", False)
        bike.setdefault("is_disabled", False)
    return out


def ref_storable_id(value):
    """The second intended change, see the module docstring: the id's text
    encodes as UTF-8, holds no NUL and is at most MAX_ENTITY_ID_LENGTH
    characters long."""
    text = str(value)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return "\x00" not in text and len(text) <= MAX_ENTITY_ID_LENGTH


def ref_valid_lat(value):
    return isinstance(value, float) and -90.0 <= value <= 90.0


def ref_valid_lon(value):
    return isinstance(value, float) and -180.0 <= value <= 180.0


def ref_parse_station_information(document, system_id):
    payload = _load_json(document)
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("stations"), list):
        raise SchemaError(f"{system_id}: station_information missing data.stations")
    payload = ref_canonicalize_station_payload(payload)
    stations = []
    diagnostics = RefDiagnostics()
    for entry in payload["data"]["stations"]:
        if not isinstance(entry, dict):
            diagnostics.dropped += 1
            continue
        station_id = entry.get("station_id")
        lat = entry.get("lat")
        lon = entry.get("lon")
        if (not station_id or not ref_storable_id(station_id)
                or not ref_valid_lat(lat) or not ref_valid_lon(lon)):
            diagnostics.dropped += 1
            continue
        stations.append(
            RefStation(
                system_id=system_id,
                station_id=str(station_id),
                lat=lat,
                lon=lon,
            )
        )
    return stations, diagnostics


def ref_parse_free_bike_status(document, system_id):
    payload = _load_json(document)
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("bikes"), list):
        raise SchemaError(f"{system_id}: free_bike_status missing data.bikes")
    payload = ref_canonicalize_bike_payload(payload)
    bikes = []
    diagnostics = RefDiagnostics()
    for entry in payload["data"]["bikes"]:
        if not isinstance(entry, dict):
            diagnostics.dropped += 1
            continue
        bike_id = entry.get("bike_id")
        lat = entry.get("lat")
        lon = entry.get("lon")
        if (not bike_id or not ref_storable_id(bike_id)
                or not ref_valid_lat(lat) or not ref_valid_lon(lon)):
            diagnostics.dropped += 1
            continue
        bikes.append(
            RefBike(
                system_id=system_id,
                bike_id=str(bike_id),
                lat=lat,
                lon=lon,
                is_reserved=bool(entry.get("is_reserved", False)),
                is_disabled=bool(entry.get("is_disabled", False)),
            )
        )
    return bikes, diagnostics


def ref_system_harvest(system_id, station_raw, bike_raw, observed_at):
    """What the old per-system harvest made of one station and one bike feed
    (stations docked mode): (observations, failures, dropped)."""
    observations, failures, dropped = [], [], 0
    try:
        try:
            stations, diag = ref_parse_station_information(station_raw, system_id)
            dropped += diag.dropped
            for station in stations:
                observations.append(
                    BikeObservation(system_id, station.station_id, station.lat, station.lon,
                                    DockingType.DOCKED, observed_at)
                )
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(system_id, STATION_FEED, str(exc)))
        try:
            bikes, diag = ref_parse_free_bike_status(bike_raw, system_id)
            dropped += diag.dropped
            for bike in bikes:
                if bike.is_reserved or bike.is_disabled:
                    continue
                observations.append(
                    BikeObservation(system_id, bike.bike_id, bike.lat, bike.lon,
                                    DockingType.FREE, observed_at)
                )
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(system_id, FREE_BIKE_FEED, str(exc)))
    except Exception as exc:
        return [], [FeedFailure(system_id, "harvest", f"{type(exc).__name__}: {exc}")], 0
    return observations, failures, dropped


def ref_observations_to_csv_bytes(observations):
    r"""csv.writer's bytes, with a field holding "\r" quoted on every Python
    version, as 3.13 quotes it: each row is written with "\r\n" line ends,
    which makes csv quote both characters, and its "\r\n" becomes "\n"."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    rows = [("system_id", "entity_id", "lat", "lon", "docking_type", "observed_at")]
    rows += [
        [obs.system_id, obs.entity_id, repr(float(obs.lat)), repr(float(obs.lon)),
         obs.docking_type.value, obs.observed_at]
        for obs in observations
    ]
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def outcome(parse):
    """A parse's (result, dropped), or the exception's type and message."""
    try:
        return parse()
    except Exception as exc:
        return type(exc), str(exc)


def ref_rows(ref_parse, raw):
    """The reference's records as _entity_rows rows, without the system id."""
    records, diagnostics = ref_parse(raw, "sys")
    return [record[1:] for record in records], diagnostics.dropped


def assert_parsers_agree(station_raw, bike_raw):
    """_entity_rows gives the reference's (id, lat, lon) station rows and
    (id, lat, lon, is_reserved, is_disabled) bike rows, dropped tallies and
    exceptions."""
    assert outcome(lambda: _entity_rows(station_raw, "sys", _STATIONS)) == outcome(
        lambda: ref_rows(ref_parse_station_information, station_raw)
    )
    assert outcome(lambda: _entity_rows(bike_raw, "sys", _BIKES)) == outcome(
        lambda: ref_rows(ref_parse_free_bike_status, bike_raw)
    )


def observations_to_csv_bytes(observations):
    buffer = io.StringIO()
    write_observations_csv(observations, buffer)
    return buffer.getvalue().encode("utf-8")


def assert_harvest_agrees(root, station_raw, bike_raw):
    """harvest() over one file:// system serving the two documents gives the
    reference's observations, failures and dropped tally, and the same
    snapshot CSV bytes. Its result is an Observations whose six columns hold
    the values, of the same types, that the reference's records give."""
    entry = make_system(root, "sys", stations=[], bikes=[])
    (root / "sys_station_information.json").write_bytes(station_raw)
    (root / "sys_free_bike_status.json").write_bytes(bike_raw)
    observations, diagnostics = harvest([entry], clock=lambda: OBSERVED_AT)
    expected, failures, dropped = ref_system_harvest("sys", station_raw, bike_raw, OBSERVED_AT)
    assert type(observations) is Observations
    assert list(observations) == expected
    assert all(type(obs) is BikeObservation for obs in observations)
    for column, expected_column in zip(
        observations.columns(), observations_of(expected).columns(), strict=True
    ):
        column, expected_column = list(column), list(expected_column)
        assert column == expected_column
        assert list(map(type, column)) == list(map(type, expected_column))
    assert diagnostics.failures == failures
    assert diagnostics.dropped_entities == dropped
    assert observations_to_csv_bytes(observations) == ref_observations_to_csv_bytes(expected)


def raw(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


# ---------------------------------------------------------------------------
# Fixture battery
# ---------------------------------------------------------------------------

DEVIANT_STATIONS = [
    {"station_id": "s1", "name": "Plaza", "lat": 45.5, "lon": -122.6, "capacity": 12},
    {"station_id": "s2", "lat": "45.51", "lon": " -122.61 "},
    {"station_id": "s3", "lat": 45, "lon": -122},
    {"station_id": "s4", "lat": 45.2},
    {"station_id": "s5", "lat": 91.0, "lon": 0.0},
    {"station_id": "s6", "lat": 0.0, "lon": -180.5},
    {"station_id": "s7", "lat": "north", "lon": "-122.6"},
    {"station_id": "s8", "lat": True, "lon": -122.6},
    {"station_id": "s9", "lat": None, "lon": -122.6},
    {"station_id": "s10", "lat": float("nan"), "lon": -122.6},
    {"station_id": "s11", "lat": "inf", "lon": -122.6},
    {"station_id": "s12", "lat": [45.0], "lon": {"deg": -122.6}},
    {"lat": 45.5, "lon": -122.6},
    {"station_id": "", "lat": 45.5, "lon": -122.6},
    {"station_id": 0, "lat": 45.5, "lon": -122.6},
    {"station_id": 17, "lat": 45.5, "lon": -122.6, "capacity": -1},
    {"station_id": True, "lat": 45.5, "lon": -122.6, "capacity": True},
    {"station_id": ["x"], "lat": 45.5, "lon": -122.6, "capacity": "12"},
    {"station_id": "s13", "lat": -90, "lon": 180, "capacity": 3.0, "name": 5},
    {"station_id": "s14", "lat": 45.5, "lon": -122.6, "capacity": 0, "name": None},
    "not an object",
    7,
    None,
    [45.5, -122.6],
]

DEVIANT_BIKES = [
    {"bike_id": "b1", "lat": 40.0, "lon": -100.0, "is_reserved": False, "is_disabled": False},
    {"bike_id": "b2", "lat": "40.1", "lon": "-100.1"},
    {"bike_id": "b3", "lat": 40.2, "lon": -100.2, "is_reserved": True},
    {"bike_id": "b4", "lat": 40.3, "lon": -100.3, "is_disabled": 1},
    {"bike_id": "b5", "lat": 40.4, "lon": -100.4, "is_reserved": "false"},
    {"bike_id": "b6", "lat": 40.5, "lon": -100.5, "is_reserved": None, "is_disabled": 0},
    {"bike_id": "b7", "lat": "", "lon": -100.6},
    {"bike_id": "b8", "lat": 40.7, "lon": 181},
    {"bike_id": None, "lat": 40.8, "lon": -100.8},
    {"bike_id": 3.5, "lat": 40.9, "lon": -100.9},
    {"bike_id": {"id": "b9"}, "lat": 41.0, "lon": -101.0},
    False,
    "b10",
]

BATTERY = [
    ("conforming", raw(station_doc(DEVIANT_STATIONS[:1])), raw(bike_doc(DEVIANT_BIKES[:1]))),
    ("deviant", raw(station_doc(DEVIANT_STATIONS)), raw(bike_doc(DEVIANT_BIKES))),
    ("empty lists", raw(station_doc([])), raw(bike_doc([]))),
    ("no data", raw({"last_updated": 1}), raw({"data": None})),
    ("data not object", raw({"data": []}), raw({"data": "bikes"})),
    ("list not a list", raw({"data": {"stations": {"s": {}}}}), raw({"data": {"bikes": 5}})),
    ("top level not object", raw([1, 2]), raw("bikes")),
    ("invalid JSON", b'{"data": {"stations": [', b'{"data": {"bikes": [}'),
    ("not UTF-8", b'{"data": {"stations": ["\xff"]}}', b"\xfe\xff"),
    ("huge integer coordinate",
     raw(station_doc([{"station_id": "s", "lat": 10**400, "lon": 0.0}])),
     raw(bike_doc(DEVIANT_BIKES))),
    ("huge integer bike coordinate",
     raw(station_doc(DEVIANT_STATIONS)),
     raw(bike_doc([{"bike_id": "b", "lat": 1.0, "lon": -10**400}]))),
    ("ids needing quotes",
     raw(station_doc([{"station_id": station_id, "lat": 45.5, "lon": -122.6}
                      for station_id in ("s,1", 's"2', "s\n3", "s\r4", "s\r\n5", " s6 ")])),
     raw(bike_doc([{"bike_id": bike_id, "lat": 40.0, "lon": -100.0}
                   for bike_id in ("b\r1", '"b2"', "é,b3")]))),
    ("ids no snapshot can hold",
     raw(station_doc([{"station_id": station_id, "lat": 45.5, "lon": -122.6}
                      for station_id in ("\ud800", "s\x001", "s" * (MAX_ENTITY_ID_LENGTH + 1),
                                         "s" * MAX_ENTITY_ID_LENGTH, "s2")])),
     raw(bike_doc([{"bike_id": bike_id, "lat": 40.0, "lon": -100.0}
                   for bike_id in ("b1", "\udfff\ud800", "\x00", "é" * 140_000, "é")]))),
    ("ids of one feed past the bound only together",
     raw(station_doc([{"station_id": "s" * (MAX_ENTITY_ID_LENGTH // 2 + 1), "lat": 45.5,
                       "lon": -122.6}] * 2)),
     raw(bike_doc([{"bike_id": "b" * MAX_ENTITY_ID_LENGTH, "lat": 40.0, "lon": -100.0}]))),
]


@pytest.mark.parametrize("station_raw, bike_raw", [case[1:] for case in BATTERY],
                         ids=[case[0] for case in BATTERY])
def test_parsers_match_reference_on_battery(station_raw, bike_raw):
    assert_parsers_agree(station_raw, bike_raw)


@pytest.mark.parametrize("station_raw, bike_raw", [case[1:] for case in BATTERY],
                         ids=[case[0] for case in BATTERY])
def test_harvest_matches_reference_on_battery(tmp_path, station_raw, bike_raw):
    assert_harvest_agrees(tmp_path, station_raw, bike_raw)


def test_huge_integer_coordinate_drops_only_its_entry(tmp_path):
    stations = [{"station_id": "s", "lat": 10**400, "lon": 0.0},
                {"station_id": "t", "lat": 1.0, "lon": 2.0}]
    bikes = [{"bike_id": "b", "lat": 1.0, "lon": -(10**400)},
             {"bike_id": "c", "lat": 3.0, "lon": 4.0}]
    entry = make_system(tmp_path, "sys", stations=stations, bikes=bikes)
    observations, diagnostics = harvest([entry], clock=lambda: OBSERVED_AT)
    assert [(obs.entity_id, obs.lat, obs.lon) for obs in observations] == [
        ("t", 1.0, 2.0), ("c", 3.0, 4.0)]
    assert diagnostics.failures == []
    assert diagnostics.dropped_entities == 2


def test_integer_over_the_digit_limit_fails_only_its_feed(tmp_path):
    bikes = [{"bike_id": "b", "lat": 3.0, "lon": 4.0}]
    entry = make_system(tmp_path, "sys", stations=[], bikes=bikes)
    digits = "7" * 5000  # json.loads refuses integers of more than 4,300 digits
    (tmp_path / "sys_station_information.json").write_text(
        '{"data": {"stations": [{"station_id": "s", "lat": ' + digits + ', "lon": 0.0}]}}')
    with pytest.raises(ParseError, match="^invalid JSON: "):
        _load_json((tmp_path / "sys_station_information.json").read_bytes())
    observations, diagnostics = harvest([entry], clock=lambda: OBSERVED_AT)
    assert [obs.entity_id for obs in observations] == ["b"]
    assert [(f.system_id, f.feed) for f in diagnostics.failures] == [("sys", STATION_FEED)]
    assert diagnostics.failures[0].message.startswith("invalid JSON: ")


def test_nesting_beyond_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON: "):
        _load_json(b'{"data": ' + b"[" * 200_000 + b"]" * 200_000 + b"}")


# ---------------------------------------------------------------------------
# One-node mutation fuzz
# ---------------------------------------------------------------------------

KEYS = ["data", "stations", "bikes", "station_id", "bike_id", "lat", "lon", "name",
        "capacity", "is_reserved", "is_disabled", "extra"]
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([10**400, -(10**400), 0, 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["45.5", " -122.6 ", "nan", "-inf", "1e400", "", "0", "abc", "true"]),
    st.text(max_size=6),
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
    ),
    max_leaves=6,
)


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from node_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from node_paths(child, path + (index,))


def mutate(doc, data):
    """Replace or delete one node of doc, add a member to one object, or
    truncate the serialized document; returns the document bytes."""
    doc = copy.deepcopy(doc)
    paths = list(node_paths(doc))
    path = data.draw(st.sampled_from(paths), label="path")
    action = data.draw(st.sampled_from(["replace", "delete", "add", "truncate"]), label="action")
    if action == "truncate":
        text = json.dumps(doc)
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")].encode("utf-8")
    value = data.draw(VALUES, label="value")
    if not path:
        return raw(value)  # the whole document replaced
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]]
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(target, dict):
        target[data.draw(st.sampled_from(KEYS), label="key")] = value
    elif action == "add" and isinstance(target, list):
        target.append(value)
    else:
        parent[path[-1]] = value
    return raw(doc)


STATION_BASE = station_doc(DEVIANT_STATIONS[:3] + [DEVIANT_STATIONS[13]])
BIKE_BASE = bike_doc(DEVIANT_BIKES[:4])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bikes=st.booleans())
def test_parsers_and_harvest_match_reference_under_mutation(data, bikes):
    station_raw, bike_raw = raw(STATION_BASE), raw(BIKE_BASE)
    if bikes:
        bike_raw = mutate(BIKE_BASE, data)
    else:
        station_raw = mutate(STATION_BASE, data)
    assert_parsers_agree(station_raw, bike_raw)
    with tempfile.TemporaryDirectory() as tmp:
        assert_harvest_agrees(Path(tmp), station_raw, bike_raw)

