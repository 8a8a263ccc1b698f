"""read_observations_csv against the DictReader reader it replaced (kept below
as a reference) on CSV layout edge cases, and a fuzz of snapshot files
through the map command; write_observations_csv read back and against
csv.writer's bytes.

The reader's reference carries two intended changes: an unknown docking_type
names its data row, as the lat/lon and observed_at errors do, and a row short
of its system_id or entity_id field is a SchemaError, not a record with a
None id."""

import contextlib
import csv
import io
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity import snapshot_store
from bikeshare_equity.cli import main
from bikeshare_equity.content_cache import content_key
from bikeshare_equity.errors import BikeshareEquityError, ParseError, SchemaError
from bikeshare_equity.snapshot_store import (
    OBSERVATION_COLUMNS,
    BikeObservation,
    DockingType,
    Observations,
    load_snapshot,
    read_observations_csv,
    valid_observation_values,
    write_observations_csv,
)
from helpers import memo_name, observations_of

# ---------------------------------------------------------------------------
# Reference: the reader as it was before positional column access.
# ---------------------------------------------------------------------------


def ref_read_observations_csv(fh):
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    missing = [column for column in OBSERVATION_COLUMNS if column not in header]
    if missing:
        raise SchemaError(f"observation CSV missing column(s): {', '.join(missing)}")
    observations = []
    for row_number, row in enumerate(reader, start=1):
        absent = [column for column in ("system_id", "entity_id") if row[column] is None]
        if absent:
            raise SchemaError(f"observation CSV row {row_number}: no {', '.join(absent)} field")
        kind = row["docking_type"]
        if kind not in (DockingType.DOCKED.value, DockingType.FREE.value):
            raise SchemaError(
                f"observation CSV row {row_number}: unknown docking_type {kind!r}"
            )
        try:
            lat = float(row["lat"])
            lon = float(row["lon"])
        except (TypeError, ValueError):
            lat = lon = math.nan
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ParseError(
                f"observation CSV row {row_number}: lat, lon "
                f"({row['lat']!r}, {row['lon']!r}) are not both finite numbers"
            )
        try:
            observed_at = int(row["observed_at"])
        except (TypeError, ValueError):
            raise ParseError(
                f"observation CSV row {row_number}: observed_at "
                f"{row['observed_at']!r} is not an integer"
            ) from None
        observations.append(
            BikeObservation(row["system_id"], row["entity_id"], lat, lon,
                            DockingType(kind), observed_at)
        )
    return observations


def outcome(read, text):
    """The records read, as a list, or the error's type and message."""
    try:
        return list(read(io.StringIO(text, newline="")))
    except Exception as exc:
        return type(exc), str(exc)


HEADER = "system_id,entity_id,lat,lon,docking_type,observed_at\n"
ROW1 = "sys,e1,45.5,-122.6,free,1700000000\n"
ROW2 = "sys,e2,40.123456789,-100.5,docked,1700000001\n"

EDGE_CASES = {
    "plain": HEADER + ROW1 + ROW2,
    "header only": HEADER,
    "empty file": "",
    "blank first line": "\n" + HEADER + ROW1,
    "blank lines between and after": HEADER + "\n" + ROW1 + "\n\n" + ROW2 + "\n",
    "blank lines skipped in row numbers": HEADER + ROW1 + "\n\n" + "sys,e2,x,-1.0,free,1\n",
    "blank line before bad time": HEADER + "\n" + ROW1 + "\n" + "sys,e2,1.0,2.0,free,soon\n",
    "whitespace line is a short row": HEADER + ROW1 + "   \n",
    "crlf line ends": (HEADER + ROW1 + ROW2).replace("\n", "\r\n"),
    "short row missing time": HEADER + "sys,e1,45.5,-122.6,free\n",
    "short row missing lon": HEADER + "sys,e1,45.5\n",
    "short row missing kind": HEADER + ROW1 + "sys,e2,45.5,-122.6\n",
    "short row of one field": HEADER + "sys\n",
    "extra fields": HEADER + "sys,e1,45.5,-122.6,free,1700000000,x,y\n" + ROW2,
    "extra header columns": "note,system_id,entity_id,lat,extra,lon,docking_type,observed_at\n"
                            "n,sys,e1,45.5,q,-122.6,free,1700000000\n",
    "reordered columns": "observed_at,lon,docking_type,lat,entity_id,system_id\n"
                         "1700000000,-122.6,free,45.5,e1,sys\n"
                         "1700000001,-100.5,docked,40.25,e2,sys\n",
    "reordered short row": "observed_at,lon,docking_type,lat,entity_id,system_id\n"
                           "1700000000,-122.6,free,45.5,e1\n",
    "duplicated header, last wins": HEADER.rstrip("\n") + ",lat\n"
                                    "sys,e1,45.5,-122.6,free,1700000000,12.5\n",
    "duplicated header, last missing": HEADER.rstrip("\n") + ",lat\n" + ROW1,
    "duplicated header, bad last": HEADER.rstrip("\n") + ",lat\n"
                                   "sys,e1,45.5,-122.6,free,1700000000,north\n",
    "missing column": "system_id,entity_id,lat,lon,observed_at\n" "sys,e1,1,2,3\n",
    "unknown docking type": HEADER + "sys,e1,45.5,-122.6,Free,1700000000\n",
    "quoted fields": HEADER + '"sys","e,1\nx",45.5,-122.6,free,1700000000\n',
    "padded numbers": HEADER + "sys,e1, 45.5 ,-122.6,free, 17 \n",
    "non-finite lat": HEADER + ROW1 + "sys,e2,nan,0.0,free,1\n",
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_read_matches_dictreader_reference(text):
    assert outcome(read_observations_csv, text) == outcome(ref_read_observations_csv, text)


REJECTED = {
    "lat-range": (HEADER + ROW1 + "sys,e2,90.5,0.0,free,1\n",
                  r"row 2: lat, lon \('90.5', '0.0'\) are outside"),
    "lon-range": (HEADER + "sys,e2,0.0,-180.25,free,1\n", "row 1: lat, lon .* are outside"),
    "huge": (HEADER + "sys,e2,1e300,0.0,free,1\n", "row 1: lat, lon .* are outside"),
    "field-limit": (HEADER + "sys," + "x" * 200_000 + ",1.0,2.0,free,1\n",
                    "line 2: field larger than field limit"),
}


@pytest.mark.parametrize("text, message", REJECTED.values(), ids=REJECTED.keys())
def test_read_rejects_out_of_range_and_malformed_csv(text, message):
    with pytest.raises(ParseError, match=message):
        read_observations_csv(io.StringIO(text, newline=""))


# The header puts the id columns last, so a short row can lack them.
SHORT_OF_IDS = (
    "observed_at,lon,docking_type,lat,entity_id,system_id\n"
    "1700000000,-122.6,free,45.5,e1,sys\n"
    "1700000001,-122.5,docked,45.4,e2\n"
)


def test_row_short_of_an_id_field_is_a_schema_error(tmp_path, capsys):
    with pytest.raises(SchemaError, match=r"^observation CSV row 2: no system_id field$"):
        read_observations_csv(io.StringIO(SHORT_OF_IDS, newline=""))
    text = SHORT_OF_IDS.replace(",e2\n", "\n")
    with pytest.raises(SchemaError, match=r"^observation CSV row 2: no system_id, entity_id field$"):
        read_observations_csv(io.StringIO(text, newline=""))
    store = tmp_path / "store"
    write_store(store, SHORT_OF_IDS.encode())
    assert main(["map", "--store", str(store), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: stage load_snapshot: observation CSV row 2: no system_id field\n"
    )


# ---------------------------------------------------------------------------
# The store's snapshot cache against the uncached read
# ---------------------------------------------------------------------------


def write_store(store, content):
    """A store whose one snapshot file holds content."""
    store.mkdir()
    (store / "manifest.csv").write_text("1,1700000000,3,snapshot_000001.csv\n")
    (store / "snapshot_000001.csv").write_bytes(content)


def load_outcome(store, **kwargs):
    """The records load_snapshot returns, as a list, or the error's type
    and message."""
    try:
        observations = load_snapshot(store, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    assert isinstance(observations, Observations)
    return list(observations)


def element_types(records):
    return [(type(record), *map(type, record)) for record in records]


def no_parse(fh):
    raise AssertionError("a cache hit parsed the CSV")


def cached_reads_agree(store):
    """Read the store uncached, then with a cache (a miss, then a hit):
    all three give equal records with identical element types, or the same
    error, in which case nothing is cached. Records read pass the reader's
    rule for values, which a cache hit checks. Returns the uncached outcome."""
    cache = store / "cache"
    uncached = load_outcome(store)
    reads = [load_outcome(store, cache_dir=cache)]
    if isinstance(uncached, list):
        assert valid_observation_values(*observations_of(uncached).columns())
        with mock.patch.object(snapshot_store, "read_observations_csv", no_parse):
            reads.append(load_outcome(store, cache_dir=cache))
        snapshot = store / "snapshot_000001.csv"
        key = content_key(f"snapshot-v{snapshot_store._CACHE_VERSION}", snapshot.read_bytes())
        assert sorted(p.name for p in cache.iterdir()) == sorted([key, memo_name(snapshot)])
    else:
        assert not cache.exists()
    for read in reads:
        assert read == uncached
        if isinstance(read, list):
            assert element_types(read) == element_types(uncached)
    return uncached


CACHE_CASES = {**EDGE_CASES, **{name: text for name, (text, _) in REJECTED.items()}}


@pytest.mark.parametrize("text", CACHE_CASES.values(), ids=CACHE_CASES.keys())
def test_cached_read_matches_uncached_read(tmp_path, text):
    store = tmp_path / "store"
    write_store(store, text.encode("utf-8"))
    expected = outcome(read_observations_csv, text)
    assert cached_reads_agree(store) == expected
    if isinstance(expected, list):
        assert all(type(record) is BikeObservation for record in expected)


GOOD_COLUMNS = (["sys"], ["e1", ""], [45.5, -90.0, 90.0], [-122.6, -180.0, 180.0],
                [DockingType.FREE, DockingType.DOCKED], [1700000000, 0])
BAD_VALUES = {
    "system id not a str": (0, None),
    "entity id not a str": (1, 7),
    "entity id a list": (1, ["e1"]),
    "entity id a dict": (1, {"e1": 1}),
    "system id a bool": (0, True),
    "lat out of range": (2, 90.5),
    "lat NaN": (2, math.nan),
    "lon out of range": (3, -180.25),
    "lon infinite": (3, math.inf),
    "kind as text": (4, "free"),
    "observed_at a float": (5, 1.0),
    "observed_at a bool": (5, True),
}


@pytest.mark.parametrize("column, value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_valid_observation_values_rejects_what_the_reader_never_returns(column, value):
    assert valid_observation_values(*GOOD_COLUMNS)
    assert valid_observation_values(*([] for _ in GOOD_COLUMNS))
    columns = [list(values) for values in GOOD_COLUMNS]
    columns[column].append(value)
    assert not valid_observation_values(*columns)


# ---------------------------------------------------------------------------
# Snapshot fuzz through the map command
# ---------------------------------------------------------------------------

VALID = (HEADER + ROW1 + ROW2 + "sys2,e3,-33.9,151.2,free,1700000002\n").encode("utf-8")
FIELD_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "nan", "inf", "-0.0", "1e400", "1e300", "91", "-181", "free",
                     "docked", "1.5", "1_0", '"', "\r", "\n", "\x00", ",", "x" * 140_000]),
)


@st.composite
def snapshot_bytes(draw):
    """VALID with one edit: a field replaced (written unquoted, so it may
    break the CSV), bytes inserted, a span cut out, or a line dropped or
    doubled."""
    action = draw(st.sampled_from(["field", "insert", "cut", "line"]))
    if action == "field":
        rows = [line.split(",") for line in VALID.decode().splitlines()]
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(rows[row]) - 1))
        rows[row][column] = draw(FIELD_TEXT)
        return ("\n".join(",".join(r) for r in rows) + "\n").encode("utf-8", "surrogatepass")
    if action == "insert":
        at = draw(st.integers(0, len(VALID)))
        return VALID[:at] + draw(st.binary(min_size=1, max_size=6)) + VALID[at:]
    if action == "cut":
        start = draw(st.integers(0, len(VALID) - 1))
        return VALID[:start] + VALID[start + draw(st.integers(1, 30)):]
    lines = VALID.splitlines(keepends=True)
    index = draw(st.integers(0, len(lines) - 1))
    if draw(st.booleans()):
        return b"".join(lines[:index] + lines[index + 1:])
    return b"".join(lines[: index + 1] + lines[index:])


@settings(max_examples=200, deadline=None)
@given(content=snapshot_bytes())
def test_map_on_fuzzed_snapshot_exits_cleanly(tmp_path_factory, content):
    store = tmp_path_factory.mktemp("fuzz") / "store"
    write_store(store, content)
    # Uncached, missed and hit reads agree; then map reads the cache.
    cached_reads_agree(store)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["map", "--store", str(store), "--out", str(store / "out")])
    err = err.getvalue()
    assert rc == 0 or (rc == 1 and err.startswith("error: stage load_snapshot: ")), err

    # Where the reference reader read the file, the new one agrees.
    try:
        text = content.decode("utf-8")
    except UnicodeDecodeError:
        assert rc == 1
        return
    ours = outcome(read_observations_csv, text)
    ref = outcome(ref_read_observations_csv, text)
    if isinstance(ref, list):
        in_range = all(-90 <= o.lat <= 90 and -180 <= o.lon <= 180 for o in ref)
        assert ours == ref if in_range else ours[0] is ParseError
    elif issubclass(ref[0], BikeshareEquityError):
        if not (ours[0] is ParseError and "are outside" in ours[1]):
            assert ours == ref
    else:  # csv.Error escaped the reference reader
        assert ours[0] is ParseError


# ---------------------------------------------------------------------------
# Writer: read back, and csv.writer's bytes
# ---------------------------------------------------------------------------


CHUNK = snapshot_store._WRITE_CHUNK


def ref_csv_writer_text(observations):
    """The snapshot text csv.writer gives, as the writer made it before it
    joined rows itself."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(OBSERVATION_COLUMNS)
    writer.writerows(
        (obs.system_id, obs.entity_id, repr(float(obs.lat)), repr(float(obs.lon)),
         obs.docking_type.value, obs.observed_at)
        for obs in observations
    )
    return buffer.getvalue()


class RecordingFile(io.StringIO):
    """A text buffer that keeps the line count of every write."""

    def __init__(self):
        super().__init__()
        self.lines_per_write = []

    def write(self, text):
        self.lines_per_write.append(text.count("\n"))
        return super().write(text)


def check_writer(observations):
    """The written text reads back as the observations and, where csv.writer
    quotes as the writer does, equals csv.writer's text."""
    fh = RecordingFile()
    assert write_observations_csv(observations_of(observations), fh) == len(observations)
    text = fh.getvalue()
    ids = "".join(value for obs in observations for value in (obs.system_id, obs.entity_id))
    # csv before Python 3.11 can neither write nor read NUL.
    if sys.version_info >= (3, 11) or "\x00" not in ids:
        assert list(read_observations_csv(io.StringIO(text, newline=""))) == observations
        # csv.writer quotes a field holding "\r" only from Python 3.13.
        if sys.version_info >= (3, 13) or "\r" not in ids:
            assert text == ref_csv_writer_text(observations)
    assert max(fh.lines_per_write) <= CHUNK
    return fh


IDS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.sampled_from([",", '"', "\n", "\r", "\x00", "a", " ", "é", "中"]),
            max_size=6),
)


def coordinate(limit):
    floats = st.floats(-limit, limit, allow_nan=False)
    return st.one_of(floats, floats.map(np.float64))


OBSERVATIONS = st.lists(
    st.builds(BikeObservation, IDS, IDS, coordinate(90.0), coordinate(180.0),
              st.sampled_from(DockingType), st.integers(0, 2**40)),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(observations=OBSERVATIONS)
def test_written_snapshot_reads_back_and_matches_csv_writer(observations):
    check_writer(observations)


@pytest.mark.parametrize("count", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1],
                         ids=["0", "1", "chunk-1", "chunk", "chunk+1"])
def test_writer_splits_rows_into_bounded_writes(count):
    observations = [
        BikeObservation("sys" if i % 7 else "s,ys", f"e{i}", i / count - 0.5, -i / count,
                        DockingType.FREE if i % 3 else DockingType.DOCKED, 1_700_000_000 + i)
        for i in range(count)
    ]
    fh = check_writer(observations)
    # The header, then the rows in as few writes as the chunk allows.
    sizes = [min(CHUNK, count - start) for start in range(0, count, CHUNK)]
    assert fh.lines_per_write == [1] + sizes
