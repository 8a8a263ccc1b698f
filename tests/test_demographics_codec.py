"""The demographics CSV reader: its error contract, the DictReader reader it
replaced (kept below as a reference), and a fuzz of demographics files
through the analyze command."""

import contextlib
import csv
import io
import json
import re
import sys
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity import content_cache, join_aggregate
from bikeshare_equity.cli import main
from bikeshare_equity.content_cache import content_key
from bikeshare_equity.errors import BikeshareEquityError, ParseError, SchemaError
from bikeshare_equity.join_aggregate import (
    DEMOGRAPHICS_COLUMNS,
    PREDICTOR_NAMES,
    DemographicsRow,
    read_demographics_csv,
)
from helpers import (
    build_synthetic_city,
    checked_demographics_row,
    city_inputs,
    entries_besides_memos,
    mutated,
    only_memos_of,
)

HEADER = ",".join(DEMOGRAPHICS_COLUMNS) + "\n"


def ref_read_demographics_csv(text):
    """The DictReader reader as it was, for text it read without error."""
    reader = csv.DictReader(io.StringIO(text))
    header = reader.fieldnames or []
    missing = [column for column in DEMOGRAPHICS_COLUMNS if column not in header]
    if missing:
        raise SchemaError(f"demographics header missing column(s): {', '.join(missing)}")
    rows = []
    for line_number, row in enumerate(reader, start=2):
        try:
            rows.append(checked_demographics_row(
                row["tract_geoid"].strip(), *[float(row[name]) for name in PREDICTOR_NAMES]
            ))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"demographics line {line_number}: {exc}") from exc
    return rows


def outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc)


PREFIX = f"demographics-v{join_aggregate._CACHE_VERSION}"


def read_outcome(path, **kwargs):
    """The table read_demographics_csv returns, as its GEOIDs and the shape
    and bytes of its predictors, or the error's type and message."""
    try:
        table = read_demographics_csv(path, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    assert table.counts is None and table.predictors.dtype == np.float64
    assert all(type(geoid) is str for geoid in table.geoids)
    return table.geoids, table.predictors.shape, table.predictors.tobytes()


def no_parse(data):
    raise AssertionError("a cache hit parsed the CSV")


def cached_reads_agree(path, cache):
    """Read the file uncached, then with a cache: a miss, a hit on a hashed
    key and a hit on a trusted memo, neither of which parses. All four give
    the same table, bit for bit, or the same error, in which case nothing is
    cached. Returns the uncached outcome."""
    uncached = read_outcome(path)
    reads = [read_outcome(path, cache_dir=cache)]
    if isinstance(uncached[0], type):
        assert not cache.exists()
    else:
        with mock.patch.object(join_aggregate, "_parse_demographics", no_parse), \
                mock.patch.object(content_cache, "RACY_WINDOW_NS", 0):
            # A hashed hit, which writes the memo that the next read trusts.
            reads.append(read_outcome(path, cache_dir=cache))
            with mock.patch.object(content_cache, "file_content_key", no_parse):
                reads.append(read_outcome(path, cache_dir=cache))
        key = content_key(PREFIX, path.read_bytes())
        assert entries_besides_memos(cache, path) == [key]
    assert all(read == uncached for read in reads)
    return uncached


def analyze_argv(city, demographics, out_dir):
    return ["analyze", "--store", str(city["store"]), "--boundaries", str(city["boundaries"]),
            "--demographics", str(demographics), "--out", str(out_dir)]


def test_layout_edge_cases_read_as_the_reference_reads_them():
    row = "53033000001,0.5,0.2,0.3,120.5,77.0\n"
    for text in (
        HEADER + row,
        HEADER + "\n" + row + "\n\n",  # blank lines skipped
        HEADER.replace("\n", ",extra\n") + row.replace("\n", ",x\n"),  # extra column
        "job_density,pop_density,pct_nonwhite,pct_poverty,pct_college,tract_geoid\n"
        "77.0,120.5,0.3,0.2,0.5, 53033000001 \n",  # any column order, geoid stripped
        HEADER.replace("\n", ",pct_college\n") + row.replace("\n", ",0.9\n"),  # last wins
        HEADER + row + "53033000002,0.1,0.1,0.1,1,2,surplus\n",  # a long row
        HEADER.replace("\n", "\r\n") + row.replace("\n", "\r\n"),
        HEADER,
    ):
        assert list(read_demographics_csv(io.StringIO(text))) == ref_read_demographics_csv(text), text


def test_layout_edge_cases_read_alike_uncached_missed_and_hit(tmp_path):
    row = "53033000001,0.5,0.2,0.3,120.5,-0.0\n"
    for i, text in enumerate([
        HEADER + row,
        HEADER + "\n" + row + "\n\n",
        HEADER.replace("\n", ",extra\n") + row.replace("\n", ",x\n"),
        HEADER.replace("\n", "\r\n") + row.replace("\n", "\r\n"),
        HEADER.replace("\n", "\r") + row.replace("\n", "\r"),  # read as line ends
        HEADER + '"53033\r\n000002",0.5,0.2,0.3,1.0,1.0\n' + row,
        HEADER + row * 3,  # a duplicate GEOID is join_demographics' error
        "\ufeff" + HEADER + row,
        HEADER,
    ]):
        path = tmp_path / f"demographics_{i}.csv"
        path.write_bytes(text.encode("utf-8"))
        geoids, shape, values = cached_reads_agree(path, tmp_path / f"cache_{i}")
        expected = read_demographics_csv(io.StringIO(path.read_text(encoding="utf-8")))
        assert (geoids, shape, values) == (
            expected.geoids, expected.predictors.shape, expected.predictors.tobytes()
        ), text


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
    text = HEADER + "53033000001,0.5,0.2,0.3,120.5,77.0\n"
    expected = [DemographicsRow("53033000001", 0.5, 0.2, 0.3, 120.5, 77.0)]
    path = tmp_path / "demographics.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert list(read_demographics_csv(path)) == expected
    cached_reads_agree(path, tmp_path / "cache")
    assert list(read_demographics_csv(io.StringIO("\ufeff" + text))) == expected
    # Only one leading mark is dropped: a second one is part of the header.
    with pytest.raises(SchemaError, match="missing column.s.: tract_geoid$"):
        read_demographics_csv(io.StringIO("\ufeff\ufeff" + text))

    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    plain = city["demographics"].read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + plain)
    assert main(analyze_argv(city, path, tmp_path / "bom")) == 0
    assert main(analyze_argv(city, city["demographics"], tmp_path / "plain")) == 0
    for name in ("table1.csv", "table2.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize(
    "content, error, message",
    [
        (b"pct_college,pct_poverty,pct_nonwhite,pop_density,job_density,tract_geoid\n"
         b"0.5,0.2,0.3,1.0,1.0\n", SchemaError, "demographics line 2: no tract_geoid field"),
        (HEADER.encode() + b"\n53033000000,0.5,0.2,0.3\n", SchemaError,
         "demographics line 3: no pop_density, job_density field"),
        (HEADER.encode() + b"\n53033000\xff000,0.5,0.2,0.3,1.0,1.0\n", ParseError,
         "demographics file is not UTF-8 text at byte 82"),
        (HEADER.encode() + b"\n\n" + b"x" * 140_000 + b",0.5,0.2,0.3,1.0,1.0\n", ParseError,
         "demographics line 4: field larger than field limit"),
        (HEADER.encode() + b'"53033\n000000",0.5,0.2,0.3,1.0,nan\n', SchemaError,
         "demographics line 3: job_density must be a non-negative number, got nan"),
        (b"", SchemaError, "demographics header missing column(s): tract_geoid, "),
    ],
    ids=["short row without geoid", "short row", "not UTF-8", "oversized field",
         "multi-line field", "empty file"],
)
def test_malformed_demographics_fail_read_and_stage(tmp_path, capsys, content, error, message):
    path = tmp_path / "demographics.csv"
    path.write_bytes(content)
    with pytest.raises(error) as raised:
        read_demographics_csv(path)
    assert str(raised.value).startswith(message)
    assert cached_reads_agree(path, tmp_path / "cache") == (error, str(raised.value))

    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    rc = main(analyze_argv(city, path, tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: stage read_demographics: {message}")


ROW = "53033000001,0.5,0.2,0.3,120.5,77.0\n"


def range_case(field, text):
    """A file whose third line holds text in one field, out of its range,
    the error naming that field, and the case's id."""
    values = ROW.strip().split(",")[1:]
    values[field] = text
    name = PREDICTOR_NAMES[field]
    rule = "must lie in [0, 1]" if field < 3 else "must be a non-negative number"
    return pytest.param(
        HEADER + ROW + ",".join(["53033000002", *values]) + "\n" + ROW, SchemaError,
        f"demographics line 3: {name} {rule}, got {float(text)!r}", id=f"{name} {text}",
    )


RANGE_CASES = [
    range_case(field, text)
    for field in range(len(PREDICTOR_NAMES))
    for text in (("-0.5", "1.5", "nan") if field < 3 else ("-1.0", "nan"))
]


@pytest.mark.parametrize(
    "text, error, message",
    [
        (HEADER + "53033000001,0.5,0.2,0.3,120.5,-1.0\n53033000002,0.5,x,0.3,1.0,1.0\n",
         SchemaError, "demographics line 2: job_density must be a non-negative number, got -1.0"),
        (HEADER + ROW + "53033000002,0.5,0.2,1.5,1.0,1.0\n53033000003,0.5\n", SchemaError,
         "demographics line 3: pct_nonwhite must lie in [0, 1], got 1.5"),
        (HEADER + "53033000002,nan,0.2,0.3,1.0,1.0\n\n" + "x" * 140_000 + "\n", SchemaError,
         "demographics line 2: pct_college must lie in [0, 1], got nan"),
        (HEADER + ROW + "53033000002,0.5,y,0.3,1.0,z\n", SchemaError,
         "demographics line 3: could not convert string to float: 'y'"),
        ("job_density,pop_density,pct_nonwhite,pct_poverty,pct_college,tract_geoid\n"
         "-2.0,1.0,0.3,2.0,-0.5,53033000001\n", SchemaError,
         "demographics line 2: pct_college must lie in [0, 1], got -0.5"),
        (HEADER + "53033000001,1.5,0.2,0.3,1.0,oops\n", SchemaError,
         "demographics line 2: could not convert string to float: 'oops'"),
        (HEADER + "\n\n" + ROW + "\n53033000002,0.5,0.2,0.3,inf,1.0\n", SchemaError,
         "demographics line 6: pop_density must be a non-negative number, got inf"),
        (HEADER + '"53033\n000001",0.5,0.2,0.3,1.0,1.0\n' + "53033000002,0.5,0.2,0.3,1.0,-0.0\n"
         + "53033000003,0.5,0.2,1.01,1.0,1.0\n", SchemaError,
         "demographics line 5: pct_nonwhite must lie in [0, 1], got 1.01"),
        (HEADER + '"53033\n000001",0.5,0.2,0.3,1.0,1.0\n\n53033000002,0.5,0.2\n', SchemaError,
         "demographics line 5: no pct_nonwhite, pop_density, job_density field"),
        *RANGE_CASES,
    ],
    ids=["range before parse", "range before short row", "range before oversized field",
         "two unparseable fields", "two out-of-range fields", "unparseable before range on a line",
         "after blank lines", "after a multi-line field", "short row after a multi-line field",
         *(case.id for case in RANGE_CASES)],
)
def test_the_first_bad_line_in_file_order_is_reported(tmp_path, text, error, message):
    """Fields are parsed as lines are read, but ranges are checked on whole
    columns; either way the error is the first bad line's. Within a line,
    an unparseable field wins (each field is parsed before any is checked),
    and of two alike the first in column order does. Line numbers are the
    reader's: a blank line counts, and a quoted field may span lines."""
    with pytest.raises(error) as raised:
        read_demographics_csv(io.StringIO(text))
    assert str(raised.value) == message
    path = tmp_path / "demographics.csv"
    path.write_bytes(text.encode("utf-8"))
    assert cached_reads_agree(path, tmp_path / "cache") == (error, message)


def test_missing_demographics_file_fails_stage_read_demographics(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    rc = main(analyze_argv(city, tmp_path / "absent.csv", tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: stage read_demographics: cannot read demographics file ")
    for absent in (tmp_path / "absent.csv", tmp_path):  # missing, and a directory
        error, message = cached_reads_agree(absent, tmp_path / "cache")
        assert error is ParseError and message.startswith(f"cannot read demographics file {absent}: ")
    # The snapshot and boundaries loaded before the failed stage; no memo
    # names the demographics path.
    assert only_memos_of(city["store"] / "cache", *city_inputs(city)[:2])


def test_library_default_writes_no_cache(tmp_path, monkeypatch):
    path = tmp_path / "demographics.csv"
    path.write_text(HEADER + ROW)
    monkeypatch.setattr(content_cache, "write_entry", pytest.fail)
    read_demographics_csv(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demographics.csv"]


# ---------------------------------------------------------------------------
# Demographics fuzz through the analyze command
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_city(tmp_path_factory):
    return build_synthetic_city(tmp_path_factory.mktemp("fuzz_city"), n_cols=4, n_rows=3)


# A table the reader accepts can still fail a later stage: a doubled row is a
# duplicate tract, a column made constant over the retained tracts cannot be
# scaled, and so on.
LATER_STAGE = re.compile(
    r"error: stage (join_demographics|scale_predictors|build_model_frame|fit_poisson): ")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_analyze_on_fuzzed_demographics_exits_cleanly(fuzz_city, data):
    content = data.draw(mutated(fuzz_city["demographics"].read_bytes()), label="content")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demographics.csv"
        path.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(analyze_argv(fuzz_city, path, Path(tmp) / "out"))
        err = err.getvalue()
        # Uncached, missed and hit reads agree.
        cached_reads_agree(path, Path(tmp) / "cache")
        try:
            rows = read_demographics_csv(path)
        except BikeshareEquityError:
            assert rc == 1 and err.startswith("error: stage read_demographics: "), err
            rows = None
        else:
            assert rc == 0 or (rc == 1 and LATER_STAGE.match(err)), err
        # Where the reference reader read the file, the new one agrees; where
        # it failed, the new one fails too (csv.Error, AttributeError and
        # UnicodeDecodeError escaped it). The reference reads the text after
        # a leading byte-order mark, which the new reader drops.
        try:
            ref = outcome(ref_read_demographics_csv, path.read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError:
            ref = UnicodeDecodeError
    if isinstance(ref, list):
        assert list(rows) == ref
    else:
        assert rows is None


# ---------------------------------------------------------------------------
# Bad demographics cache files: each is a silent miss, and the miss rewrites
# the file
# ---------------------------------------------------------------------------


OUTPUTS = ("table1.csv", "table2.csv", "run_manifest.json")


@pytest.fixture
def city(tmp_path):
    return build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)


def analyze(city, out_dir):
    assert main(analyze_argv(city, city["demographics"], out_dir)) == 0
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def demographics_caches(city):
    """Every entry in the store's cache but the other caches' finished files
    and the finished stat memos, so a temporary file of any of them is
    listed."""
    return sorted(
        path for path in (city["store"] / "cache").iterdir()
        if not path.name.startswith(("snapshot-", "tract-index-", "stat-v1-"))
    )


def rewrite(path, edit):
    """Rewrite a cache file under a valid CRC, its header and (n, 5) values
    changed by edit, which returns the values to write."""
    blob = path.read_bytes()
    end = blob.index(b"\n")
    header = json.loads(blob[:end])
    values = edit(header, np.frombuffer(blob[end + 1:-4], np.float64).reshape(-1, 5).copy())
    line = json.dumps(header).encode()
    payload = line + b" " * (-(len(line) + 1) % 8) + b"\n" + values.tobytes()
    path.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "big"))


def edit_header(change):
    def edit(header, values):
        change(header)
        return values
    return lambda path: rewrite(path, edit)


def set_value(row, column, value):
    def edit(header, values):
        values[row, column] = value
        return values
    return lambda path: rewrite(path, edit)


def flip_byte(at):
    def spoil(path):
        data = bytearray(path.read_bytes())
        data[at(len(data))] ^= 0x01
        path.write_bytes(bytes(data))
    return spoil


OTHER_ORDER = "big" if sys.byteorder == "little" else "little"

SPOILERS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "flipped crc byte": flip_byte(lambda size: size - 1),
    "flipped value byte": flip_byte(lambda size: size - 12),
    "wrong key": edit_header(lambda h: h.update(key=h["key"][:-64] + "0" * 64)),
    "other version": edit_header(lambda h: h.update(key=h["key"].replace(PREFIX, "demographics-v0"))),
    "other byte order": edit_header(lambda h: h.update(byteorder=OTHER_ORDER)),
    "n off by one": edit_header(lambda h: h.update(n=h["n"] + 1)),
    "n not an int": edit_header(lambda h: h.update(n=float(h["n"]))),
    "GEOID not a str": edit_header(lambda h: h["geoids"].__setitem__(0, int(h["geoids"][0]))),
    "GEOID missing": edit_header(lambda h: h["geoids"].pop()),
    "GEOIDs not a list": edit_header(lambda h: h.update(geoids=",".join(h["geoids"]))),
    "short body": lambda p: rewrite(p, lambda h, values: values.ravel()[:-1]),
    "a row short": lambda p: rewrite(p, lambda h, values: values[:-1]),
    "long body": lambda p: rewrite(p, lambda h, values: np.append(values, 0.5)),
    "fraction NaN": set_value(0, 0, np.nan),
    "density NaN": set_value(-1, 3, np.nan),
    "fraction above 1": set_value(1, 1, 1.5),
    "fraction below 0": set_value(0, 2, -0.25),
    "density infinite": set_value(0, 4, np.inf),
    "density negative": set_value(2, 3, -1.0),
    "a directory": lambda p: (p.unlink(), p.mkdir()),
}


def test_an_unchanged_rewrite_is_still_a_hit(tmp_path, city, monkeypatch):
    """The crafted files below differ from a good one only where they say."""
    expected = analyze(city, tmp_path / "clean")
    (cache_file,) = demographics_caches(city)
    rewrite(cache_file, lambda header, values: values)
    monkeypatch.setattr(join_aggregate, "_parse_demographics", no_parse)
    assert analyze(city, tmp_path / "again") == expected


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_bad_cache_file_is_a_silent_miss(tmp_path, city, monkeypatch, spoil):
    expected = analyze(city, tmp_path / "clean")
    (cache_file,) = demographics_caches(city)
    assert cache_file.name == content_key(PREFIX, city["demographics"].read_bytes())
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    SPOILERS[spoil](cache_file)
    parses = []
    parse = join_aggregate._parse_demographics
    monkeypatch.setattr(join_aggregate, "_parse_demographics", lambda d: parses.append(1) or parse(d))
    assert analyze(city, tmp_path / "spoiled") == expected
    assert parses == [1]
    assert only_memos_of(city["store"] / "cache", *city_inputs(city))
    if spoil == "a directory":
        # Nothing replaces a directory, and no temporary file is left.
        assert demographics_caches(city) == [cache_file] and cache_file.is_dir()
        return
    # The miss rewrote the file, so the next run is a hit.
    assert demographics_caches(city) == [cache_file]
    assert analyze(city, tmp_path / "again") == expected
    assert parses == [1]
