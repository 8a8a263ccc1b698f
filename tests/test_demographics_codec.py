"""The demographics CSV reader: its error contract, the DictReader reader it
replaced (kept below as a reference), and a fuzz of demographics files
through the analyze command."""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity.cli import main
from bikeshare_equity.errors import BikeshareEquityError, ParseError, SchemaError
from bikeshare_equity.join_aggregate import (
    DEMOGRAPHICS_COLUMNS,
    PREDICTOR_NAMES,
    DemographicsRow,
    read_demographics_csv,
)
from helpers import build_synthetic_city, mutated

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
            rows.append(
                DemographicsRow(
                    tract_geoid=row["tract_geoid"].strip(),
                    **{name: float(row[name]) for name in PREDICTOR_NAMES},
                )
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"demographics line {line_number}: {exc}") from exc
    return rows


def outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc)


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
        assert read_demographics_csv(io.StringIO(text)) == ref_read_demographics_csv(text), text


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark."""
    text = HEADER + "53033000001,0.5,0.2,0.3,120.5,77.0\n"
    expected = [DemographicsRow("53033000001", 0.5, 0.2, 0.3, 120.5, 77.0)]
    path = tmp_path / "demographics.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert read_demographics_csv(path) == expected
    assert read_demographics_csv(io.StringIO("\ufeff" + text)) == expected
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

    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    rc = main(analyze_argv(city, path, tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: stage read_demographics: {message}")


def test_missing_demographics_file_fails_stage_read_demographics(tmp_path, capsys):
    city = build_synthetic_city(tmp_path / "city", n_cols=4, n_rows=3)
    rc = main(analyze_argv(city, tmp_path / "absent.csv", tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: stage read_demographics: cannot read demographics file ")


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
        assert rows == ref
    else:
        assert rows is None
