"""The system catalog's error contract: a catalog that is not UTF-8 or not
CSV fails with a ParseError naming the line, and a fuzz of catalog files
through the catalog and harvest commands never ends in a traceback."""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_equity import gbfs_client
from bikeshare_equity.cli import main
from bikeshare_equity.errors import ParseError, SchemaError, TransportError
from bikeshare_equity.gbfs_client import fetch_system_catalog
from helpers import make_system, mutated, write_catalog

HEADER = b"system_id,country_code,name,auto_discovery_url\n"
ROW = b"a_city,US,A City,file:///nowhere/gbfs.json\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (HEADER + ROW + b"b_city,US,B \xff City,file:///x/gbfs.json\n",
         "catalog line 3: not UTF-8 text at byte 102"),
        (HEADER + b"a_city,US," + b"x" * 140_000 + b",file:///x/gbfs.json\n",
         "catalog line 2: field larger than field limit"),
    ],
    ids=["not UTF-8", "oversized field"],
)
def test_undecodable_catalog_raises_parse_error_naming_line(tmp_path, capsys, content, message):
    path = tmp_path / "catalog.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=f"^{message}"):
        fetch_system_catalog(path)
    for argv in (["catalog"], ["harvest", "--store", str(tmp_path / "store")]):
        assert main([*argv, "--catalog", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_catalog_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_bytes(b"\xef\xbb\xbf" + HEADER + ROW)
    assert [entry.system_id for entry in fetch_system_catalog(path)] == ["a_city"]


def test_catalog_url_that_urlsplit_refuses_is_invalid(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_bytes(HEADER + b"a_city,US,A City,http://[::1/gbfs.json\n")
    with pytest.raises(SchemaError, match="invalid auto_discovery_url for a_city"):
        fetch_system_catalog(path)


@pytest.fixture(scope="module")
def fuzz_catalog(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_catalog")
    systems = [
        make_system(root / "a", "a_city", stations=[{"station_id": "s", "lat": 45.0, "lon": -122.0}]),
        make_system(root / "b", "b_city", bikes=[{"bike_id": "b", "lat": 40.0, "lon": -100.0}]),
    ]
    return write_catalog(root / "catalog.csv", systems).read_bytes()


def local_only(source):
    """fetch_document without the network: a mutated URL may turn remote."""
    if str(source).startswith(gbfs_client.REMOTE_SCHEMES):
        raise TransportError(f"no network in this test: {source}")
    return FETCH_DOCUMENT(source)


FETCH_DOCUMENT = gbfs_client.fetch_document


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_catalog_and_harvest_on_fuzzed_catalog_exit_cleanly(fuzz_catalog, data):
    content = data.draw(mutated(fuzz_catalog), label="content")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        gbfs_client, "fetch_document", local_only
    ):
        path = Path(tmp) / "catalog.csv"
        path.write_bytes(content)
        for argv in (["catalog"], ["harvest", "--store", str(Path(tmp) / "store")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([*argv, "--catalog", str(path)])
            err = err.getvalue()
            # Per-system warnings may come first, and a quoted system_id may
            # hold a newline, so the error line is looked for anywhere.
            # Exit 2 is the usage error of a harvest with nothing to harvest.
            assert rc == 0 or (rc == 1 and re.search("^error: ", err, re.M)) or (
                rc == 2 and re.search("^error: catalog matched no systems", err, re.M)
            ), (argv[0], rc, err)
