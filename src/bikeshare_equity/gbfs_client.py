"""GBFS (General Bikeshare Feed Specification) client.

Discovers bikeshare systems from a catalog CSV, fetches their auto-discovery
documents and feeds over HTTP (or from local files, which is handy for
archived documents and fixtures), normalizes the format deviations that occur
in the wild, and turns station_information / free_bike_status payloads into
the columns of one ``snapshot_store.Observations``, built without a
per-entity record; ``snapshot_store`` owns the format they are stored and
read back in.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable
from urllib.parse import urlsplit

from .errors import ParseError, SchemaError, TransportError
from .snapshot_store import DockingType, Observations

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 15.0
TIMEOUT_ENV_VAR = "BIKESHARE_HTTP_TIMEOUT"
MAX_RETRIES = 2
# Initial delay before the first retry; doubled after each failed attempt.
RETRY_BACKOFF_SECONDS = 1.0

MAX_IN_FLIGHT = 8
# Sources fetched over the network; anything else is read from local files.
REMOTE_SCHEMES = ("http://", "https://")

STATION_FEED = "station_information"
FREE_BIKE_FEED = "free_bike_status"
STATION_STATUS_FEED = "station_status"

CATALOG_COLUMNS = ("system_id", "country_code", "name", "auto_discovery_url")

# The longest entity id a harvest keeps: its snapshot field stays within csv's
# default field size limit (131,072) even quoted, every character a doubled '"'.
MAX_ENTITY_ID_LENGTH = (131_072 - 2) // 2


@dataclass(frozen=True)
class SystemEntry:
    system_id: str
    name: str
    country_code: str
    discovery_url: str


@dataclass(frozen=True)
class FeedManifest:
    system_id: str
    feeds: dict[str, str]
    language: str
    last_updated: int
    ttl: int


@dataclass(frozen=True)
class FeedFailure:
    system_id: str
    feed: str
    message: str


@dataclass
class HarvestDiagnostics:
    failures: list[FeedFailure] = field(default_factory=list)
    dropped_entities: int = 0


def http_timeout() -> float:
    """Per-request timeout in seconds, overridable via BIKESHARE_HTTP_TIMEOUT.

    Only a finite positive number overrides the default: the HTTP stack
    rejects a timeout of zero or less, which would fail every remote system.
    """
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            timeout = float(raw)
        except ValueError:
            timeout = math.nan
        if 0.0 < timeout < math.inf:  # NaN fails too
            return timeout
        logger.warning(
            "ignoring %s=%r: not a finite positive number of seconds", TIMEOUT_ENV_VAR, raw
        )
    return DEFAULT_TIMEOUT


def fetch_document(source: str) -> bytes:
    """Fetch raw bytes from an http(s) URL, a file:// URL, or a local path.

    HTTP fetches retry server-side failures up to MAX_RETRIES times with a
    doubled backoff between attempts; client errors (4xx) fail immediately.

    Raises:
        TransportError: if the source cannot be read.
    """
    source = str(source)
    if source.startswith(REMOTE_SCHEMES):
        # Imported here so that commands working on local files never load it.
        import requests

        timeout = http_timeout()
        delay = RETRY_BACKOFF_SECONDS
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            try:
                response = requests.get(source, timeout=timeout)
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code == 200:
                    return response.content
                error = TransportError(
                    f"GET {source} -> HTTP {response.status_code}",
                    status=response.status_code,
                )
                if response.status_code < 500:
                    raise error
                last_error = error
            if attempt < MAX_RETRIES:
                time.sleep(delay)
                delay *= 2
        if isinstance(last_error, TransportError):
            raise last_error
        raise TransportError(f"GET {source} failed: {last_error}")
    path = source[len("file://"):] if source.startswith("file://") else source
    try:
        # open() rather than Path.read_bytes(): a harvest reads a hundred
        # feeds, and pathlib's parsing of each path costs as much as the read.
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise TransportError(f"cannot read {source}: {exc}") from exc


def _load_json(raw: bytes, decode: Callable[[str], object] = json.loads) -> dict:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"document is not UTF-8 at byte {exc.start}", offset=exc.start
        ) from exc
    try:
        doc = decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at offset {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    except (ValueError, RecursionError) as exc:
        # An integer literal over the int-conversion digit limit, or nesting
        # deeper than the decoder's recursion limit.
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value is not an object")
    return doc


def _valid_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
    except ValueError:  # an unbalanced "[" in the host, say
        return False
    if parts.scheme in ("http", "https"):
        return bool(parts.netloc)
    if parts.scheme == "file":
        return bool(parts.path)
    return False


def fetch_system_catalog(
    catalog_source: str | Path, country_filter: str | None = None
) -> list[SystemEntry]:
    """Load the system catalog CSV and return entries ordered by system_id.

    Args:
        catalog_source: URL or file path of a CSV with at least the columns
            system_id, country_code, name, auto_discovery_url.
        country_filter: optional ISO-3166 alpha-2 code; only matching systems
            are returned.

    Raises:
        TransportError: catalog unreachable.
        SchemaError: missing header columns, duplicate or empty system_id,
            or an invalid discovery URL.
        ParseError: the catalog is not UTF-8 text or not CSV (a field over
            the csv module's size limit, say); the message names the line.
    """
    raw = fetch_document(str(catalog_source))
    try:
        # A leading byte-order mark is dropped, as the utf-8-sig codec would.
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"catalog line {line}: not UTF-8 text at byte {exc.start}", offset=exc.start
        ) from None
    reader = csv.DictReader(io.StringIO(text))
    try:
        entries = _catalog_entries(reader)
    except csv.Error as exc:
        # The underlying csv.reader's count: DictReader's own lags on an error.
        raise ParseError(f"catalog line {reader.reader.line_num}: {exc}") from None
    if country_filter:
        wanted = country_filter.strip().upper()
        entries = [entry for entry in entries if entry.country_code == wanted]
    entries.sort(key=lambda entry: entry.system_id)
    return entries


def _catalog_entries(reader: csv.DictReader) -> list[SystemEntry]:
    header = reader.fieldnames or []
    missing = [column for column in CATALOG_COLUMNS if column not in header]
    if missing:
        raise SchemaError(f"catalog header missing column(s): {', '.join(missing)}")
    entries: list[SystemEntry] = []
    seen: set[str] = set()
    for row in reader:
        system_id = (row["system_id"] or "").strip()
        if not system_id:
            raise SchemaError("catalog row with empty system_id")
        if system_id in seen:
            raise SchemaError(f"duplicate system_id in catalog: {system_id}")
        seen.add(system_id)
        url = (row["auto_discovery_url"] or "").strip()
        if not _valid_url(url):
            raise SchemaError(f"invalid auto_discovery_url for {system_id}: {url!r}")
        entries.append(
            SystemEntry(
                system_id=system_id,
                name=(row["name"] or "").strip(),
                country_code=(row["country_code"] or "").strip().upper(),
                discovery_url=url,
            )
        )
    return entries


def _locate_feeds(doc: dict) -> tuple[str, list]:
    """Find the feeds array, tolerating the omitted-language-layer deviation."""
    data = doc.get("data")
    if not isinstance(data, dict):
        raise SchemaError("discovery document missing data object")
    if isinstance(data.get("feeds"), list):
        return "", data["feeds"]
    for language, block in data.items():
        if isinstance(block, dict) and isinstance(block.get("feeds"), list):
            return str(language), block["feeds"]
    raise SchemaError("discovery document missing feeds array")


def discover_feeds(entry: SystemEntry) -> FeedManifest:
    """Fetch a system's gbfs.json and map every advertised feed name to its URL.

    When several languages are advertised the first one listed is used;
    coordinates do not depend on language.
    """
    raw = fetch_document(entry.discovery_url)
    doc = _load_json(raw)
    language, feed_list = _locate_feeds(doc)
    if not feed_list:
        raise SchemaError(f"{entry.system_id}: discovery document advertises no feeds")
    feeds: dict[str, str] = {}
    for item in feed_list:
        if not isinstance(item, dict) or not item.get("name") or not item.get("url"):
            raise SchemaError(
                f"{entry.system_id}: feed entry without both name and url"
            )
        feeds[str(item["name"])] = str(item["url"])
    try:
        last_updated = int(doc.get("last_updated", 0))
        ttl = max(0, int(doc.get("ttl", 0)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(
            f"{entry.system_id}: discovery document has a non-integer "
            f"last_updated or ttl: {exc}"
        ) from exc
    return FeedManifest(
        system_id=entry.system_id,
        feeds=feeds,
        language=language,
        last_updated=last_updated,
        ttl=ttl,
    )


def _coerce_coordinate(value) -> float | None:
    """GBFS requires numeric lat/lon, but string-encoded decimals occur in the wild."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            return None
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


@dataclass(frozen=True)
class _EntityFeed:
    """How one entity feed is laid out: where its entries are, which member
    is their id, and the two boolean flags the harvest reads, if any (absent
    is false)."""

    name: str
    list_key: str
    id_key: str
    flags: tuple[str, str] | None = None


_STATIONS = _EntityFeed(STATION_FEED, "stations", "station_id")
_BIKES = _EntityFeed(FREE_BIKE_FEED, "bikes", "bike_id", ("is_reserved", "is_disabled"))

# Decodes a JSON number literal with a fraction or an exponent to its own
# ASCII bytes, not a float, so that a harvest can store a coordinate's digits
# as the feed wrote them. JSON decodes nothing else to bytes, so a string
# "45.5" stays distinct from a literal 45.5.
_LITERAL_DECODER = json.JSONDecoder(parse_float=str.encode)


def _entity_rows(
    document: bytes, system_id: str, feed: _EntityFeed
) -> tuple[list[tuple], int]:
    """Decode an entity feed; return ``(id, lat, lon, lat_text, lon_text,
    *flags)`` for every usable entry, and the tally of the others (dropped).

    An entry is usable when it is an object with a truthy id that a snapshot
    can hold (_storable_id) and lat/lon that _coerce_coordinate accepts and
    that lie within range. The entries are read, never rewritten.

    Number literals with a fraction or an exponent are decoded to their own
    ASCII bytes (_LITERAL_DECODER). A coordinate literal, the common case, is
    float() of its bytes, the double json would give, and its text is those
    bytes. Any other coordinate (a JSON string, an integer) is
    _coerce_coordinate's float, and its text is that float's repr. An id,
    and any literal within it, and a flag literal are read as those floats
    before the usual rules apply: str() for an id, bool() for a flag.

    Raises:
        ParseError: undecodable document (carries the byte offset).
        SchemaError: the entity list is missing.
    """
    payload = _load_json(document, _LITERAL_DECODER.decode)
    data = payload.get("data")
    entries = data.get(feed.list_key) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise SchemaError(f"{system_id}: {feed.name} missing data.{feed.list_key}")
    id_key, flags = feed.id_key, feed.flags
    first_flag, second_flag = flags or (None, None)
    rows = []
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        # A coordinate that _coerce_coordinate rejects gets the text b"None",
        # which is never kept: its entry is dropped below.
        lat_text = entry.get("lat")
        if type(lat_text) is bytes:
            lat = float(lat_text)
        else:
            lat = _coerce_coordinate(lat_text)
            lat_text = repr(lat).encode()
        lon_text = entry.get("lon")
        if type(lon_text) is bytes:
            lon = float(lon_text)
        else:
            lon = _coerce_coordinate(lon_text)
            lon_text = repr(lon).encode()
        entity_id = entry.get(id_key)
        if type(entity_id) is not str:
            entity_id = _with_floats(entity_id)
        if entity_id and lat is not None and lon is not None:
            if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
                if flags is None:
                    rows.append((str(entity_id), lat, lon, lat_text, lon_text))
                else:
                    first, second = entry.get(first_flag), entry.get(second_flag)
                    if type(first) is bytes:
                        first = float(first)
                    if type(second) is bytes:
                        second = float(second)
                    rows.append((
                        str(entity_id), lat, lon, lat_text, lon_text, bool(first), bool(second),
                    ))
    # A short document with no backslash (so no escape, so no NUL and no
    # lone surrogate) clears every id, and so does one pass over the joined
    # ids; only a feed that fails both is checked id by id.
    if not (len(document) <= MAX_ENTITY_ID_LENGTH and b"\\" not in document):
        ids = "".join(map(itemgetter(0), rows))
        if not (ids.isascii() and "\0" not in ids and len(ids) <= MAX_ENTITY_ID_LENGTH):
            rows = [row for row in rows if _storable_id(row[0])]
    return rows, len(entries) - len(rows)


def _with_floats(value):
    """value as json would decode it: every number literal that
    _LITERAL_DECODER left as bytes, at any depth, is the float of its
    bytes."""
    if type(value) is bytes:
        return float(value)
    if type(value) is list:
        return [_with_floats(item) for item in value]
    if type(value) is dict:
        return {key: _with_floats(item) for key, item in value.items()}
    return value


def _storable_id(entity_id: str) -> bool:
    """Whether a snapshot can hold the id and every reader read it back: it
    encodes as UTF-8 (no lone surrogate), holds no NUL (csv before Python
    3.11 reads none) and is at most MAX_ENTITY_ID_LENGTH characters."""
    if len(entity_id) > MAX_ENTITY_ID_LENGTH or "\0" in entity_id:
        return False
    try:
        entity_id.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_station_status(document: bytes, system_id: str) -> dict[str, int]:
    """Map station_id -> num_bikes_available; missing or invalid counts are 0.

    Only used by the available-bikes docked counting mode.
    """
    payload = _load_json(document)
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("stations"), list):
        raise SchemaError(f"{system_id}: station_status missing data.stations")
    available: dict[str, int] = {}
    for entry in data["stations"]:
        if not isinstance(entry, dict) or not entry.get("station_id"):
            continue
        count = entry.get("num_bikes_available")
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            count = 0
        available[str(entry["station_id"])] = count
    return available


def _harvest_system(
    entry: SystemEntry, docked_mode: str
) -> tuple[list[tuple], list[tuple], list[FeedFailure], int]:
    """One system's harvest, which never raises: an unexpected exception (a
    defect, or a feed shape no check foresaw) becomes a FeedFailure naming its
    type, so one broken system cannot abort the others."""
    try:
        return _harvest_feeds(entry, docked_mode)
    except Exception as exc:
        logger.debug("harvest of %s failed", entry.system_id, exc_info=True)
        return [], [], [FeedFailure(entry.system_id, "harvest", f"{type(exc).__name__}: {exc}")], 0


def _harvest_feeds(
    entry: SystemEntry, docked_mode: str
) -> tuple[list[tuple], list[tuple], list[FeedFailure], int]:
    """The system's kept ``(id, lat, lon, lat_text, lon_text)`` rows, docked
    and then free, its feed failures and its dropped tally."""
    system_id = entry.system_id
    failures: list[FeedFailure] = []
    docked: list[tuple] = []
    free: list[tuple] = []
    dropped = 0
    try:
        manifest = discover_feeds(entry)
    except (TransportError, SchemaError, ParseError) as exc:
        return [], [], [FeedFailure(system_id, "gbfs", str(exc))], 0

    station_url = manifest.feeds.get(STATION_FEED)
    bike_url = manifest.feeds.get(FREE_BIKE_FEED)
    if station_url is None and bike_url is None:
        message = "neither station_information nor free_bike_status advertised"
        return [], [], [FeedFailure(system_id, "gbfs", message)], 0

    available: dict[str, int] | None = None
    if docked_mode == "available_bikes" and station_url is not None:
        status_url = manifest.feeds.get(STATION_STATUS_FEED)
        if status_url is None:
            message = "feed not advertised; counting one observation per station"
            failures.append(FeedFailure(system_id, STATION_STATUS_FEED, message))
        else:
            try:
                available = parse_station_status(
                    fetch_document(status_url), system_id
                )
            except (TransportError, SchemaError, ParseError) as exc:
                failures.append(FeedFailure(system_id, STATION_STATUS_FEED, str(exc)))

    if station_url is not None:
        try:
            rows, feed_dropped = _entity_rows(
                fetch_document(station_url), system_id, _STATIONS
            )
            dropped += feed_dropped
            if available is None:
                docked = rows
            else:
                docked = [
                    (f"{station_id}#{i}", lat, lon, lat_text, lon_text)
                    for station_id, lat, lon, lat_text, lon_text in rows
                    for i in range(available.get(station_id, 0))
                ]
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(system_id, STATION_FEED, str(exc)))

    if bike_url is not None:
        try:
            rows, feed_dropped = _entity_rows(
                fetch_document(bike_url), system_id, _BIKES
            )
            dropped += feed_dropped
            # Reserved or disabled bikes are not spatially accessible supply.
            free = [row[:5] for row in rows if not (row[5] or row[6])]
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(system_id, FREE_BIKE_FEED, str(exc)))

    return docked, free, failures, dropped


def harvest(
    entries: Iterable[SystemEntry],
    clock: Callable[[], float] = time.time,
    *,
    docked_mode: str = "stations",
) -> tuple[Observations, HarvestDiagnostics]:
    """Fetch and parse every system's feeds into one Observations.

    Docked observations come from station_information (one per station, or one
    per available bike when docked_mode="available_bikes" and station_status is
    served); free observations are non-reserved, non-disabled bikes from
    free_bike_status. A failing system never aborts the harvest: its failures
    are recorded in the returned diagnostics.

    Systems with an http(s) discovery URL are fetched concurrently, at most
    MAX_IN_FLIGHT at a time, to overlap network waits. The others are read
    one after another on the calling thread while those run: a local read has
    no wait to hide, and threads would only contend for the interpreter lock.
    Results are merged in system_id order, each system's docked rows before
    its free ones, so output is deterministic regardless of completion order.
    """
    ordered = sorted(entries, key=lambda entry: entry.system_id)
    if not ordered:
        raise ValueError("harvest requires at least one catalog entry")
    if docked_mode not in ("stations", "available_bikes"):
        raise ValueError(f"unknown docked_mode: {docked_mode!r}")
    observed_at = int(clock())
    remote = [entry for entry in ordered if entry.discovery_url.startswith(REMOTE_SCHEMES)]
    # The pool starts its threads on submit, so a local-only catalog starts none.
    with ThreadPoolExecutor(max_workers=max(1, min(MAX_IN_FLIGHT, len(remote)))) as pool:
        futures = {
            entry.system_id: pool.submit(_harvest_system, entry, docked_mode)
            for entry in remote
        }
        results = {
            entry.system_id: _harvest_system(entry, docked_mode)
            for entry in ordered
            if entry.system_id not in futures
        }
        for system_id, future in futures.items():
            results[system_id] = future.result()
    rows: list[tuple] = []
    system_id_runs: list[list] = []
    kind_runs: list[list] = []
    diagnostics = HarvestDiagnostics()
    for entry in ordered:
        docked, free, failures, dropped = results[entry.system_id]
        rows += docked
        rows += free
        if docked or free:
            system_id_runs.append([entry.system_id, len(docked) + len(free)])
        _add_run(kind_runs, DockingType.DOCKED, len(docked))
        _add_run(kind_runs, DockingType.FREE, len(free))
        diagnostics.failures.extend(failures)
        diagnostics.dropped_entities += dropped
    entity_ids, lats, lons, lat_texts, lon_texts = zip(*rows) if rows else ((),) * 5
    observations = Observations(
        system_id_runs, entity_ids, array("d", lats), array("d", lons), kind_runs,
        [[observed_at, len(rows)]] if rows else [], coordinate_texts=(lat_texts, lon_texts),
    )
    return observations, diagnostics


def _add_run(runs: list[list], value, count: int) -> None:
    """Extend [value, count] runs by count more of value: the last run, if
    it holds value, else a new one."""
    if count:
        if runs and runs[-1][0] is value:
            runs[-1][1] += count
        else:
            runs.append([value, count])
