"""GBFS (General Bikeshare Feed Specification) client.

Discovers bikeshare systems from a catalog CSV, fetches their auto-discovery
documents and feeds over HTTP (or from local files, which is handy for
archived documents and fixtures), normalizes the format deviations that occur
in the wild, and turns station_information / free_bike_status payloads into
canonical bike observations.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, TextIO
from urllib.parse import urlsplit

import requests

from .errors import ParseError, SchemaError, TransportError

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 15.0
TIMEOUT_ENV_VAR = "BIKESHARE_HTTP_TIMEOUT"
MAX_RETRIES = 2
# Initial delay before the first retry; doubled after each failed attempt.
RETRY_BACKOFF_SECONDS = 1.0

DEFAULT_MAX_IN_FLIGHT = 8

STATION_FEED = "station_information"
FREE_BIKE_FEED = "free_bike_status"
STATION_STATUS_FEED = "station_status"

CATALOG_COLUMNS = ("system_id", "country_code", "name", "auto_discovery_url")
OBSERVATION_COLUMNS = (
    "system_id",
    "entity_id",
    "lat",
    "lon",
    "docking_type",
    "observed_at",
)


class DockingType(str, Enum):
    DOCKED = "docked"
    FREE = "free"


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
class Station:
    system_id: str
    station_id: str
    lat: float
    lon: float
    name: str | None = None
    capacity: int | None = None


@dataclass(frozen=True)
class FreeBike:
    system_id: str
    bike_id: str
    lat: float
    lon: float
    is_reserved: bool = False
    is_disabled: bool = False


@dataclass(frozen=True)
class BikeObservation:
    system_id: str
    entity_id: str
    lat: float
    lon: float
    docking_type: DockingType
    observed_at: int


@dataclass
class ParseDiagnostics:
    """Tally of feed entries dropped during parsing."""

    dropped: int = 0


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
    """Per-request timeout in seconds, overridable via BIKESHARE_HTTP_TIMEOUT."""
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            return float(raw)
        except ValueError:
            logger.warning("ignoring non-numeric %s=%r", TIMEOUT_ENV_VAR, raw)
    return DEFAULT_TIMEOUT


def fetch_document(source: str, timeout: float | None = None) -> bytes:
    """Fetch raw bytes from an http(s) URL, a file:// URL, or a local path.

    HTTP fetches retry server-side failures up to MAX_RETRIES times with a
    doubled backoff between attempts; client errors (4xx) fail immediately.

    Raises:
        TransportError: if the source cannot be read.
    """
    source = str(source)
    if source.startswith(("http://", "https://")):
        if timeout is None:
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
        return Path(path).read_bytes()
    except OSError as exc:
        raise TransportError(f"cannot read {source}: {exc}") from exc


def _load_json(raw: bytes) -> dict:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"document is not UTF-8 at byte {exc.start}", offset=exc.start
        ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at offset {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value is not an object")
    return doc


def _valid_url(url: str) -> bool:
    parts = urlsplit(url)
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
    """
    raw = fetch_document(str(catalog_source))
    reader = csv.DictReader(io.StringIO(raw.decode("utf-8-sig")))
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
    if country_filter:
        wanted = country_filter.strip().upper()
        entries = [entry for entry in entries if entry.country_code == wanted]
    entries.sort(key=lambda entry: entry.system_id)
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


def discover_feeds(entry: SystemEntry, timeout: float | None = None) -> FeedManifest:
    """Fetch a system's gbfs.json and map every advertised feed name to its URL.

    When several languages are advertised the first one listed is used;
    coordinates do not depend on language.
    """
    raw = fetch_document(entry.discovery_url, timeout=timeout)
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
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def canonicalize_station_payload(payload: dict) -> dict:
    """Rewrite known deviations in a station_information payload to spec form.

    Idempotent: canonicalizing an already-canonical payload returns an equal
    document.
    """
    out = copy.deepcopy(payload)
    data = out.get("data")
    stations = data.get("stations") if isinstance(data, dict) else None
    for station in stations or []:
        if not isinstance(station, dict):
            continue
        for key in ("lat", "lon"):
            coerced = _coerce_coordinate(station.get(key))
            if coerced is not None:
                station[key] = coerced
    return out


def canonicalize_bike_payload(payload: dict) -> dict:
    """Rewrite known deviations in a free_bike_status payload to spec form."""
    out = copy.deepcopy(payload)
    data = out.get("data")
    bikes = data.get("bikes") if isinstance(data, dict) else None
    for bike in bikes or []:
        if not isinstance(bike, dict):
            continue
        for key in ("lat", "lon"):
            coerced = _coerce_coordinate(bike.get(key))
            if coerced is not None:
                bike[key] = coerced
        bike.setdefault("is_reserved", False)
        bike.setdefault("is_disabled", False)
    return out


def _valid_lat(value) -> bool:
    return isinstance(value, float) and -90.0 <= value <= 90.0


def _valid_lon(value) -> bool:
    return isinstance(value, float) and -180.0 <= value <= 180.0


def parse_station_information(
    document: bytes, system_id: str
) -> tuple[list[Station], ParseDiagnostics]:
    """Parse a station_information payload into Station records.

    Entries missing an id or valid coordinates are dropped and tallied in the
    returned diagnostics rather than failing the document.

    Raises:
        ParseError: undecodable document (carries the byte offset).
        SchemaError: data.stations missing.
    """
    payload = _load_json(document)
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("stations"), list):
        raise SchemaError(f"{system_id}: station_information missing data.stations")
    payload = canonicalize_station_payload(payload)
    stations: list[Station] = []
    diagnostics = ParseDiagnostics()
    for entry in payload["data"]["stations"]:
        if not isinstance(entry, dict):
            diagnostics.dropped += 1
            continue
        station_id = entry.get("station_id")
        lat = entry.get("lat")
        lon = entry.get("lon")
        if not station_id or not _valid_lat(lat) or not _valid_lon(lon):
            diagnostics.dropped += 1
            continue
        capacity = entry.get("capacity")
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 0:
            capacity = None
        name = entry.get("name")
        stations.append(
            Station(
                system_id=system_id,
                station_id=str(station_id),
                lat=lat,
                lon=lon,
                name=str(name) if name is not None else None,
                capacity=capacity,
            )
        )
    return stations, diagnostics


def parse_free_bike_status(
    document: bytes, system_id: str
) -> tuple[list[FreeBike], ParseDiagnostics]:
    """Parse a free_bike_status payload into FreeBike records.

    Mirrors parse_station_information over data.bikes; absent is_reserved and
    is_disabled flags default to false.
    """
    payload = _load_json(document)
    data = payload.get("data")
    if not isinstance(data, dict) or not isinstance(data.get("bikes"), list):
        raise SchemaError(f"{system_id}: free_bike_status missing data.bikes")
    payload = canonicalize_bike_payload(payload)
    bikes: list[FreeBike] = []
    diagnostics = ParseDiagnostics()
    for entry in payload["data"]["bikes"]:
        if not isinstance(entry, dict):
            diagnostics.dropped += 1
            continue
        bike_id = entry.get("bike_id")
        lat = entry.get("lat")
        lon = entry.get("lon")
        if not bike_id or not _valid_lat(lat) or not _valid_lon(lon):
            diagnostics.dropped += 1
            continue
        bikes.append(
            FreeBike(
                system_id=system_id,
                bike_id=str(bike_id),
                lat=lat,
                lon=lon,
                is_reserved=bool(entry.get("is_reserved", False)),
                is_disabled=bool(entry.get("is_disabled", False)),
            )
        )
    return bikes, diagnostics


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
    entry: SystemEntry,
    observed_at: int,
    docked_mode: str,
    timeout: float | None,
) -> tuple[list[BikeObservation], list[FeedFailure], int]:
    failures: list[FeedFailure] = []
    observations: list[BikeObservation] = []
    dropped = 0
    try:
        manifest = discover_feeds(entry, timeout=timeout)
    except (TransportError, SchemaError, ParseError) as exc:
        return [], [FeedFailure(entry.system_id, "gbfs", str(exc))], 0

    station_url = manifest.feeds.get(STATION_FEED)
    bike_url = manifest.feeds.get(FREE_BIKE_FEED)
    if station_url is None and bike_url is None:
        return (
            [],
            [
                FeedFailure(
                    entry.system_id,
                    "gbfs",
                    "neither station_information nor free_bike_status advertised",
                )
            ],
            0,
        )

    available: dict[str, int] | None = None
    if docked_mode == "available_bikes" and station_url is not None:
        status_url = manifest.feeds.get(STATION_STATUS_FEED)
        if status_url is None:
            failures.append(
                FeedFailure(
                    entry.system_id,
                    STATION_STATUS_FEED,
                    "feed not advertised; counting one observation per station",
                )
            )
        else:
            try:
                available = parse_station_status(
                    fetch_document(status_url, timeout=timeout), entry.system_id
                )
            except (TransportError, SchemaError, ParseError) as exc:
                failures.append(
                    FeedFailure(entry.system_id, STATION_STATUS_FEED, str(exc))
                )

    if station_url is not None:
        try:
            stations, diag = parse_station_information(
                fetch_document(station_url, timeout=timeout), entry.system_id
            )
            dropped += diag.dropped
            for station in stations:
                if available is None:
                    observations.append(
                        BikeObservation(
                            system_id=entry.system_id,
                            entity_id=station.station_id,
                            lat=station.lat,
                            lon=station.lon,
                            docking_type=DockingType.DOCKED,
                            observed_at=observed_at,
                        )
                    )
                else:
                    for i in range(available.get(station.station_id, 0)):
                        observations.append(
                            BikeObservation(
                                system_id=entry.system_id,
                                entity_id=f"{station.station_id}#{i}",
                                lat=station.lat,
                                lon=station.lon,
                                docking_type=DockingType.DOCKED,
                                observed_at=observed_at,
                            )
                        )
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(entry.system_id, STATION_FEED, str(exc)))

    if bike_url is not None:
        try:
            bikes, diag = parse_free_bike_status(
                fetch_document(bike_url, timeout=timeout), entry.system_id
            )
            dropped += diag.dropped
            for bike in bikes:
                # Reserved or disabled bikes are not spatially accessible supply.
                if bike.is_reserved or bike.is_disabled:
                    continue
                observations.append(
                    BikeObservation(
                        system_id=entry.system_id,
                        entity_id=bike.bike_id,
                        lat=bike.lat,
                        lon=bike.lon,
                        docking_type=DockingType.FREE,
                        observed_at=observed_at,
                    )
                )
        except (TransportError, SchemaError, ParseError) as exc:
            failures.append(FeedFailure(entry.system_id, FREE_BIKE_FEED, str(exc)))

    return observations, failures, dropped


def harvest(
    entries: Iterable[SystemEntry],
    clock: Callable[[], float] = time.time,
    *,
    docked_mode: str = "stations",
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    timeout: float | None = None,
) -> tuple[list[BikeObservation], HarvestDiagnostics]:
    """Fetch and parse every system's feeds into one observation list.

    Docked observations come from station_information (one per station, or one
    per available bike when docked_mode="available_bikes" and station_status is
    served); free observations are non-reserved, non-disabled bikes from
    free_bike_status. A failing system never aborts the harvest: its failures
    are recorded in the returned diagnostics.

    Systems are fetched concurrently with at most max_in_flight requests in
    flight, and results are merged in system_id order so output is
    deterministic regardless of completion order.
    """
    ordered = sorted(entries, key=lambda entry: entry.system_id)
    if not ordered:
        raise ValueError("harvest requires at least one catalog entry")
    if docked_mode not in ("stations", "available_bikes"):
        raise ValueError(f"unknown docked_mode: {docked_mode!r}")
    observed_at = int(clock())
    results: dict[str, tuple[list[BikeObservation], list[FeedFailure], int]] = {}
    workers = max(1, min(max_in_flight, len(ordered)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            entry.system_id: pool.submit(
                _harvest_system, entry, observed_at, docked_mode, timeout
            )
            for entry in ordered
        }
        for system_id, future in futures.items():
            results[system_id] = future.result()
    observations: list[BikeObservation] = []
    diagnostics = HarvestDiagnostics()
    for entry in ordered:
        system_obs, failures, dropped = results[entry.system_id]
        observations.extend(system_obs)
        diagnostics.failures.extend(failures)
        diagnostics.dropped_entities += dropped
    return observations, diagnostics


def write_observations_csv(observations: Iterable[BikeObservation], fh: TextIO) -> int:
    """Write observations in the canonical CSV layout; returns the row count."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(OBSERVATION_COLUMNS)
    count = 0
    for obs in observations:
        writer.writerow(
            [
                obs.system_id,
                obs.entity_id,
                repr(float(obs.lat)),
                repr(float(obs.lon)),
                obs.docking_type.value,
                obs.observed_at,
            ]
        )
        count += 1
    return count


def observations_to_csv_bytes(observations: Iterable[BikeObservation]) -> bytes:
    buffer = io.StringIO()
    write_observations_csv(observations, buffer)
    return buffer.getvalue().encode("utf-8")


def read_observations_csv(fh: TextIO) -> list[BikeObservation]:
    """Read observations from the canonical CSV layout.

    Raises:
        SchemaError: a required column is missing or a docking_type is unknown.
        ParseError: a lat or lon that is not a finite number, or an
            observed_at that is not an integer; the message names the data
            row, counted from 1 after the header.
    """
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    missing = [column for column in OBSERVATION_COLUMNS if column not in header]
    if missing:
        raise SchemaError(
            f"observation CSV missing column(s): {', '.join(missing)}"
        )
    observations = []
    for row_number, row in enumerate(reader, start=1):
        kind = row["docking_type"]
        if kind not in (DockingType.DOCKED.value, DockingType.FREE.value):
            raise SchemaError(f"unknown docking_type: {kind!r}")
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
            BikeObservation(
                system_id=row["system_id"],
                entity_id=row["entity_id"],
                lat=lat,
                lon=lon,
                docking_type=DockingType(kind),
                observed_at=observed_at,
            )
        )
    return observations
