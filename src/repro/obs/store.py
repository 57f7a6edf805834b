"""The content-addressed run store: ingest telemetry, index by key.

A :class:`RunStore` turns flat JSONL telemetry shards into an
append-only, deduplicated index addressed by the provenance triple
**(config hash, seed, code version)** — the substrate the ROADMAP's
campaign-service result cache builds on.  Layout on disk::

    <store>/
      manifest.json                    # compact queryable index
      manifest.lock                    # ingest lock (flock), empty
      objects/<config_hash>/<seed>/<code_version>.json

Each object file holds one *stored run*: the primary telemetry record
(``kind`` run / experiment / campaign) plus the anomaly records that
followed it in its shard — runners emit the run manifest first and
flush watchdog anomalies immediately after, so file order is the join
key.  Ingest is **first-write-wins**: re-ingesting a shard (or a
bitwise-identical re-run) finds the run already in the manifest and
counts a deduplication instead of rewriting, so the store never
mutates what it has accepted — append-only by construction.  A run is
accepted when the manifest lists it; an object file the manifest does
not list (an ingest died before its manifest write) is rewritten by the
next ingest of that run.  Object files are written to a temp file and
renamed into place, so none is ever left truncated.

The manifest is a single JSON document mapping ``run_id``
(``<config_hash>/<seed>/<code_version>``) to a compact entry of the
queryable fields (protocol, network shape, slots, outcome, backend,
execution path, anomaly count, the provenance config).  It is
rewritten atomically (a per-process temp file + ``os.replace``) at the
end of each ingest, and an exclusive ``flock`` on
``<store>/manifest.lock`` held from the manifest read to that replace
serializes concurrent ingests, so none loses another's entries.  It is
read whole by :mod:`repro.obs.query`, so queries never
touch the object files unless they aggregate embedded metric
snapshots.

Records without a provenance block (telemetry written before stamping
existed) cannot be content-addressed; ingest counts and reports them
as skipped rather than guessing an address.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.obs.provenance import run_key
from repro.obs.telemetry import TelemetryError, read_telemetry

#: Version stamped into the manifest (bumped on layout changes).
STORE_SCHEMA_VERSION = 1

#: Telemetry kinds that anchor a stored run (anomalies attach to them).
PRIMARY_KINDS = ("run", "experiment", "campaign")


@dataclass
class IngestReport:
    """What one :meth:`RunStore.ingest` call did, for the CLI to print."""

    #: New stored runs written by this ingest.
    ingested: int = 0
    #: Records whose store key already had an object (first-write-wins).
    deduplicated: int = 0
    #: Anomaly records attached to the primary record they followed.
    anomalies_attached: int = 0
    #: Primary records skipped because they carry no provenance block.
    unstamped: int = 0
    #: Anomaly records with no preceding primary record to attach to.
    orphan_anomalies: int = 0
    #: Shard files read.
    files: int = 0

    def render(self) -> str:
        """One-line human summary (``repro obs ingest`` output)."""
        parts = [
            f"ingested {self.ingested} runs"
            f" ({self.deduplicated} deduplicated,"
            f" {self.anomalies_attached} anomalies attached)"
            f" from {self.files} files"
        ]
        if self.unstamped:
            parts.append(f"{self.unstamped} unstamped records skipped")
        if self.orphan_anomalies:
            parts.append(f"{self.orphan_anomalies} orphan anomalies skipped")
        return "; ".join(parts)


def join_anomalies(
    records: Iterable[Mapping[str, Any]],
) -> Iterator[tuple[Mapping[str, Any] | None, list[Mapping[str, Any]]]]:
    """Pair each primary record with the anomaly records that follow it.

    The one anomaly-to-run join, shared by :meth:`RunStore.ingest`,
    :class:`TelemetryView`, ``repro obs anomalies`` and ``repro obs
    explain``: an anomaly belongs to the primary record just before it
    in the stream.  Runners emit the run record first and flush its
    watchdog anomalies right after, so stream order is the join key.
    Yields ``(primary, anomalies)`` in stream order; anomalies that
    precede every primary record come first, as ``(None, orphans)``.
    """
    primary: Mapping[str, Any] | None = None
    anomalies: list[Mapping[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind in PRIMARY_KINDS:
            if primary is not None or anomalies:
                yield primary, anomalies
            primary, anomalies = record, []
        elif kind == "anomaly":
            anomalies.append(record)
    if primary is not None or anomalies:
        yield primary, anomalies


def _safe_component(text: str) -> str:
    """A path-safe spelling of one key component.

    Code versions (``ab12cd34ef56-dirty``, ``pkg-1.0.0``) and config
    hashes are already safe; this guards against exotic characters in
    hand-built records so a hostile shard cannot escape the store root.
    """
    return "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in text
    ) or "_"


def run_id_of(key: tuple[str, int, str]) -> str:
    """The store id ``<config_hash>/<seed>/<code_version>`` of a key."""
    digest, seed, version = key
    return f"{_safe_component(digest)}/{seed}/{_safe_component(version)}"


def manifest_entry(
    record: Mapping[str, Any], anomalies: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """The compact queryable manifest entry for one stored run.

    Copies the scalar fields queries filter and group by — identity
    (kind, protocol / experiment / campaign), network shape, outcome,
    execution path (backend, ``fast_path``, ``fast_path_reason``,
    ``vector_fallback_reason``)
    — plus the provenance config and key, the anomaly count, and flags
    for the heavier attachments (metrics / spans) that stay in the
    object file.
    """
    provenance = record.get("provenance") or {}
    entry: dict[str, Any] = {
        "kind": record.get("kind"),
        "seed": record.get("seed"),
        "config_hash": provenance.get("config_hash"),
        "code_version": provenance.get("code_version"),
        "config": dict(provenance.get("config") or {}),
        "anomalies": len(anomalies),
        "has_metrics": record.get("metrics") is not None,
        "has_spans": record.get("spans") is not None,
    }
    for name in (
        "protocol",
        "n",
        "c",
        "k",
        "universe",
        "slots",
        "outcome",
        "backend",
        "fast_path",
        "fast_path_reason",
        "vector_fallback_reason",
        "experiment",
        "trials",
        "fast",
        "rows",
        "campaign",
        "point",
        "mean",
    ):
        if name in record:
            entry[name] = record[name]
    return entry


class TelemetryView:
    """The records of telemetry files as an in-memory, unindexed store.

    :func:`repro.obs.query.run_query` needs only ``entries()`` and
    ``load()``, so this view lets ``repro obs summary`` group and
    aggregate a file with the store's query engine without ingesting
    it.  Every record becomes one entry, in stream order: no dedup,
    and records without provenance stay in.  An entry is the record's
    :func:`manifest_entry` (a primary record's anomaly count comes from
    :func:`join_anomalies`) over the record's other top-level scalars
    (``elapsed_s``, ``rule``, ``slot``), which the compact manifest
    leaves out.  ``run_id`` is the record's position in the stream.
    """

    def __init__(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Hold *records* (already read and validated), joined."""
        self._stored: list[dict[str, Any]] = []
        for primary, anomalies in join_anomalies(records):
            if primary is not None:
                self._stored.append({"record": primary, "anomalies": anomalies})
            self._stored.extend({"record": a, "anomalies": []} for a in anomalies)

    def entries(self) -> list[dict[str, Any]]:
        """One entry per record, in stream order."""
        entries = []
        for position, stored in enumerate(self._stored):
            record = stored["record"]
            entry = {
                name: value
                for name, value in record.items()
                if not isinstance(value, (dict, list))
            }
            entry.update(manifest_entry(record, stored["anomalies"]))
            entry["run_id"] = str(position)
            entries.append(entry)
        return entries

    def load(self, run_id: str) -> dict[str, Any]:
        """The record at *run_id* with its joined anomalies."""
        return self._stored[int(run_id)]


class RunStore:
    """An on-disk content-addressed index of telemetry records.

    Construction only records the root path; the directory is created
    on first ingest, so pointing a query at a store that was never
    written reports an empty manifest instead of littering the
    filesystem.
    """

    def __init__(self, root: str | Path) -> None:
        """Bind the store to *root* (created lazily on first ingest)."""
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest index document."""
        return self.root / "manifest.json"

    def object_path(self, key: tuple[str, int, str]) -> Path:
        """Path of the object file addressed by *key*."""
        digest, seed, version = key
        return (
            self.root
            / "objects"
            / _safe_component(digest)
            / str(seed)
            / f"{_safe_component(version)}.json"
        )

    def manifest(self) -> dict[str, Any]:
        """Load the manifest (``{"schema": ..., "entries": {...}}``).

        A store that was never ingested into yields an empty manifest.
        """
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return {"schema": STORE_SCHEMA_VERSION, "entries": {}}
        if (
            not isinstance(document, dict)
            or document.get("schema") != STORE_SCHEMA_VERSION
            or not isinstance(document.get("entries"), dict)
        ):
            raise TelemetryError(
                f"{self.manifest_path}: not a run-store manifest "
                f"(expected schema {STORE_SCHEMA_VERSION})"
            )
        return document

    def entries(self) -> list[dict[str, Any]]:
        """Every manifest entry, ``run_id`` included, sorted by id."""
        manifest = self.manifest()
        result = []
        for run_id in sorted(manifest["entries"]):
            entry = dict(manifest["entries"][run_id])
            entry["run_id"] = run_id
            result.append(entry)
        return result

    def load(self, run_id: str) -> dict[str, Any]:
        """The full stored run ``{"record": ..., "anomalies": [...]}``."""
        path = self.root / "objects" / f"{run_id}.json"
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def ingest(
        self, paths: Iterable[str | Path], *, strict: bool = False
    ) -> IngestReport:
        """Index every record of every shard in *paths*; return a report.

        Shards are read with :func:`repro.obs.telemetry.read_telemetry`
        (``strict=True`` raises on a malformed line; the default skips
        it) and paired by :func:`join_anomalies`, so each anomaly is
        stored with the primary record just before it in its shard.
        New keys are written as object files; keys already in the
        manifest count as deduplications and are left untouched.
        """
        report = IngestReport()
        with self._manifest_lock():
            manifest = self.manifest()
            entries: dict[str, Any] = manifest["entries"]
            for path in paths:
                report.files += 1
                records = read_telemetry(path, strict=strict)
                for record, anomalies in join_anomalies(records):
                    key = None if record is None else run_key(record)
                    if key is None:
                        # Unaddressable: no run before these anomalies,
                        # or one without provenance.
                        if record is not None:
                            report.unstamped += 1
                        report.orphan_anomalies += len(anomalies)
                        continue
                    self._flush(key, record, anomalies, entries, report)
            self._write_manifest(manifest)
        return report

    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Hold an exclusive lock on ``<root>/manifest.lock``.

        Serializes concurrent ingests from manifest read to replace, so
        none loses another's entries.  Where :mod:`fcntl` is missing
        (Windows) ingests are not serialized.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "manifest.lock", "a") as handle:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_EX)
            yield

    def _flush(
        self,
        key: tuple[str, int, str],
        record: Mapping[str, Any],
        anomalies: list[Mapping[str, Any]],
        entries: dict[str, Any],
        report: IngestReport,
    ) -> None:
        """Write one joined run's object file and manifest entry.

        Deduplication keys on manifest membership, not on the object
        file: an object left behind by an ingest that died before its
        manifest write was never accepted, so it is rewritten.  The
        write goes through a temp file and ``os.replace``, so a reader
        sees the old object or the new one, never a truncated one.
        """
        run_id = run_id_of(key)
        if run_id in entries:
            report.deduplicated += 1
            return
        path = self.object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "record": record,
            "anomalies": anomalies,
        }
        scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        os.replace(scratch, path)
        entries[run_id] = manifest_entry(record, anomalies)
        report.ingested += 1
        report.anomalies_attached += len(anomalies)

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically replace the manifest document (temp + rename)."""
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "entries": {
                run_id: manifest["entries"][run_id]
                for run_id in sorted(manifest["entries"])
            },
        }
        scratch = self.manifest_path.with_name(f"manifest.json.{os.getpid()}.tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=1)
            handle.write("\n")
        os.replace(scratch, self.manifest_path)
