"""On-disk point-record cache: fleet-wide warm starts.

A :class:`PlanCache` maps a **batch group** — the unit the sweep executor
already simulates as one instance: (scenario, dense flag, non-horizon
params, horizon list) — to the finished point record at each of its
horizons, published at the stop boundaries a cold run pauses at anyway.
A record is the part of a point's artifact record that does not depend on
the point itself (``stats``, ``activity``, ``power_uw``, ``area_kge``);
the executor adds the point's own index, seed, params and horizon.  A warm
run serves every horizon that has a valid record straight from the cache —
nothing is restored, simulated or re-estimated — and covers the remaining
horizons with one cold simulation from cycle 0 that publishes their
records as it passes them (heal).  An interrupted group therefore never
resumes partway through its simulation: its missing horizons are simulated
again from the start.

**Key scheme.**  ``group_cache_key`` hashes the entry format and the
artifacts' :data:`~repro.sweep.artifacts.SCHEMA_VERSION` plus the group
identity into one sha256 hex digest — computable *before* any preparation
happens, which is the whole point of the warm path.  Entries are laid out
as ``<root>/<key[:2]>/<key>/<elapsed>.rec``: one small JSON object holding
the four record fields plus ``schema``, ``key``, ``elapsed`` and a
``sha256`` of the canonical (sorted, compact) record payload.

**Never wrong results.**  Every read failure — unreadable file, invalid
JSON, truncation, stale schema, an entry filed under the wrong key or
cycle, a checksum mismatch, a field of the wrong type — is caught, counted
in ``counters.errors``, recorded as a note, evicted, and answered with a
cold simulation.  Loading an entry only ever parses JSON: no code or
object state read from the shared directory is ever executed or rebuilt,
and files other than ``<elapsed>.rec`` (older ``*.snap`` snapshots
included) are never opened.
Publishes write to a temp file and ``os.replace`` into place (atomic on
POSIX), skip entries that already exist, and swallow their own failures
the same way.  The cache can only ever make a run faster or leave it
untouched; byte-identical artifacts are enforced by the ``cache-smoke`` CI
job and ``tests/sweep/test_plan_cache_sweep.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.obs import tracing
from repro.sweep.artifacts import SCHEMA_VERSION

#: A point record's fields, as the cache stores them: each maps names to
#: JSON scalars of the listed types (exact types, so nothing that JSON
#: would not give back unchanged is ever published).
_RECORD_FIELDS = {
    "stats": (str, int, float, bool, type(None)),
    "activity": (int,),
    "power_uw": (int, float),
    "area_kge": (int, float),
}

Record = Dict[str, Dict[str, object]]


class CacheError(Exception):
    """A named plan-cache integrity failure.

    :class:`PlanCache` raises it only through its internal accounting —
    the public ``lookup``/``publish`` surface converts every instance into
    a counted, noted cold-start fallback and never lets one escape into a
    run.
    """


def group_cache_key(
    scenario: str,
    dense: bool,
    params: Mapping[str, object],
    horizons: Sequence[int],
) -> str:
    """Content address for one batch group's record directory.

    Hashes the entry format and the artifact schema version (so a change
    to either cold-starts the whole cache), the scenario name, the dense
    flag, the sorted non-horizon params, and the horizon list.  Horizons
    are part of the identity because ``batch_prepare`` sizes drive scripts
    off the full horizon list; two campaigns sharing a prefix of horizons
    get separate entries rather than risky reuse.
    """
    material = {
        "entry": "record",
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "dense": bool(dense),
        "params": {str(key): value for key, value in sorted(params.items())},
        "horizons": [int(horizon) for horizon in horizons],
    }
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _record_digest(record: Record) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_fields(record: Mapping[str, object]) -> None:
    """Raise :class:`CacheError` unless every record field is a dict of
    string keys to values of the field's exact scalar types."""
    for name, value_types in _RECORD_FIELDS.items():
        values = record.get(name)
        if type(values) is not dict:
            raise CacheError(f"field {name!r} has the wrong type {type(values).__name__}")
        for item, value in values.items():
            if type(item) is not str or type(value) not in value_types:
                raise CacheError(f"field {name!r} has the wrong type at {item!r} ({type(value).__name__})")


def _decode_entry(data: bytes, key: str, elapsed: int) -> Record:
    """Parse and validate one entry file's bytes (plain JSON, nothing else)."""
    try:
        entry = json.loads(data)
    except ValueError as exc:
        # Entries are written whole as ``{...}\n``; one that starts right
        # but ends early lost its tail.
        if data.startswith(b"{") and not data.endswith(b"}\n"):
            raise CacheError(f"truncated record ({len(data)} bytes)") from None
        raise CacheError(f"invalid JSON: {exc}") from None
    if type(entry) is not dict:
        raise CacheError(f"invalid JSON: not an object but {type(entry).__name__}")
    if entry.get("schema") != SCHEMA_VERSION:
        raise CacheError(f"stale record schema {entry.get('schema')!r} (expected {SCHEMA_VERSION})")
    if entry.get("key") != key:
        raise CacheError(f"record of key {str(entry.get('key'))[:12]} filed under {key[:12]}")
    if type(entry.get("elapsed")) is not int or entry["elapsed"] != elapsed:
        raise CacheError(f"record of cycle {entry.get('elapsed')!r} filed under cycle {elapsed}")
    record = {name: entry.get(name) for name in _RECORD_FIELDS}
    _check_fields(record)
    if entry.get("sha256") != _record_digest(record):
        raise CacheError("checksum mismatch")
    return record


@dataclass
class CacheCounters:
    """Hit/miss/write/error tallies for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }


class PlanCache:
    """One process's handle on a shared point-record cache directory.

    Counters and notes accumulate per handle; the sweep executor ships
    them through the chunk outcome into the campaign telemetry and the
    manifest's ``execution.cache`` block, and the fleet controller
    aggregates them across workers into the ledger.
    """

    __slots__ = ("root", "counters", "notes")

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = CacheCounters()
        #: Human-readable records of every swallowed failure
        #: ("<entry>: <why>"), surfaced in the manifest/ledger so silent
        #: fallbacks stay visible.
        self.notes: List[str] = []

    def _entry_path(self, key: str, elapsed: int) -> Path:
        return self.root / key[:2] / key / f"{elapsed}.rec"

    def _note(self, path: Path, exc: Exception) -> None:
        self.counters.errors += 1
        note = f"{path.relative_to(self.root)}: {exc}"
        if note not in self.notes:
            self.notes.append(note)

    # ------------------------------------------------------------------ read

    def lookup(self, key: str, elapsed: int, points: int = 1) -> Optional[Record]:
        """The record published for ``key`` at simulated cycle ``elapsed``.

        Returns the four record fields, or ``None`` when there is no valid
        entry — the caller simulates that horizon.  ``points`` is how many
        sweep points the answer serves; hits and misses count points.  An
        unusable entry is counted, noted and evicted, so the cold run that
        follows can publish a good one in its place.
        """
        tracer = tracing.TRACER
        start_ns = tracer.now_ns() if tracer is not None else 0
        path = self._entry_path(key, elapsed)
        record: Optional[Record] = None
        try:
            record = _decode_entry(path.read_bytes(), key, elapsed)
        except FileNotFoundError:
            pass
        except (OSError, CacheError) as exc:
            self._note(path, exc if isinstance(exc, CacheError) else CacheError(str(exc)))
            # Benign race: another worker may have just replaced the entry
            # with a good one, in which case this evicts one healthy entry.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        if record is None:
            self.counters.misses += points
        else:
            self.counters.hits += points
        if tracer is not None:
            tracer.event(
                "cache.lookup",
                "cache",
                start_ns,
                tracer.now_ns() - start_ns,
                {"key": key[:12], "elapsed": elapsed, "hit": record is not None},
            )
        return record

    # ----------------------------------------------------------------- write

    def publish(self, key: str, elapsed: int, record: Mapping[str, object]) -> bool:
        """Publish the point record reached at simulated cycle ``elapsed``.

        ``record`` holds at least the four record fields; other keys are
        ignored.  No-op if the entry already exists (concurrent workers
        race to the same content; first writer wins and ``os.replace``
        keeps even the race atomic).  Failures — a record that cannot be
        stored exactly, or an OS error — are counted and noted, never
        raised: publishing is strictly best-effort.  Returns True when a
        new entry landed on disk.
        """
        if elapsed <= 0:
            return False
        path = self._entry_path(key, elapsed)
        if path.exists():
            return False
        tracer = tracing.TRACER
        start_ns = tracer.now_ns() if tracer is not None else 0
        try:
            _check_fields(record)
            payload = {name: record[name] for name in _RECORD_FIELDS}
            entry = {"schema": SCHEMA_VERSION, "key": key, "elapsed": elapsed}
            entry["sha256"] = _record_digest(payload)
            entry.update(payload)
            data = (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except (OSError, CacheError) as exc:
            self._note(path, exc if isinstance(exc, CacheError) else CacheError(str(exc)))
            return False
        self.counters.writes += 1
        if tracer is not None:
            tracer.event(
                "cache.publish",
                "cache",
                start_ns,
                tracer.now_ns() - start_ns,
                {"key": key[:12], "elapsed": elapsed, "bytes": len(data)},
            )
        return True

    # ------------------------------------------------------------- reporting

    def stats(self) -> Dict[str, object]:
        """JSON-ready counters + notes (the ``execution.cache`` payload)."""
        payload: Dict[str, object] = {"path": str(self.root)}
        payload.update(self.counters.as_dict())
        payload["notes"] = sorted(self.notes)
        return payload


__all__ = ["CacheCounters", "CacheError", "PlanCache", "group_cache_key"]
