"""Content-addressed on-disk result cache.

Every work unit serialises to canonical JSON; its SHA-256 digest is the
unit's *content address*.  A finished :class:`~repro.engine.records.
ResultRecord` is stored as JSON under ``<root>/<key[:2]>/<key>.json``, so
re-running any sweep or benchmark recomputes only the cells whose specs
changed.  Writes are atomic (temp file + ``os.replace``) so concurrent
sweeps sharing a cache directory never observe torn records.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.engine.records import ResultRecord
from repro.engine.spec import JobSpec, canonical_json
from repro.obs.session import current_session

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "GcReport",
    "ResultCache",
    "cache_key",
    "human_bytes",
    "parse_age",
    "parse_size",
]

logger = logging.getLogger(__name__)

#: Bump when the record schema or unit semantics change incompatibly;
#: old cache entries then simply stop matching.
#: v2: the registry redesign — identified-model algorithms are now
#: message-traced under ``count_messages`` (previously ``None``), and
#: randomised units bind a content-derived RNG.
#: v3: the certified-bounds subsystem — ``optimum="dual_bound"`` units
#: carry interval fields in their records.
#: v4: the array-native ν sandwich — the primal matching is the
#: round-parallel randomized greedy over the CSR arrays, seeded from the
#: unit's ``GraphSpec`` instead of the whole ``JobSpec``, so
#: ``dual_bound`` brackets (``nu_lower``/``nu_upper`` and the interval
#: fields derived from them) change and every unit of a cell shares one.
CACHE_SCHEMA_VERSION = 4

#: The pre-bounds schema tag.  Schema bumps since v3 are *scoped*: only
#: the ``dual_bound`` mode addresses under the current schema; every
#: historical mode — ``exact``, ``none``, ``lower_bound``, ``auto`` —
#: keeps its v2 address, because its record bytes are unchanged
#: (interval fields are only emitted by the sandwich path) and
#: invalidating terabyte-scale sweep caches for a feature they do not
#: use would be pure waste.  ``auto`` units above
#: :data:`repro.bounds.DUAL_BOUND_EDGE_LIMIT` edges resolve to the
#: sandwich too, under their v2 address.  A stale v2 entry there holds
#: either a sound (blossom) lower bound without the interval columns,
#: or a sandwich bracket from before v4: sound (it was verified when
#: written), but one a fresh run no longer reproduces byte for byte.
_LEGACY_SCHEMA_VERSION = 2

DEFAULT_CACHE_DIR = ".repro-cache"


def human_bytes(size: int) -> str:
    """Render a byte count for humans (binary units, one decimal)."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


#: Size suffixes accepted by :func:`parse_size` (binary multiples).
_SIZE_UNITS = {
    "B": 1,
    "K": 1024, "KB": 1024, "KIB": 1024,
    "M": 1024 ** 2, "MB": 1024 ** 2, "MIB": 1024 ** 2,
    "G": 1024 ** 3, "GB": 1024 ** 3, "GIB": 1024 ** 3,
    "T": 1024 ** 4, "TB": 1024 ** 4, "TIB": 1024 ** 4,
}

#: Age suffixes accepted by :func:`parse_age`, in seconds.
_AGE_UNITS = {
    "S": 1, "M": 60, "H": 3600, "D": 86400, "W": 7 * 86400,
}


def _parse_suffixed(text: str, units: "dict[str, int]", kind: str) -> float:
    raw = text.strip().upper()
    suffix_len = 0
    while suffix_len < len(raw) and raw[-suffix_len - 1].isalpha():
        suffix_len += 1
    number, suffix = raw[: len(raw) - suffix_len], raw[len(raw) - suffix_len:]
    try:
        value = float(number)
        scale = units[suffix] if suffix else 1
    except (ValueError, KeyError):
        raise ValueError(
            f"cannot parse {kind} {text!r}; expected a number with an "
            f"optional suffix from {sorted(units)}"
        ) from None
    if not (0 <= value < float("inf")):  # rejects negatives, inf, nan
        raise ValueError(
            f"{kind} must be a finite non-negative number, got {text!r}"
        )
    return value * scale


def parse_size(text: str) -> int:
    """Parse a human size like ``"64MiB"``, ``"1.5G"`` or ``"2048"``
    (plain bytes) into a byte count.  Suffixes are binary multiples."""
    return int(_parse_suffixed(text, _SIZE_UNITS, "size"))


def parse_age(text: str) -> float:
    """Parse a human age like ``"90s"``, ``"12h"``, ``"7d"`` or ``"300"``
    (plain seconds) into seconds."""
    return _parse_suffixed(text, _AGE_UNITS, "age")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one cache directory."""

    root: str
    entries: int
    total_bytes: int

    def format(self) -> str:
        lines = [
            f"cache directory: {self.root}",
            f"entries:         {self.entries}",
            f"total size:      {human_bytes(self.total_bytes)}",
        ]
        if self.entries:
            mean = self.total_bytes / self.entries
            lines.append(f"mean entry:      {human_bytes(round(mean))}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ResultCache.gc` pass removed and what survived."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def format(self) -> str:
        return (
            f"evicted {self.removed} record(s) "
            f"({human_bytes(self.freed_bytes)}); "
            f"kept {self.kept} record(s) ({human_bytes(self.kept_bytes)})"
        )


def cache_key(spec: JobSpec) -> str:
    """The stable content address of one work unit.

    The schema tag is per-mode (see :data:`_LEGACY_SCHEMA_VERSION`):
    ``dual_bound`` units address under the current schema, everything
    else keeps its pre-bounds v2 address byte-for-byte — pinned by the
    ``tests/data/v2_optimum_keys.json`` fixture.
    """
    schema = (
        CACHE_SCHEMA_VERSION
        if spec.optimum == "dual_bound"
        else _LEGACY_SCHEMA_VERSION
    )
    payload = {"schema": schema, "unit": spec.to_json_dict()}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed key → :class:`ResultRecord` store with hit/miss
    counters."""

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> ResultRecord | None:
        """Return the cached record for *key*, or ``None`` on a miss.

        Corrupt entries (truncated writes from killed runs, manual edits)
        count as misses and are recomputed and overwritten.  So do
        entries that do not parse as a :class:`ResultRecord` (a missing
        field or a wrong type) and entries holding the record of another
        key; both are logged.
        """
        path = self.path_for(key)
        session = current_session()
        started = time.perf_counter() if session is not None else 0.0
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            return self._miss(session, started)
        except json.JSONDecodeError:
            logger.warning(
                "corrupt cache entry %s — recomputing and overwriting", path
            )
            return self._miss(session, started)
        try:
            record = ResultRecord.from_json_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "malformed cache entry %s (%s: %s) — recomputing and "
                "overwriting", path, type(exc).__name__, exc,
            )
            return self._miss(session, started)
        if record.key != key:
            logger.warning(
                "cache entry %s holds the record of key %r — "
                "recomputing and overwriting", path, record.key,
            )
            return self._miss(session, started)
        self.hits += 1
        if session is not None:
            session.metrics.inc("cache.hit")
            session.metrics.observe(
                "cache.read_s", time.perf_counter() - started
            )
        return record

    def _miss(self, session, started: float) -> None:
        self.misses += 1
        if session is not None:
            session.metrics.inc("cache.miss")
            session.metrics.observe(
                "cache.read_s", time.perf_counter() - started
            )
        return None

    def put(self, key: str, record: dict[str, Any]) -> None:
        session = current_session()
        started = time.perf_counter() if session is not None else 0.0
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if session is not None:
            session.metrics.inc("cache.write")
            session.metrics.observe(
                "cache.write_s", time.perf_counter() - started
            )

    def touch(self, key: str) -> None:
        """Refresh *key*'s mtime so write-age LRU treats it as fresh.

        A plain ``get`` deliberately does not refresh mtime; callers
        that are about to run a size-capped :meth:`gc` touch the keys
        the current sweep used (hits included), so "this run's records
        are evicted last" holds even for fully warm runs.
        """
        try:
            os.utime(self.path_for(key))
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for entry in sorted(self.root.glob("*/*.json")):
            yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def stats(self) -> CacheStats:
        """Entry count and on-disk footprint of this cache directory."""
        entries = 0
        total = 0
        for key in self.keys():
            try:
                total += self.path_for(key).stat().st_size
            except OSError:
                continue
            entries += 1
        return CacheStats(
            root=str(self.root), entries=entries, total_bytes=total
        )

    def clear(self) -> int:
        """Delete every cached record; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> GcReport:
        """Evict cached records by age and/or total-size budget.

        Two passes: first every record whose mtime is older than
        *max_age* seconds goes; then, while the surviving footprint
        still exceeds *max_bytes*, the least recently touched records
        go (eviction order is mtime, oldest first — a ``get`` does not
        refresh mtime, so this is write-age LRU, which matches how the
        content-addressed cache is actually reused: recomputed sweeps
        rewrite their entries).  *now* exists for deterministic tests.
        """
        if max_bytes is None and max_age is None:
            raise ValueError("gc needs max_bytes and/or max_age")
        now = time.time() if now is None else now
        entries: list[tuple[float, int, Path]] = []
        for key in self.keys():
            path = self.path_for(key)
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first

        removed = 0
        freed = 0
        survivors: list[tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if max_age is not None and now - mtime > max_age:
                try:
                    path.unlink()
                except OSError:
                    # Still on disk: count it among the survivors so the
                    # size pass and the report stay truthful.
                    survivors.append((mtime, size, path))
                    continue
                removed += 1
                freed += size
            else:
                survivors.append((mtime, size, path))

        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            kept: list[tuple[float, int, Path]] = []
            for position, (mtime, size, path) in enumerate(survivors):
                if total > max_bytes:
                    try:
                        path.unlink()
                    except OSError:
                        kept.append((mtime, size, path))
                        continue
                    removed += 1
                    freed += size
                    total -= size
                else:
                    kept.extend(survivors[position:])
                    break
            survivors = kept

        session = current_session()
        if session is not None and removed:
            session.metrics.inc("cache.evict", removed)
        return GcReport(
            removed=removed,
            freed_bytes=freed,
            kept=len(survivors),
            kept_bytes=sum(size for _, size, _ in survivors),
        )
