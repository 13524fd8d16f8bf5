"""Typed result records and the in-memory/JSONL results store.

:class:`ResultRecord` is the engine's unit of output: everything the
analysis layer needs (sizes, exact-fraction ratio, rounds, message
counts, measurement extras) in a JSON-round-trippable shape.  A record
serialised by a worker process and deserialised by the parent is equal —
field for field and byte for byte under canonical JSON — to one computed
in-process, which is what makes ``--workers N`` results reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.analysis.report import format_table
from repro.engine.spec import canonical_json

__all__ = ["ResultRecord", "ResultStore"]

#: The scalar fields in declaration order, each with the exact types a
#: parsed record may hold there.  JSON decodes ``true`` to a ``bool``, an
#: ``int`` subclass, so types compare exactly.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    **dict.fromkeys(
        ("key", "algorithm", "graph_family", "graph_label"), (str,)
    ),
    **dict.fromkeys(
        ("num_nodes", "num_edges", "max_degree", "solution_size",
         "optimum"),
        (int,),
    ),
    "optimum_exact": (bool,),
    **dict.fromkeys(("ratio_num", "ratio_den", "rounds"), (int,)),
    "messages": (int, type(None)),
    **dict.fromkeys(
        ("optimum_lower", "optimum_upper", "ratio_lo_num", "ratio_lo_den",
         "ratio_hi_num", "ratio_hi_den"),
        (int,),
    ),
}
#: Every valid combination of scalar types, for a one-lookup check on
#: the cache's warm path.
_VALID_TYPES = frozenset(product(*_FIELD_TYPES.values()))
#: Every encoding carries the fields declared before ``messages``.
_required = itemgetter(
    *list(_FIELD_TYPES)[:list(_FIELD_TYPES).index("messages")]
)
#: The two-sided bracket fields, absent from one-sided records.
_BRACKET_DEFAULTS = {
    "optimum_lower": 0, "optimum_upper": 0, "ratio_lo_num": 0,
    "ratio_lo_den": 1, "ratio_hi_num": 0, "ratio_hi_den": 1,
}


def _raise_type_error(scalars: tuple) -> None:
    """Raise :class:`TypeError` naming the first mistyped scalar."""
    for (name, types), value in zip(_FIELD_TYPES.items(), scalars):
        if type(value) not in types:
            raise TypeError(
                f"record field {name!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, got "
                f"{type(value).__name__}"
            )


@dataclass(frozen=True)
class ResultRecord:
    """One finished work unit's measurements."""

    key: str
    algorithm: str
    graph_family: str
    graph_label: str
    num_nodes: int
    num_edges: int
    max_degree: int
    solution_size: int
    optimum: int  # 0 when the unit did not measure an optimum
    optimum_exact: bool
    ratio_num: int
    ratio_den: int
    rounds: int
    messages: int | None = None
    #: Two-sided optimum bracket (``dual_bound``/escalated ``auto``
    #: units): certified ``optimum_lower <= opt <= optimum_upper`` and
    #: the induced ratio interval.  All zero/defaults — and absent from
    #: the JSON encoding — when the unit measured a one-sided or exact
    #: optimum, so records from the historical modes keep their bytes.
    optimum_lower: int = 0
    optimum_upper: int = 0
    ratio_lo_num: int = 0
    ratio_lo_den: int = 1
    ratio_hi_num: int = 0
    ratio_hi_den: int = 1
    extra: Mapping[str, Any] = field(default_factory=dict)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.ratio_num, self.ratio_den)

    @property
    def has_optimum(self) -> bool:
        return self.optimum > 0

    @property
    def has_interval(self) -> bool:
        """True when the record carries a two-sided optimum bracket."""
        return self.optimum_upper > 0

    @property
    def ratio_lo(self) -> Fraction:
        """The optimistic end of the ratio interval.

        Falls back to the point ratio when the record has no bracket,
        so aggregations can mix exact and interval records.
        """
        if self.has_interval:
            return Fraction(self.ratio_lo_num, self.ratio_lo_den)
        return self.ratio

    @property
    def ratio_hi(self) -> Fraction:
        """The pessimistic end (equals ``ratio`` on interval records)."""
        if self.has_interval:
            return Fraction(self.ratio_hi_num, self.ratio_hi_den)
        return self.ratio

    def to_json_dict(self) -> dict[str, Any]:
        data = {
            "key": self.key,
            "algorithm": self.algorithm,
            "graph_family": self.graph_family,
            "graph_label": self.graph_label,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "max_degree": self.max_degree,
            "solution_size": self.solution_size,
            "optimum": self.optimum,
            "optimum_exact": self.optimum_exact,
            "ratio_num": self.ratio_num,
            "ratio_den": self.ratio_den,
            "rounds": self.rounds,
            "messages": self.messages,
            "extra": dict(self.extra),
        }
        if self.has_interval:
            data.update(
                optimum_lower=self.optimum_lower,
                optimum_upper=self.optimum_upper,
                ratio_lo_num=self.ratio_lo_num,
                ratio_lo_den=self.ratio_lo_den,
                ratio_hi_num=self.ratio_hi_num,
                ratio_hi_den=self.ratio_hi_den,
            )
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ResultRecord":
        """Parse a :meth:`to_json_dict` encoding.

        Raises :class:`KeyError` on a missing field and
        :class:`TypeError` on a field of the wrong type.
        """
        scalars = (
            *_required(data),
            data.get("messages"),
            *map(data.get, _BRACKET_DEFAULTS, _BRACKET_DEFAULTS.values()),
        )
        if tuple(map(type, scalars)) not in _VALID_TYPES:
            _raise_type_error(scalars)
        return cls(*scalars, extra=dict(data.get("extra", {})))

    def canonical(self) -> str:
        """Canonical JSON encoding (the byte-identity comparison form)."""
        return canonical_json(self.to_json_dict())


class ResultStore:
    """An ordered collection of records with summaries and JSONL I/O."""

    def __init__(self, records: Iterable[ResultRecord] = ()):
        self.records: list[ResultRecord] = list(records)

    def append(self, record: ResultRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[ResultRecord]) -> None:
        self.records.extend(records)

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def has_intervals(self) -> bool:
        """True when any stored record carries a ratio interval."""
        return any(r.has_interval for r in self.records)

    def summary_rows(self) -> list[tuple[object, ...]]:
        """Per-algorithm aggregates over the stored records.

        When any record carries a two-sided bracket, every row gains a
        ``mean ratio ∈`` interval column (point-ratio records contribute
        a zero-width interval); summaries of the historical one-sided
        modes are column-for-column what they always were.
        """
        intervals = self.has_intervals()
        grouped: dict[str, list[ResultRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.algorithm, []).append(record)
        rows: list[tuple[object, ...]] = []
        for name in sorted(grouped):
            records = grouped[name]
            ratios = [r.ratio for r in records if r.has_optimum]
            mean_ratio = (
                f"{float(sum(ratios) / len(ratios)):.4f}" if ratios else "-"
            )
            max_ratio = f"{float(max(ratios)):.4f}" if ratios else "-"
            mean_rounds = sum(r.rounds for r in records) / len(records)
            row = [
                name,
                len(records),
                mean_ratio,
                max_ratio,
                f"{mean_rounds:.1f}",
                sum(r.solution_size for r in records),
            ]
            if intervals:
                bracketed = [
                    r for r in records if r.has_optimum or r.has_interval
                ]
                if bracketed:
                    lo = sum(r.ratio_lo for r in bracketed) / len(bracketed)
                    hi = sum(r.ratio_hi for r in bracketed) / len(bracketed)
                    row.insert(4, f"[{float(lo):.4f}, {float(hi):.4f}]")
                else:
                    row.insert(4, "-")
            rows.append(tuple(row))
        return rows

    def format_summary(self, *, title: str = "sweep summary") -> str:
        headers = ["algorithm", "units", "mean ratio", "max ratio",
                   "mean rounds", "Σ|D|"]
        if self.has_intervals():
            headers.insert(4, "mean ratio ∈")
        return format_table(headers, self.summary_rows(), title=title)

    def to_jsonl(self, path: str | Path) -> None:
        """Write one canonical-JSON record per line (deterministic bytes)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(record.canonical())
                handle.write("\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ResultStore":
        store = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    store.append(ResultRecord.from_json_dict(json.loads(line)))
        return store
