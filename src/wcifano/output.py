"""Flat output records and their JSONL / CSV / table encodings.

A record is self-contained: re-parsing a JSON line and re-running the
filters on its (weights, degrees) reproduces its verdict map.  Field
names and order are OutputRecord's, listed in RECORD_FIELDS.  Witnesses
appear for failing filters only.

A JSON line is json's compact encoding of the record's fields, with
separators (",", ":"), through one JSONEncoder built on first use.  json
is imported on the first encode or parse, so a call that writes no JSON
line does not load it.
"""

from __future__ import annotations

from .core import Candidate, _set, _Value
from .filters import FILTER_ORDER, FilterId, FilterReport

__all__ = [
    "OutputRecord",
    "encode_csv",
    "encode_jsonl",
    "encode_table",
    "parse_jsonl_line",
    "profile_columns",
]

class OutputRecord(_Value):
    __slots__ = ("weights", "degrees", "dim", "codim", "fano_index", "verdicts", "witnesses")

    def __init__(
        self,
        weights: tuple[int, ...],
        degrees: tuple[int, ...],
        dim: int,
        codim: int,
        fano_index: int,
        verdicts: dict,
        witnesses: dict,
    ) -> None:
        _set(self, "weights", weights)
        _set(self, "degrees", degrees)
        _set(self, "dim", dim)
        _set(self, "codim", codim)
        _set(self, "fano_index", fano_index)
        _set(self, "verdicts", verdicts)
        _set(self, "witnesses", witnesses)

    @classmethod
    def from_report(cls, report: FilterReport) -> "OutputRecord":
        verdicts = {}
        witnesses = {}
        for v in report.verdicts:
            name = _NAMES[v.filter_id]
            verdicts[name] = v.passed
            if not v.passed and v.witness is not None:
                witnesses[name] = v.witness
        weights, degrees = report.candidate.weights, report.candidate.degrees
        codim = len(degrees)
        index = sum(weights) - sum(degrees)
        return cls(weights, degrees, len(weights) - 1 - codim, codim, index, verdicts, witnesses)

    @property
    def candidate(self) -> Candidate:
        return Candidate(self.weights, self.degrees)

    def to_json_line(self) -> str:
        """The record as one line of compact JSON."""
        return _encode({f: getattr(self, f) for f in RECORD_FIELDS})


RECORD_FIELDS = OutputRecord.__slots__

# The column name of each screen, read per verdict.
_NAMES = {fid: fid.value for fid in FilterId}


def _encode(value) -> str:
    """Compact JSON text of value.  The first call imports json and rebinds _encode."""
    global _encode
    import json

    # json.dumps builds an encoder per call when given separators.
    _encode = json.JSONEncoder(separators=(",", ":")).encode
    return _encode(value)


def parse_jsonl_line(line: str) -> OutputRecord:
    """The record of one JSON line; its lists (the weights and degrees) become tuples."""
    import json

    data = json.loads(line)
    values = (data[f] for f in RECORD_FIELDS)
    return OutputRecord(*(tuple(v) if isinstance(v, list) else v for v in values))


def profile_columns(profile: frozenset[FilterId]) -> list[str]:
    """Filter column names for this profile, in canonical order."""
    return [fid.value for fid in FILTER_ORDER if fid in profile]


def encode_jsonl(records: list[OutputRecord]) -> list[str]:
    return [r.to_json_line() for r in records]


def encode_csv(records: list[OutputRecord], profile: frozenset[FilterId]) -> list[str]:
    """Header plus one row per record; tuple cells are space-separated."""
    columns = ["weights", "degrees", "dim", "codim", "fano_index", *profile_columns(profile)]
    lines = [",".join(columns)]
    for r in records:
        row = [
            " ".join(map(str, r.weights)),
            " ".join(map(str, r.degrees)),
            str(r.dim),
            str(r.codim),
            str(r.fano_index),
        ]
        row.extend(str(r.verdicts.get(name, "")).lower() for name in profile_columns(profile))
        lines.append(",".join(row))
    return lines


def encode_table(records: list[OutputRecord]) -> list[str]:
    """Fixed-width text table with a verdict summary column."""
    headers = ["weights", "degrees", "dim", "codim", "index", "result"]
    rows = []
    for r in records:
        failing = [name for name, ok in r.verdicts.items() if not ok]
        result = "pass" if not failing else "fail: " + ",".join(failing)
        rows.append(
            [
                "(" + ",".join(map(str, r.weights)) + ")",
                "(" + ",".join(map(str, r.degrees)) + ")",
                str(r.dim),
                str(r.codim),
                str(r.fano_index),
                result,
            ]
        )
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(headers[col].ljust(widths[col]) for col in range(len(headers))).rstrip(),
        "  ".join("-" * widths[col] for col in range(len(headers))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(len(headers))).rstrip())
    return lines
