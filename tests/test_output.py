"""Output records: a JSON line is compact json.dumps and parses back to its record."""

from __future__ import annotations

import itertools
import json
from enum import IntEnum

from hypothesis import given, settings
from hypothesis import strategies as st

from wcifano.core import Candidate, NotNormalized
from wcifano.filters import FILTER_ORDER, run_all
from wcifano.output import RECORD_FIELDS, OutputRecord, parse_jsonl_line

ALL_PROFILES = [
    frozenset(c) for r in range(len(FILTER_ORDER) + 1) for c in itertools.combinations(FILTER_ORDER, r)
]


def dumps(record: OutputRecord) -> str:
    return json.dumps({f: getattr(record, f) for f in RECORD_FIELDS}, separators=(",", ":"))


class TestJsonRoundTrip:
    @given(
        st.lists(st.integers(1, 24), min_size=1, max_size=7),
        st.lists(st.integers(1, 48), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_line_parses_back_to_its_record(self, weights, degrees, keep_sorted):
        # every profile, sorted and unsorted, survivors and failures; the
        # weights reach 2**70 so the line holds ints beyond 64 bits, and
        # each line is compact json.dumps of its record
        if keep_sorted:
            weights, degrees = sorted(weights), sorted(degrees)
        weights = [a if a < 24 else 2**70 for a in weights]
        c = Candidate(tuple(weights), tuple(degrees[: len(weights) - 1]))
        names = list(OutputRecord.__slots__)
        assert len(ALL_PROFILES) == 256
        for profile in ALL_PROFILES:
            try:
                record = OutputRecord.from_report(run_all(c, profile))
            except NotNormalized:
                continue
            line = record.to_json_line()
            assert line == dumps(record)
            assert parse_jsonl_line(line) == record
            assert list(json.loads(line)) == names


class Size(IntEnum):
    TWO = 2


# Hand-built records outside the shape from_report gives: each changes
# one field, which the line must still write as json.dumps does.
UNUSUAL = {
    "weights as a list": lambda r: {"weights": list(r.weights)},
    "a bool weight": lambda r: {"weights": (True, *r.weights[1:])},
    "an IntEnum degree": lambda r: {"degrees": (Size.TWO, *r.degrees[1:])},
    "a float weight": lambda r: {"weights": (*r.weights[:-1], 2.5)},
    "an integral float": lambda r: {"weights": (*r.weights[:-1], 2.0)},
    "a bool dim": lambda r: {"dim": True},
    "an IntEnum index": lambda r: {"fano_index": Size.TWO},
    "a float codim": lambda r: {"codim": 1.0},
    "an int verdict": lambda r: {"verdicts": {**r.verdicts, "Normalized": 1}},
    "a non-ASCII verdict key": lambda r: {"verdicts": {**r.verdicts, "Gr\u00f6\u00dfe": True}},
    "an unknown verdict key": lambda r: {"verdicts": {**r.verdicts, "Smooth": False}},
    "verdicts as a list": lambda r: {"verdicts": list(r.verdicts)},
    "an empty witness list": lambda r: {"witnesses": []},
    "a non-ASCII witness": lambda r: {"witnesses": {"\u00e9": {"value": 1.5, "flag": None}}},
}


class TestJsonLine:
    @given(
        st.lists(st.integers(1, 12), min_size=2, max_size=6),
        st.lists(st.integers(1, 24), min_size=1, max_size=4),
        st.sampled_from(ALL_PROFILES),
        st.sampled_from(sorted(UNUSUAL)),
    )
    @settings(max_examples=300, deadline=None)
    def test_an_unusual_record_is_compact_json_dumps_too(self, weights, degrees, profile, change):
        c = Candidate(tuple(sorted(weights)), tuple(sorted(degrees))[: len(weights) - 1])
        record = OutputRecord.from_report(run_all(c, profile))
        fields = {f: getattr(record, f) for f in RECORD_FIELDS}
        fields.update(UNUSUAL[change](record))
        record = OutputRecord(**fields)
        assert record.to_json_line() == dumps(record)
