"""Output records: a JSON line parses back to the record it came from."""

from __future__ import annotations

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wcifano.core import Candidate, NotNormalized
from wcifano.filters import FILTER_ORDER, run_all
from wcifano.output import OutputRecord, parse_jsonl_line

ALL_PROFILES = [
    frozenset(c) for r in range(len(FILTER_ORDER) + 1) for c in itertools.combinations(FILTER_ORDER, r)
]


class TestJsonRoundTrip:
    @given(
        st.lists(st.integers(1, 24), min_size=1, max_size=7),
        st.lists(st.integers(1, 48), max_size=6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_line_parses_back_to_its_record(self, weights, degrees, keep_sorted):
        if keep_sorted:
            weights, degrees = sorted(weights), sorted(degrees)
        c = Candidate(tuple(weights), tuple(degrees[: len(weights) - 1]))
        names = list(OutputRecord.__slots__)
        assert len(ALL_PROFILES) == 256
        for profile in ALL_PROFILES:
            try:
                record = OutputRecord.from_report(run_all(c, profile))
            except NotNormalized:
                continue
            line = record.to_json_line()
            assert parse_jsonl_line(line) == record
            assert list(json.loads(line)) == names
