"""Differential sweep of the screen path: output that must not move.

Run it on two checkouts of the package and compare the digests:

    PYTHONPATH=<old>/src python tests/screen_sweep.py
    PYTHONPATH=src python tests/screen_sweep.py

Every small candidate goes through the path of `wcifano check` and of
the library: normalize, then run_all -> OutputRecord.from_report ->
to_json_line under each of the 256 profiles.  The candidates are every
sorted weight tuple of 1..5 entries (ambient dimension N <= 4) in 1..6
with every sorted degree tuple of k <= min(2, N) entries in 1..MAX_DEGREE,
each also reversed when that unsorts it.  The sweep prints one sha256
over, in sweep order, each candidate's normalize result and, for every
profile, its JSON line or the message of the NotNormalized that run_all
raises.  Not collected by pytest, like sweep.py.
"""

from __future__ import annotations

import hashlib
import itertools

from wcifano.core import Candidate, NotNormalized, normalize
from wcifano.filters import FILTER_ORDER, run_all
from wcifano.output import OutputRecord

ALL_PROFILES = [
    frozenset(c) for r in range(len(FILTER_ORDER) + 1) for c in itertools.combinations(FILTER_ORDER, r)
]
MAX_WEIGHT = 6
MAX_DEGREE = 6


def candidates():
    """Each small candidate, sorted, then reversed when that unsorts it."""
    for length in range(1, 6):
        for weights in itertools.combinations_with_replacement(range(1, MAX_WEIGHT + 1), length):
            for k in range(min(2, length - 1) + 1):
                for degrees in itertools.combinations_with_replacement(
                    range(1, MAX_DEGREE + 1), k
                ):
                    yield Candidate(weights, degrees)
                    flipped = (weights[::-1], degrees[::-1])
                    if flipped != (weights, degrees):
                        yield Candidate(*flipped)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for c in candidates():
        count += 1
        digest.update(f"{normalize(c)!r}\n".encode())
        for profile in ALL_PROFILES:
            try:
                line = OutputRecord.from_report(run_all(c, profile)).to_json_line()
            except NotNormalized as exc:
                line = f"NotNormalized: {exc}"
            digest.update(line.encode() + b"\n")
    print(f"candidates {count} profiles {len(ALL_PROFILES)}")
    print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
