"""Differential sweep of the enumerator: results that must not move, nodes that may.

Run it on two checkouts of the package and compare:

    PYTHONPATH=<old>/src python tests/sweep.py --save old.json
    PYTHONPATH=src python tests/sweep.py --against old.json

It prints one sha256 over the facts of every query, in query order: its
survivors, tested, cap_touched and prefix_infeasible, which a change
that only prunes must keep.  --save writes each query's facts (the
survivors as their count and a sha256 prefix) and node count; --against
reads such a file and prints the queries whose facts moved, grouped by
k, with how many moved on each fact and which way (tested fell or rose,
a flag went true -> false or false -> true), then those whose nodes
moved, with how many fell and rose, then the nodes of every query summed
by k, before -> after; it exits 1 when the facts of any query moved, and 0
otherwise.  The queries: every profile at n 1..3,
k 0..n+1, index 0..n+2 and cap 5; k = 1 and 2 slices up to n = 6 under
five profiles; the benchmark's slices with 1 and 2 workers.  Not
collected by pytest, like grid_oracle.py.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from collections import Counter, defaultdict

from wcifano.enumerator import EnumerationQuery, enumerate_candidates
from wcifano.filters import CALABI_YAU_PROFILE, FILTER_ORDER, SMOOTH_FANO_PROFILE, FilterId

ALL_PROFILES = [
    frozenset(c) for r in range(len(FILTER_ORDER) + 1) for c in itertools.combinations(FILTER_ORDER, r)
]
# The search shape with tails under LastWeight, under GcdCover alone and with LinearCone
_SHAPE = frozenset({FilterId.UNIT_PREFIX, FilterId.DELTAS, FilterId.LAST_WEIGHT})
FIVE_PROFILES = [
    SMOOTH_FANO_PROFILE,
    CALABI_YAU_PROFILE,
    SMOOTH_FANO_PROFILE - {FilterId.LINEAR_CONE},
    _SHAPE | {FilterId.GCD_COVER},
    _SHAPE | {FilterId.GCD_COVER, FilterId.LINEAR_CONE},
]
BENCHMARK_SLICES = [(5, 1, 3, 20), (6, 1, 4, 20), (3, 1, 1, 100), (4, 1, 1, 30)]


def queries():
    """(n, index, k, cap, profile, workers) in sweep order."""
    for n in range(1, 4):
        for k, index, profile in itertools.product(range(n + 2), range(n + 3), ALL_PROFILES):
            yield n, index, k, 5, profile, 1
    for n, k, profile in itertools.product(range(1, 7), (1, 2), FIVE_PROFILES):
        for index in range(1 if FilterId.FANO_POSITIVITY in profile else 0, n + 2 - k):
            yield n, index, k, 3 * (n + k), profile, 1
    for (n, index, k, cap), workers in itertools.product(BENCHMARK_SLICES, (1, 2)):
        yield n, index, k, cap, SMOOTH_FANO_PROFILE, workers


def key(n, index, k, cap, profile, workers) -> str:
    ids = ",".join(sorted(f.value for f in profile))
    return f"{n} {index} {k} {cap} {workers} [{ids}]"


FACTS = ("survivors", "tested", "cap_touched", "prefix_infeasible")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", help="write each query's facts and node count to this JSON file")
    parser.add_argument("--against", help="a --save file to compare facts and node counts with")
    args = parser.parse_args()
    digest = hashlib.sha256()
    saved: dict[str, dict] = {}
    for n, index, k, cap, profile, workers in queries():
        q = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
        result = enumerate_candidates(q, workers=workers)
        name = key(n, index, k, cap, profile, workers)
        survivors = [(c.weights, c.degrees) for c in result.survivors]
        facts = (survivors, result.stats.tested, result.cap_touched, result.prefix_infeasible)
        digest.update(f"{name} {facts!r}\n".encode())
        sha = hashlib.sha256(repr(survivors).encode()).hexdigest()[:16]
        saved[name] = dict(zip(FACTS, (f"{len(survivors)} {sha}", *facts[1:])))
        saved[name]["nodes"] = result.stats.nodes
    print(f"queries {len(saved)}")
    print(f"digest {digest.hexdigest()}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=0, sort_keys=True)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        moved = report_facts(before, saved)
        report_nodes(before, saved)
        if moved:
            raise SystemExit(1)


def by_k(name: str) -> int:
    return int(name.split()[2])


def way(old, new) -> str:
    """How a fact moved: a count fell or rose, a flag went one way or the other."""
    if isinstance(old, bool):
        return f"{str(old).lower()} -> {str(new).lower()}"
    if isinstance(old, int):
        return "rose" if new > old else "fell"
    return "changed"


def tally(fact: str, ways: Counter) -> str:
    """How many queries moved on fact, and how many of them each way."""
    text = f"{fact} {sum(ways.values())}"
    if ways:
        text += " (" + ", ".join(f"{n} {w}" for w, n in sorted(ways.items())) + ")"
    return text


def report_facts(before: dict[str, dict], after: dict[str, dict]) -> int:
    """Print the queries whose facts moved, grouped by k, with how many moved on each fact and which way.

    Returns how many queries moved.
    """
    moved = defaultdict(lambda: [{f: Counter() for f in FACTS}, []])
    for name, new in after.items():
        old = before[name]
        changed = [f for f in FACTS if new[f] != old[f]]
        if changed:
            counts, lines = moved[by_k(name)]
            for f in changed:
                counts[f][way(old[f], new[f])] += 1
            lines.append(f"{name}: " + ", ".join(f"{f} {old[f]} -> {new[f]}" for f in changed))
    total = sum(len(lines) for _, lines in moved.values())
    print(f"facts moved on {total} queries")
    for k in sorted(moved):
        counts, lines = moved[k]
        print(f"k={k}: {len(lines)} queries; " + ", ".join(tally(f, c) for f, c in counts.items()))
        for line in lines[:5]:
            print(f"  {line}")
    return total


def report_nodes(before: dict[str, dict], after: dict[str, dict]) -> None:
    """The queries whose nodes moved, grouped by k, with how many fell and rose; the sums by k."""
    moved = defaultdict(lambda: [0, 0, []])
    sums = defaultdict(lambda: [0, 0])
    for name, new in after.items():
        old, count = before[name]["nodes"], new["nodes"]
        k = by_k(name)
        sums[k][0] += old
        sums[k][1] += count
        if count != old:
            moved[k][count > old] += 1
            moved[k][2].append(f"{name}: {old} -> {count}")
    print(f"nodes moved on {sum(fell + rose for fell, rose, _ in moved.values())} queries")
    for k in sorted(moved):
        fell, rose, lines = moved[k]
        print(f"k={k}: {fell} fell, {rose} rose")
        for line in lines[:5]:
            print(f"  {line}")
    print("nodes summed by k")
    for k, (old, new) in sorted(sums.items()):
        print(f"k={k}: {old:,} -> {new:,}")


if __name__ == "__main__":
    main()
