"""Which screen rejects how many tuples of the survey corpus.

    PYTHONPATH=src python3 bench/breakdown.py > bench/breakdown.json

Runs run_all on every tuple the seed search tests in the two survey
slices (corpus.survey_tuples) and counts, per screen, the tuples it
rejects, the tuples it alone rejects, and the tuples whose first failing
screen in FILTER_ORDER it is, plus every combination of failing screens.
It checks the corpus against the seed's tested counts and its survivors
against the seed's survivors (bench/expected.json), and exits 1 on a
mismatch.  The full corpus takes about 80 s on a 2-core Xeon; the committed
bench/breakdown.json is its output on the seed code.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from types import SimpleNamespace

from corpus import survey_tuples
from run import BENCH, SURVEY_SLICES, slice_key, slice_query, survivors_sha256
from wcifano import FILTER_ORDER, Candidate, run_all


def breakdown(query) -> dict:
    rejects, alone, first, combos = Counter(), Counter(), Counter(), Counter()
    survivors = []
    tested = 0
    for weights, degrees in survey_tuples(*query):
        tested += 1
        c = Candidate(weights, degrees)
        failing = [v.filter_id.value for v in run_all(c).verdicts if not v.passed]
        if not failing:
            survivors.append(c)
            continue
        rejects.update(failing)
        first[failing[0]] += 1
        if len(failing) == 1:
            alone[failing[0]] += 1
        combos["+".join(failing)] += 1
    survivors.sort(key=lambda c: (c.weights, c.degrees))
    names = [fid.value for fid in FILTER_ORDER]
    return {
        "tested": tested,
        "survivors": len(survivors),
        "survivor_ratio": len(survivors) / tested,
        "survivor_tuples": [[list(c.weights), list(c.degrees)] for c in survivors],
        "survivors_sha256": survivors_sha256(SimpleNamespace(survivors=survivors)),
        "rejects": {name: rejects[name] for name in names},
        "rejects_alone": {name: alone[name] for name in names},
        "first_failing": {name: first[name] for name in names},
        "failing_sets": dict(combos.most_common()),
    }


def main() -> int:
    expected = json.loads((BENCH / "expected.json").read_text())["slices"]
    out, ok = {}, True
    for label in SURVEY_SLICES:
        query = slice_query(label, smoke=False)
        result = breakdown(query)
        want = expected[slice_key(query)]
        if result["tested"] != want["corpus_size"] or result["survivors_sha256"] != want["survivors_sha256"]:
            print(f"error: {label} cap {query[3]}: {result['tested']} tuples and survivors "
                  f"{result['survivors_sha256'][:12]}, expected {want['corpus_size']} and "
                  f"{want['survivors_sha256'][:12]}", file=sys.stderr)
            ok = False
        out[label] = result
    print(json.dumps(out, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
