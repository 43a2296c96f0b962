"""Write bench/expected.json: the outputs every benchmark run is checked against.

    PYTHONPATH=src python3 bench/make_expected.py      # from the root of a checkout

Run it on the code whose outputs are the reference (the seed code), and
again only when a change alters output on purpose.  It records:

- cli: exit code and stdout sha256 of every CLI operation, full and smoke;
- screen: a 12-hex digest of the JSON line of every screen pool entry;
- slices: survivors digest of each enumerated slice, and the size of its
  survey corpus (corpus.survey_tuples), which on the seed code equals
  the search's tested count;
- verify_hypersurface: the verdict of the in-process hypersurface case.

The probe's expected output cannot come from the seed code, which never
finishes it.  1000000000000000003 is prime, so its only divisibility
class is {3} with gcd p, the degree 2p covers it, and only FanoPositivity
fails (index 3 - p).  PROBE_LINE is the line run_all gives with that
class; make_expected.py does not rerun it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from corpus import screen_pool, survey_tuples
from run import (
    BENCH, PROBE_ARGS, SETUP_ARGS, SLICES, line_digest, sha256, slice_key, slice_query,
    survivors_sha256, workload_ops,
)
from screen_pass import screen_line
from wcifano import Candidate, EnumerationQuery, enumerate_candidates, verify_hypersurface_remark

PROBE_LINE = (
    '{"weights":[1,1,1,1000000000000000003],"degrees":[2000000000000000006],"dim":2,'
    '"codim":1,"fano_index":-1000000000000000000,"verdicts":{"Normalized":true,'
    '"AmbientWellFormed":true,"FanoPositivity":false,"LinearCone":true,"Deltas":true,'
    '"LastWeight":true,"GcdCover":true,"UnitPrefix":true},"witnesses":{"FanoPositivity":'
    '{"fano_index":-1000000000000000000}}}'
)


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli = {}
    for smoke in (False, True):
        for args in [SETUP_ARGS] + workload_ops("survey", smoke) + workload_ops("hypersurface", smoke):
            done = subprocess.run([sys.executable, "-m", "wcifano", *args], env=env, cwd=root,
                                  capture_output=True, check=False)
            cli[" ".join(args)] = {"exit": done.returncode, "stdout_sha256": sha256(done.stdout)}
    cli[" ".join(PROBE_ARGS)] = {"exit": 1, "stdout_sha256": sha256((PROBE_LINE + "\n").encode())}

    small, large = screen_pool()
    screen = {
        band: [line_digest(screen_line(Candidate(w, d))) for w, d in pool]
        for band, pool in (("small", small), ("large", large))
    }

    slices = {}
    for smoke in (False, True):
        for label in SLICES:
            n, index, k, cap = query = slice_query(label, smoke)
            result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
            size = sum(1 for _ in survey_tuples(*query))
            if size != result.stats.tested:
                print(f"note: {label} cap {cap}: corpus {size}, search tested {result.stats.tested}",
                      file=sys.stderr)
            slices[slice_key(query)] = {
                "survivors": len(result.survivors),
                "survivors_sha256": survivors_sha256(result),
                "corpus_size": size,
            }

    verify = {
        f"{lo}..{hi},{cap}": verify_hypersurface_remark((lo, hi), cap=cap).verdict.value
        for (lo, hi), cap in (((3, 6), 50), ((3, 4), 20))
    }
    expected = {"cli": cli, "slices": slices, "verify_hypersurface": verify, "screen": screen}
    with open(BENCH / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
