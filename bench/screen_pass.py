"""One pass of the ``screen`` workload, run as its own process.

Reads a corpus file with one ``<band> <weights>;<degrees>`` line per
candidate (entries comma-separated, tuples unsorted) and writes one JSON
line per candidate to stdout, through the library path users of
``check`` take: normalize -> run_all -> OutputRecord.from_report ->
encode_jsonl.

    python3 bench/screen_pass.py CORPUS
"""

from __future__ import annotations

import argparse
import sys

from wcifano import SMOOTH_FANO_PROFILE, Candidate, OutputRecord, normalize, run_all
from wcifano.output import encode_jsonl


def read_corpus(path):
    items = []
    with open(path) as fh:
        for line in fh:
            band, body = line.split()
            weights, degrees = body.split(";")
            items.append(
                (band, tuple(map(int, weights.split(","))), tuple(map(int, degrees.split(","))))
            )
    return items


def screen_line(raw: Candidate) -> str:
    report = run_all(normalize(raw), SMOOTH_FANO_PROFILE)
    return encode_jsonl([OutputRecord.from_report(report)])[0]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("corpus")
    args = parser.parse_args()
    out = [screen_line(Candidate(weights, degrees)) for _, weights, degrees in read_corpus(args.corpus)]
    sys.stdout.write("".join(line + "\n" for line in out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
