"""Per-layer probes of the traced run, in one process of their own.

    python3 bench/layers.py --seed N [--smoke]

Calls the public functions of each layer directly and records one span
around each batch of calls.  Each batch runs pinned to one CPU (both
CPUs for the two-worker enumeration), and its span is scaled by
calibration samples taken during it (tracing.sampled_span).  Every time
metric is taken from spans.  Prints one JSON line:
{"metrics": {name: [value, unit]}, "mismatches": [...]}; a mismatch is
an output that differs from the seed code (bench/expected.json).

Layers and inputs:
- enumerator: the four slices of the survey and hypersurface workloads,
  in process with one worker, and the (6,1,4,20) slice again with two.
- filters: a seeded uniform sample of the survey corpus, the tuples the
  seed search tests in the two survey slices (see corpus.survey_tuples).
- core, output, transforms: the seeded sample of the screen workload.
- verify: the hypersurface case.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
from contextlib import contextmanager

from corpus import screen_pool, screen_sample, survey_sample
from run import (
    BENCH, SCREEN_SIZES, SLICES, SURVEY_SLICES, slice_key, slice_query, survivors_sha256,
)
from tracing import pinned, sampled_span, seconds, span
from wcifano import (
    FILTER_ORDER,
    SMOOTH_FANO_PROFILE,
    Candidate,
    EnumerationQuery,
    OutputRecord,
    TransformError,
    ambient_well_formed,
    deltas_ok,
    enumerate_candidates,
    fano_index,
    fano_positive,
    gcd_classes,
    gcd_cover_ok,
    hyperplane_section,
    is_linear_cone,
    is_normalized,
    last_weight_ok,
    normalize,
    run_all,
    unconize,
    unit_prefix_ok,
    verify_hypersurface_remark,
    wellformize,
)
from wcifano.filters import passes_profile
from wcifano.output import encode_jsonl

SPEEDUP_SLICE = "n6i1k4c20"
SAMPLE_SIZE = {False: 2000, True: 100}
# Timings go in ROUNDS rounds over every case in turn, so that a slow
# spell of the machine hits one round of every case rather than every
# round of one; each figure is the median over the rounds.  A per-call
# batch goes over its inputs as many times as it takes to last BATCH_S.
# An enumeration is left out of later rounds once its runs add up to
# ENUMERATE_S.
ROUNDS = {False: 5, True: 1}
BATCH_S = {False: 0.1, True: 0.005}
ENUMERATE_S = 4.0


class Probe:
    def __init__(self, seed: int, smoke: bool, expected: dict):
        self.seed = seed
        self.smoke = smoke
        self.expected = expected
        self.metrics: dict[str, tuple[float, str]] = {}
        self.mismatches: list[str] = []
        self.all_cpus = frozenset(os.sched_getaffinity(0))
        self.one_cpu = frozenset({max(self.all_cpus)})

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)

    @contextmanager
    def batch(self, name: str, workers: int = 1):
        """One scaled span around a batch of calls, on one CPU, or on all if it starts workers."""
        cpus = self.all_cpus if workers > 1 else self.one_cpu
        with pinned(cpus), sampled_span(name, in_process=workers == 1) as record:
            yield record

    def enumerator(self) -> None:
        runs = [(label, 1) for label in SLICES] + [(SPEEDUP_SLICE, 2)]
        times: dict[tuple, list[float]] = {run: [] for run in runs}
        for _ in range(ROUNDS[self.smoke]):
            for label, workers in runs:
                if sum(times[label, workers]) < ENUMERATE_S:
                    result, elapsed = self.enumerate(label, workers)
                    times[label, workers].append(elapsed)
                    if workers == 1:
                        self.put(f"enumerator.nodes.{label}", result.stats.nodes, "count")
                        self.put(f"enumerator.tested.{label}", result.stats.tested, "count")
                        self.put(f"enumerator.survivors.{label}", len(result.survivors), "count")
        for label in SLICES:
            tested = self.metrics[f"enumerator.tested.{label}"][0]
            survivors = self.metrics[f"enumerator.survivors.{label}"][0]
            self.put(f"enumerator.enumerate_s.{label}", statistics.median(times[label, 1]), "s")
            self.put(f"enumerator.tested_per_survivor.{label}", tested / max(survivors, 1), "ratio")
        single = self.metrics[f"enumerator.enumerate_s.{SPEEDUP_SLICE}"][0]
        self.put(f"enumerator.speedup_w2.{SPEEDUP_SLICE}",
                 single / statistics.median(times[SPEEDUP_SLICE, 2]), "ratio")
        tested = sum(self.metrics[f"enumerator.tested.{s}"][0] for s in SURVEY_SLICES)
        survivors = sum(self.metrics[f"enumerator.survivors.{s}"][0] for s in SURVEY_SLICES)
        self.put("filters.survivor_ratio", survivors / tested, "ratio")

    def enumerate(self, label: str, workers: int):
        """One scaled enumeration of a slice, its survivors checked; the result and its time."""
        n, index, k, cap = query = slice_query(label, self.smoke)
        with self.batch(f"enumerator.enumerate_candidates.{label}.w{workers}", workers) as record:
            result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap), workers)
        if survivors_sha256(result) != self.expected["slices"][slice_key(query)]["survivors_sha256"]:
            self.mismatches.append(f"survivors of {label} (cap {cap}, workers {workers}) differ")
        return result, seconds(record)

    def time_calls(self, cases) -> None:
        """Put the median scaled time of one call of each (metric, unit, fn, inputs) case.

        A first, unscaled pass over a case's inputs warms up and sets the
        number of passes over them in one batch.
        """
        passes = {}
        for metric, _, fn, inputs in cases:
            with pinned(self.one_cpu), span(metric) as warm:
                for item in inputs:
                    fn(item)
            warm_s = max(warm["end"] - warm["start"], 1) * 1e-9
            passes[metric] = max(1, math.ceil(BATCH_S[self.smoke] / warm_s))
        per_call: dict[str, list[float]] = {metric: [] for metric, *_ in cases}
        for _ in range(ROUNDS[self.smoke]):
            for metric, _, fn, inputs in cases:
                with self.batch(metric) as record:
                    for _ in range(passes[metric]):
                        for item in inputs:
                            fn(item)
                per_call[metric].append(seconds(record) / (passes[metric] * len(inputs)))
        for metric, unit, *_ in cases:
            self.put(metric, statistics.median(per_call[metric]) * (1e9 if unit == "ns" else 1), unit)

    def filter_cases(self) -> list:
        """The survey-corpus sample: rejection counts now, the timed cases returned."""
        queries = [slice_query(label, self.smoke) for label in SURVEY_SLICES]
        totals = [self.expected["slices"][slice_key(q)]["corpus_size"] for q in queries]
        sample = [Candidate(w, d) for w, d in
                  survey_sample(queries, totals, SAMPLE_SIZE[self.smoke], self.seed)]
        reports = [run_all(c) for c in sample]
        for fid in FILTER_ORDER:
            rejected = sum(1 for r in reports for v in r.verdicts if v.filter_id is fid and not v.passed)
            self.put(f"filters.rejects.{fid.value}", rejected, "count")
        screens = {
            "is_normalized": is_normalized,
            "ambient_well_formed": ambient_well_formed,
            "fano_positive": fano_positive,
            "is_linear_cone": is_linear_cone,
            "deltas_ok": deltas_ok,
            "last_weight_ok": last_weight_ok,
            "gcd_cover_ok": gcd_cover_ok,
        }
        cases = [(f"filters.{name}_ns", "ns", fn, sample) for name, fn in screens.items()]
        with_index = [(c, fano_index(c)) for c in sample]
        return cases + [
            ("filters.unit_prefix_ok_ns", "ns", lambda ci: unit_prefix_ok(*ci), with_index),
            ("filters.passes_profile_ns", "ns", lambda c: passes_profile(c, SMOOTH_FANO_PROFILE), sample),
            ("filters.run_all_ns", "ns", run_all, sample),
        ]

    def screen_cases(self) -> list:
        """The screen sample: transform error counts now, the timed cases returned."""
        small, large = screen_pool()
        small_idx, large_idx = screen_sample(self.seed, *SCREEN_SIZES[self.smoke])
        bands = {
            "small": [Candidate(*small[i]) for i in small_idx],
            "large": [Candidate(*large[i]) for i in large_idx],
        }
        everything = bands["small"] + bands["large"]
        normalized = [normalize(c) for c in everything]
        reports = [run_all(c) for c in normalized]
        records = [OutputRecord.from_report(r) for r in reports]
        cases = [(f"core.gcd_classes_ns.{band}", "ns", gcd_classes, raw) for band, raw in bands.items()]
        cases += [
            ("core.normalize_ns", "ns", normalize, everything),
            ("output.from_report_ns", "ns", OutputRecord.from_report, reports),
            ("output.encode_jsonl_ns", "ns", lambda r: encode_jsonl([r]), records),
        ]
        for name, fn in (("wellformize", wellformize), ("unconize", unconize),
                         ("hyperplane_section", hyperplane_section)):

            def fails(c, fn=fn) -> bool:
                try:
                    fn(c)
                except TransformError:
                    return True
                return False

            self.put(f"transforms.{name}_errors", sum(map(fails, normalized)), "count")
            cases.append((f"transforms.{name}_ns", "ns", fails, normalized))
        return cases

    def verify_cases(self) -> list:
        """The hypersurface case: its verdict checked now, the timed case returned."""
        n_range, cap = ((3, 4), 20) if self.smoke else ((3, 6), 50)
        result = verify_hypersurface_remark(n_range, cap=cap)
        want = self.expected["verify_hypersurface"][f"{n_range[0]}..{n_range[1]},{cap}"]
        if result.verdict.value != want:
            self.mismatches.append(f"verify hypersurface: {result.verdict.value}, expected {want}")
        return [("verify.hypersurface_s", "s", lambda _: verify_hypersurface_remark(n_range, cap=cap), [None])]

    def screen_share(self) -> None:
        """Computed, not measured: tested x passes_profile_ns / enumerate_s."""
        per_test_s = self.metrics["filters.passes_profile_ns"][0] * 1e-9
        for label in SLICES:
            tested = self.metrics[f"enumerator.tested.{label}"][0]
            elapsed = self.metrics[f"enumerator.enumerate_s.{label}"][0]
            self.put(f"enumerator.screen_share.{label}", tested * per_test_s / elapsed, "computed_frac")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    probe = Probe(args.seed, args.smoke, json.loads((BENCH / "expected.json").read_text()))
    probe.enumerator()
    probe.time_calls(probe.filter_cases() + probe.screen_cases() + probe.verify_cases())
    probe.screen_share()
    print(json.dumps({
        "metrics": {name: list(value) for name, value in probe.metrics.items()},
        "mismatches": probe.mismatches,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
