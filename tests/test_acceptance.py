"""Acceptance gate: the nine capability claims, one test and one line each.

Every test prints `criterion N: PASS/FAIL — ...` through the capture so
the line is visible in any pytest run.  Stated tolerances are asserted
exactly; runtime bounds are asserted where the claim includes one.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from gcd_oracle import gcd_cover_bruteforce
from grid_oracle import naive_survivors

from wcifano.core import Candidate, fano_index, normalize
from wcifano.enumerator import EnumerationQuery, enumerate_candidates
from wcifano.filters import (
    CALABI_YAU_PROFILE,
    SMOOTH_FANO_PROFILE,
    FilterId,
    ambient_well_formed,
    gcd_cover_ok,
    is_linear_cone,
)
from wcifano.transforms import hyperplane_section, replay_trace, unconize, wellformize
from wcifano.verify import (
    Verdict,
    all_quadrics_family,
    index_hypersurface_families,
    quadrics_cubic_family,
    survey_codim,
    survey_families,
    verify_case_i,
    verify_case_ii,
    verify_case_iii,
    verify_hypersurface_remark,
)

SEED = 20260816


class Criterion:
    """Prints one visible pass/fail line for the enclosed assertions."""

    def __init__(self, capsys, number: int, label: str):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" [{self.detail}]" if self.detail else ""
        with self.capsys.disabled():
            print(f"criterion {self.number}: {status} — {self.label}{suffix}", flush=True)
        return False


def test_criterion_1_high_codimension_slices_are_empty(capsys):
    with Criterion(capsys, 1, "k >= n-i+2 admits no candidate, cap-independent") as c:
        start = time.perf_counter()
        result = verify_case_i((2, 6), cap=15)
        elapsed = time.perf_counter() - start
        assert result.verdict is Verdict.VERIFIED
        for s in result.slices:
            assert s.result.survivors == ()
            assert s.result.prefix_infeasible is True
            assert s.result.cap_touched is False
        # the emptiness is structural, so the cap cannot matter
        assert verify_case_i((2, 6), cap=5).verdict is Verdict.VERIFIED
        assert verify_case_i((2, 6), cap=100).verdict is Verdict.VERIFIED
        assert elapsed < 10.0
        c.detail = f"{len(result.slices)} slices empty, {elapsed:.2f}s"


def test_criterion_2_quadric_intersections_slice(capsys):
    with Criterion(capsys, 2, "k = n-i+1 leaves exactly the all-quadrics family") as c:
        start = time.perf_counter()
        result = verify_case_ii((2, 6), cap=15)
        elapsed = time.perf_counter() - start
        assert result.verdict is Verdict.VERIFIED
        assert len(result.slices) == sum(range(2, 7))
        for s in result.slices:
            assert s.result.survivors == (all_quadrics_family(s.n, s.k),)
            assert s.result.cap_touched is False
        assert elapsed < 10.0
        c.detail = f"{len(result.slices)} slices exact, {elapsed:.2f}s"


def test_criterion_3_quadrics_and_cubic_slice(capsys):
    with Criterion(capsys, 3, "k = n-i >= 2 leaves exactly quadrics and a cubic") as c:
        start = time.perf_counter()
        result = verify_case_iii((3, 6), cap=15)
        elapsed = time.perf_counter() - start
        assert result.verdict is Verdict.VERIFIED
        assert len(result.slices) == 1 + 2 + 3 + 4
        for s in result.slices:
            assert s.result.survivors == (quadrics_cubic_family(s.n, s.k),)
            assert s.result.cap_touched is False
        assert elapsed < 10.0
        c.detail = f"{len(result.slices)} slices exact, {elapsed:.2f}s"


def test_criterion_4_index_hypersurface_triple(capsys):
    with Criterion(capsys, 4, "k=1, i=n-1 yields the cubic/quartic/sextic triple") as c:
        start = time.perf_counter()
        result = verify_hypersurface_remark((3, 6), cap=50)
        elapsed = time.perf_counter() - start
        assert result.verdict is Verdict.VERIFIED
        for s in result.slices:
            assert s.result.survivors == index_hypersurface_families(s.n)
            assert s.result.cap_touched is False
        assert elapsed < 5.0
        c.detail = f"dims 3..6 exact, {elapsed:.2f}s"


def test_criterion_5_codimension_survey_containment(capsys):
    with Criterion(capsys, 5, "survey slices hold exactly their families, cap untouched") as c:
        start = time.perf_counter()
        surveys = [survey_codim(n, index, cap=20) for n, index in ((5, 1), (6, 1), (6, 2), (8, 3))]
        elapsed = time.perf_counter() - start
        for report in surveys:
            assert report.verdict is Verdict.VERIFIED
            (s,) = report.slices
            assert s.result.survivors == survey_families(s.n, s.k)
            assert s.result.cap_touched is False
        assert Candidate((1,) * 10 + (3,), (2, 2, 2, 6)) in surveys[1].slices[0].result.survivors
        assert elapsed < 60.0
        counts = "/".join(str(len(r.slices[0].result.survivors)) for r in surveys)
        c.detail = f"(5,1) (6,1) (6,2) (8,3) exact, counts {counts}, {elapsed:.2f}s"


def test_criterion_6_divisibility_oracle_equivalence(capsys):
    with Criterion(capsys, 6, "gcd cover screen agrees with the subset brute force") as c:
        rng = random.Random(SEED)
        trials = 10_000
        for _ in range(trials):
            length = rng.randint(1, 9)
            weights = tuple(rng.randint(1, 30) for _ in range(length))
            degrees = tuple(rng.randint(1, 30) for _ in range(rng.randint(0, length - 1)))
            candidate = Candidate(weights, degrees)
            assert (
                gcd_cover_ok(candidate).passed == gcd_cover_bruteforce(candidate).passed
            ), f"oracle disagreement on {candidate}"
        c.detail = f"{trials} random instances, zero disagreements"


def _query_cells():
    for n in (1, 2, 3):
        for k in range(0, n + 2):
            for index in range(0, n + 3):
                for cap in (4, 5):
                    yield n, index, k, cap, SMOOTH_FANO_PROFILE
    for n, index, k in [(3, 2, 1), (3, 1, 2), (2, 1, 1), (2, 2, 2)]:
        yield n, index, k, 8, SMOOTH_FANO_PROFILE
    for k in range(0, 4):
        yield 2, 0, k, 5, CALABI_YAU_PROFILE
    unstructured = SMOOTH_FANO_PROFILE - {FilterId.UNIT_PREFIX, FilterId.DELTAS}
    yield 2, 1, 1, 8, unstructured
    yield 1, 1, 1, 6, unstructured
    yield 1, 2, 1, 4, frozenset()
    yield 1, 3, 0, 4, frozenset()


def test_criterion_7_pruned_search_equals_full_grid(capsys):
    with Criterion(capsys, 7, "pruned enumeration matches the naive grid") as c:
        cells = 0
        for n, index, k, cap, profile in _query_cells():
            cells += 1
            query = EnumerationQuery(n=n, index=index, k=k, max_weight=cap, profile=profile)
            pruned = enumerate_candidates(query).survivors
            naive = naive_survivors(n, index, k, cap, profile)
            assert pruned == naive, f"divergence at n={n} i={index} k={k} cap={cap}"
        c.detail = f"{cells} query cells, zero divergences"


def test_criterion_8_transform_invariants(capsys):
    with Criterion(capsys, 8, "transform invariants hold on generated inputs") as c:
        rng = random.Random(SEED)
        trials = 1_000

        for _ in range(trials):
            length = rng.randint(1, 8)
            weights = [rng.randint(1, 9) for _ in range(length)]
            degrees = []
            for _ in range(rng.randint(0, length - 1)):
                # plant weight/degree matches half the time so removals fire
                degrees.append(rng.choice(weights) if rng.random() < 0.5 else rng.randint(1, 9))
            before = Candidate(tuple(weights), tuple(degrees))
            trace = unconize(before)
            assert trace.after.dim == before.dim
            assert fano_index(trace.after) == fano_index(before)
            assert is_linear_cone(trace.after).passed
            assert replay_trace(trace) == trace.after

        for _ in range(trials):
            extra = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            weights = sorted([1, *extra])
            degrees = sorted(rng.randint(1, 9) for _ in range(rng.randint(0, len(weights) - 2)))
            while sum(weights) - sum(degrees) < 1:
                weights = sorted([1, *weights])
            before = Candidate(tuple(weights), tuple(degrees))
            trace = hyperplane_section(before)
            assert trace.after.dim == before.dim - 1
            assert fano_index(trace.after) == fano_index(before) - 1
            assert trace.after.degrees == before.degrees
            assert replay_trace(trace) == trace.after

        for _ in range(trials):
            length = rng.randint(1, 6)
            weights = [rng.randint(1, 6) for _ in range(length)]
            weights[rng.randrange(length)] = 1
            if not ambient_well_formed(Candidate(tuple(weights))).passed:
                # a second unit makes every weight complement coprime, so
                # the only factors left to unwind are the planted ones
                weights[rng.choice([p for p, w in enumerate(weights) if w != 1])] = 1
            degrees = [rng.randint(1, 12) for _ in range(rng.randint(0, length - 1))]
            for _ in range(rng.randint(0, 3)):
                units = [p for p, w in enumerate(weights) if w == 1]
                exempt = rng.choice(units)
                factor = rng.randint(2, 4)
                weights = [w if p == exempt else w * factor for p, w in enumerate(weights)]
                degrees = [d * factor for d in degrees]
            before = Candidate(tuple(weights), tuple(degrees))
            trace = wellformize(before)
            assert ambient_well_formed(trace.after).passed
            assert trace.after.dim == before.dim
            assert replay_trace(trace) == trace.after
            assert trace.after == normalize(trace.after)

        c.detail = f"3 transform families x {trials} inputs"


def test_criterion_9_cli_byte_determinism(capsys, checkout_env):
    with Criterion(capsys, 9, "enumerate output byte-identical across runs and workers") as c:
        checkout_env.pop("WCI_DEFAULT_MAX_WEIGHT", None)
        outputs = []
        for workers in ("1", "4"):
            for _ in range(3):
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "wcifano", "enumerate",
                        "--dim", "6", "--index", "1", "--codim", "4",
                        "--max-weight", "20", "--workers", workers,
                    ],
                    capture_output=True,
                    env=checkout_env,
                )
                assert proc.returncode == 0
                outputs.append((proc.stdout, proc.stderr))
        first = outputs[0]
        assert all(run == first for run in outputs[1:])
        assert first[0].count(b"\n") == len(first[0].splitlines())
        c.detail = f"6 runs identical, {len(first[0])} stdout bytes"
