"""Classification checks: compare enumeration output against expected families.

Each check enumerates one or more (n, index, k) slices under the full
smooth-Fano profile and compares the survivor set with the families the
classification predicts:

- case "i":   k >= n - index + 2 admits no candidate at all.
- case "ii":  k = n - index + 1 leaves exactly the k-quadric tuple
              (1, ..., 1; 2, ..., 2).
- case "iii": k = n - index >= 2 leaves exactly k-1 quadrics and a cubic.
- "hypersurface": k = 1 at index n - 1 leaves the cubic, the quartic
              with one weight-2 coordinate, and the sextic with weights
              2 and 3.
- "survey":   k = n - index - 1 leaves exactly survey_families(n, k).

Verdicts of every case: Verified (exact match, cap untouched), Refuted
(an extra survivor, or a missing family the cap cannot excuse; carries
the canonical-least extra, else missing family), InconclusiveCapTouched
(the cap may hide the answer).  Ranges that select no slice raise
ValueError: nothing checked verifies nothing.  So does a case i index
range reaching an index that no dimension of the range admits.

The survey's families are the survivors the screens were observed to
leave on every survey slice with n <= 9, not a theorem of the paper.
The screens are necessary conditions only, so a survivor is a
candidate, not a certified smooth family.  The survey slice has two
middle weights (k = n - index - 1), and a proved bound closes its range
(the weight bound n + 2 - index = 4 at k = 1, the middle bound 2 with
tails at most 5 at k >= 2; enumerator._Shape), so at any cap of 5 or
more the cap stays untouched and the verdict is Verified or Refuted.
"""

from __future__ import annotations

from enum import Enum

from .core import Candidate, _Value, canonical_key
from .enumerator import EnumerationQuery, enumerate_candidates

__all__ = [
    "SliceOutcome",
    "Verdict",
    "VerificationResult",
    "VerifyCase",
    "survey_codim",
    "verify_case_i",
    "verify_case_ii",
    "verify_case_iii",
    "verify_hypersurface_remark",
]


class VerifyCase(str, Enum):
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"
    HYPERSURFACE = "hypersurface"
    SURVEY = "survey"


class Verdict(str, Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    INCONCLUSIVE_CAP_TOUCHED = "InconclusiveCapTouched"


class SliceOutcome(_Value):
    __slots__ = {
        "n": "int", "index": "int", "k": "int", "expected": "tuple[Candidate, ...]",
        "result": "EnumerationResult", "status": "Verdict", "counterexample": "Candidate | None",
    }
    _defaults = {"counterexample": None}


class VerificationResult(_Value):
    __slots__ = {
        "case_id": "VerifyCase", "cap": "int", "slices": "tuple[SliceOutcome, ...]",
        "verdict": "Verdict", "counterexample": "Candidate | None",
    }


def all_quadrics_family(n: int, k: int) -> Candidate:
    """(1^(n+k+1); 2^k), the unique survivor at k = n - index + 1."""
    return Candidate((1,) * (n + k + 1), (2,) * k)


def quadrics_cubic_family(n: int, k: int) -> Candidate:
    """(1^(n+k+1); 2^(k-1), 3), the unique survivor at k = n - index >= 2."""
    return Candidate((1,) * (n + k + 1), (2,) * (k - 1) + (3,))


def survey_families(n: int, k: int) -> tuple[Candidate, ...]:
    """The survivors at k = n - index - 1 >= 1, in canonical order.

    Observed, not proved, and no theorem of the paper: these are the
    survivors the screens leave on every survey slice with n <= 9, at
    caps 5 to 10**12 (the cap is never touched there).
    """
    if k == 1:
        return (Candidate((1,) * (n + 2), (4,)), Candidate((1,) * (n + 1) + (3,), (6,)))
    families = (
        Candidate((1,) * (n + k + 1), (2,) * (k - 1) + (4,)),
        Candidate((1,) * (n + k + 1), (2,) * (k - 2) + (3, 3)),
        Candidate((1,) * (n + k) + (3,), (2,) * (k - 1) + (6,)),
    )
    if k == 2:
        families += (
            Candidate((1,) * (n + 2) + (2,), (3, 4)),
            Candidate((1,) * (n + 1) + (2, 2), (4, 4)),
            Candidate((1,) * n + (2, 2, 3), (4, 6)),
            Candidate((1,) * (n - 1) + (2, 2, 3, 3), (6, 6)),
        )
    return tuple(sorted(families, key=canonical_key))


def index_hypersurface_families(n: int) -> tuple[Candidate, ...]:
    """The three index n-1 hypersurface tuples in dimension n >= 3."""
    return (
        Candidate((1,) * (n + 2), (3,)),
        Candidate((1,) * (n + 1) + (2,), (4,)),
        Candidate((1,) * n + (2, 3), (6,)),
    )


def verify_case_i(
    n_range: tuple[int, int] = (2, 6),
    i_range: tuple[int, int] | None = None,
    cap: int = 15,
) -> VerificationResult:
    """Every slice with k in n-index+2 .. n+1 must be empty.

    Dimension n admits the indices 1..n-1.  An i_range that selects
    slices but reaches an index no dimension of n_range admits raises
    ValueError, since that index is not checked.
    """
    slices = []
    dims = _span(n_range, minimum=2, what="case i dimension")
    for n in dims:
        lo, hi = i_range if i_range is not None else (1, n - 1)
        for index in range(max(lo, 1), min(hi, n - 1) + 1):
            for k in range(n - index + 2, n + 2):
                slices.append(_check_slice(n, index, k, expected=(), cap=cap))
    if slices and i_range is not None:
        top = dims[-1] - 1
        for index in i_range:
            if not 1 <= index <= top:
                raise ValueError(
                    f"case i: index {index} is admitted by no dimension in"
                    f" {dims[0]}..{dims[-1]}; the admissible indices are 1..{top}"
                )
    return _aggregate(VerifyCase.CASE_I, cap, slices)


def verify_case_ii(n_range: tuple[int, int] = (2, 6), cap: int = 15) -> VerificationResult:
    """At k = n - index + 1 exactly the all-quadrics family survives."""
    slices = []
    for n in _span(n_range, minimum=2, what="case ii dimension"):
        for index in range(1, n + 1):
            k = n - index + 1
            slices.append(
                _check_slice(n, index, k, expected=(all_quadrics_family(n, k),), cap=cap)
            )
    return _aggregate(VerifyCase.CASE_II, cap, slices)


def verify_case_iii(n_range: tuple[int, int] = (3, 6), cap: int = 15) -> VerificationResult:
    """At k = n - index >= 2 exactly the quadrics-and-a-cubic family survives."""
    slices = []
    for n in _span(n_range, minimum=3, what="case iii dimension"):
        for index in range(1, n - 1):
            k = n - index
            slices.append(
                _check_slice(n, index, k, expected=(quadrics_cubic_family(n, k),), cap=cap)
            )
    return _aggregate(VerifyCase.CASE_III, cap, slices)


def verify_hypersurface_remark(
    n_range: tuple[int, int] = (3, 6), cap: int = 50
) -> VerificationResult:
    """At k = 1, index n - 1 exactly the three hypersurface tuples survive."""
    slices = []
    for n in _span(n_range, minimum=3, what="hypersurface dimension"):
        slices.append(
            _check_slice(n, n - 1, 1, expected=index_hypersurface_families(n), cap=cap)
        )
    return _aggregate(VerifyCase.HYPERSURFACE, cap, slices)


def survey_codim(n: int, index: int, cap: int = 20) -> VerificationResult:
    """At k = n - index - 1 >= 1 exactly the survey families survive."""
    if index < 1:
        raise ValueError(f"survey needs index >= 1, got {index}")
    k = n - index - 1
    if k < 1:
        raise ValueError(f"survey needs k = n - index - 1 >= 1, got k = {k}")
    return _aggregate(
        VerifyCase.SURVEY, cap, [_check_slice(n, index, k, survey_families(n, k), cap)]
    )


def _span(n_range: tuple[int, int], minimum: int, what: str) -> range:
    lo, hi = n_range
    if lo < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {lo}")
    return range(lo, hi + 1)


def _check_slice(
    n: int, index: int, k: int, expected: tuple[Candidate, ...], cap: int
) -> SliceOutcome:
    result = enumerate_candidates(EnumerationQuery(n=n, index=index, k=k, max_weight=cap))
    survivors = set(result.survivors)
    expected_set = set(expected)
    status = Verdict.VERIFIED
    counterexample = None
    extra = _least(survivors - expected_set)
    missing = _least(expected_set - survivors)
    if extra is not None:
        status, counterexample = Verdict.REFUTED, extra
    elif result.cap_touched:
        # The cap may hide extra survivors, or the missing family.
        status, counterexample = Verdict.INCONCLUSIVE_CAP_TOUCHED, missing
    elif missing is not None:
        status, counterexample = Verdict.REFUTED, missing
    return SliceOutcome(
        n=n,
        index=index,
        k=k,
        expected=expected,
        result=result,
        status=status,
        counterexample=counterexample,
    )


def _least(families) -> Candidate | None:
    """The canonical-least of families, the counterexample a check reports; None if empty."""
    return min(families, key=canonical_key, default=None)


def _aggregate(case_id: VerifyCase, cap: int, slices: list[SliceOutcome]) -> VerificationResult:
    if not slices:
        raise ValueError(f"case {case_id.value}: the given ranges select no slice")
    verdict = Verdict.VERIFIED
    counterexample = None
    for outcome in slices:
        if outcome.status is Verdict.REFUTED:
            verdict, counterexample = Verdict.REFUTED, outcome.counterexample
            break
        if outcome.status is Verdict.INCONCLUSIVE_CAP_TOUCHED and verdict is Verdict.VERIFIED:
            verdict, counterexample = Verdict.INCONCLUSIVE_CAP_TOUCHED, outcome.counterexample
    return VerificationResult(
        case_id=case_id,
        cap=cap,
        slices=tuple(slices),
        verdict=verdict,
        counterexample=counterexample,
    )
