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
- "survey":   k = n - index - 1; checks containment of named families
              and reports the survivor count summed over every
              admissible index at that k against a reference count.
              The screens are necessary conditions only, so a count
              mismatch is flagged in the notes, never failed.

Verdicts of cases i-iii and hypersurface: Verified (exact match, cap
untouched), Refuted (an extra survivor, or a missing family the cap
cannot excuse; carries the canonical-least extra, else missing family),
InconclusiveCapTouched (the cap may hide the answer).  Ranges that
select no slice raise ValueError: nothing checked verifies nothing.  So
does a case i index range reaching an index that no dimension of the
range admits.

The survey's verdict follows the same _aggregate precedence, and its
counterexample is the canonical-least missing named family, but its
Verified is weaker: every named family was found, whatever the cap and
the other survivors.  Where no family is named, as at (5, 1), it is
Verified with nothing checked, the cap touched or not.  Its slices at
the other indices carry status Verified and expected () without any
check; they only feed the count.
"""

from __future__ import annotations

from enum import Enum

from .core import Candidate, _Value, canonical_key
from .enumerator import EnumerationQuery, EnumerationResult, enumerate_candidates

__all__ = [
    "NAMED_SURVEY_FAMILIES",
    "SURVEY_REFERENCE_COUNTS",
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
        "verdict": "Verdict", "counterexample": "Candidate | None", "notes": "tuple[str, ...]",
    }


# Families whose presence the codimension survey asserts, and reference
# survivor counts, summed over every index of the survey's codimension,
# that it reports against (count mismatches are noted only).
NAMED_SURVEY_FAMILIES: dict[tuple[int, int], tuple[Candidate, ...]] = {
    (6, 1): (Candidate((1,) * 10 + (3,), (2, 2, 2, 6)),),
}
SURVEY_REFERENCE_COUNTS: dict[tuple[int, int], int] = {
    (5, 1): 5,
    (6, 1): 5,
}


def all_quadrics_family(n: int, k: int) -> Candidate:
    """(1^(n+k+1); 2^k), the unique survivor at k = n - index + 1."""
    return Candidate((1,) * (n + k + 1), (2,) * k)


def quadrics_cubic_family(n: int, k: int) -> Candidate:
    """(1^(n+k+1); 2^(k-1), 3), the unique survivor at k = n - index >= 2."""
    return Candidate((1,) * (n + k + 1), (2,) * (k - 1) + (3,))


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
    """Survey codimension k = n - index - 1: containment plus a count report.

    Named families missing from the survivors of the requested index
    refute (or, with the cap touched, leave the survey inconclusive).
    The codimension-k slices of every admissible index 1..n-k+1 follow
    it in slices, and their summed survivor count is compared against
    the reference count in the notes only: the screens are necessary
    conditions, so extra tuples need not carry smooth families and a
    count mismatch is not a failure.  So Verified only says that every
    named family was found (the module docstring has the details).
    """
    if index < 1:
        raise ValueError(f"survey needs index >= 1, got {index}")
    k = n - index - 1
    if k < 1:
        raise ValueError(f"survey needs k = n - index - 1 >= 1, got k = {k}")
    indices = [index] + [i for i in range(1, n - k + 2) if i != index]
    results = [
        enumerate_candidates(EnumerationQuery(n=n, index=i, k=k, max_weight=cap)) for i in indices
    ]
    result = results[0]
    named = NAMED_SURVEY_FAMILIES.get((n, index), ())
    counterexample = _least(f for f in named if f not in result.survivors)
    status = Verdict.VERIFIED if counterexample is None else _missing(result)
    slices = [SliceOutcome(n, index, k, tuple(named), result, status, counterexample)]
    slices += [SliceOutcome(n, i, k, (), r, Verdict.VERIFIED) for i, r in zip(indices[1:], results[1:])]
    total = sum(len(r.survivors) for r in results)
    notes = [
        "screens are necessary conditions only; surviving tuples are candidates, "
        "not certified smooth families",
        f"survivors at cap {cap}: {len(result.survivors)}",
        f"survivors at codimension {k} summed over indices 1..{n - k + 1}: {total}",
    ]
    reference = SURVEY_REFERENCE_COUNTS.get((n, index))
    if reference is not None:
        if total == reference:
            notes.append(f"reference count {reference}: match")
        else:
            notes.append(
                f"reference count {reference}: MISMATCH (flagged, not failed; "
                f"see the necessary-conditions note)"
            )
    if any(r.cap_touched for r in results):
        notes.append("cap touched: raising max_weight could reveal further tuples")
    return _aggregate(VerifyCase.SURVEY, cap, slices, tuple(notes))


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
    elif missing is not None:
        status, counterexample = _missing(result), missing
    elif result.cap_touched:
        # Exact match so far, but the cap may hide extra survivors.
        status = Verdict.INCONCLUSIVE_CAP_TOUCHED
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


def _missing(result: EnumerationResult) -> Verdict:
    """The status of a slice missing an expected family: a touched cap may hide it."""
    return Verdict.INCONCLUSIVE_CAP_TOUCHED if result.cap_touched else Verdict.REFUTED


def _aggregate(
    case_id: VerifyCase, cap: int, slices: list[SliceOutcome], notes: tuple[str, ...] = ()
) -> VerificationResult:
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
        notes=notes,
    )
