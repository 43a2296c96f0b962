"""Command line front end.

Subcommands: check one candidate, enumerate a (dim, index, codim)
slice, verify a classification case, apply a transform.  Data rows go
to stdout; diagnostics and the enumeration summary go to stderr, so
stdout stays machine-parseable (one JSON record per line by default).

Exit codes: 0 success / all filters passed / verified; 1 filter
failure, transform error or refuted case; 2 malformed input; 3
inconclusive verification (weight cap touched); 141 (128 + SIGPIPE)
when the reader of stdout closed it early, as `| head` does.

Each handler imports the modules it runs, so a subcommand loads no
module it does not use: check loads core, filters and output;
enumerate adds enumerator; verify adds enumerator and verify;
transform adds transforms.  No call loads dataclasses, or the inspect
module it imports: the value types are plain classes on core._Value.

The default enumeration weight cap is 4 * (dim + codim + index); the
environment variable WCI_DEFAULT_MAX_WEIGHT overrides it when
--max-weight is absent.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import Candidate, CandidateError, NotNormalized, new_candidate, normalize
from .filters import (
    CALABI_YAU_PROFILE,
    FilterId,
    SMOOTH_FANO_PROFILE,
    _plan,
    run_all,
)
from .output import OutputRecord, encode_csv, encode_jsonl, encode_table

# The typing module is not loaded for this: type checkers read the name.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .transforms import TransformTrace
    from .verify import VerificationResult

__all__ = ["main", "run"]

ENV_DEFAULT_CAP = "WCI_DEFAULT_MAX_WEIGHT"

_PROFILE_NAMES = {
    "smooth-fano": SMOOTH_FANO_PROFILE,
    "calabi-yau": CALABI_YAU_PROFILE,
}

# The values of verify.VerifyCase and the names of the transforms, spelled
# out so that building the parser loads neither module.
_CASES = ("i", "ii", "iii", "hypersurface", "survey")
_TRANSFORMS = ("wellformize", "unconize", "section")
# The reader of stdout is gone: 128 + SIGPIPE, as a shell reports a
# process that SIGPIPE killed.
_EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; keep 0 for --help.
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        # Flushed here, so that a closed stdout raises below, not at exit.
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush does not fail too (the Python docs' advice for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE


def run() -> None:
    raise SystemExit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcifano",
        description="Screen, enumerate and classify Fano weighted complete intersection candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the filter profile on one candidate")
    p_check.add_argument("--weights", required=True, help="comma-separated positive integers")
    p_check.add_argument("--degrees", default="", help="comma-separated positive integers (may be empty)")
    p_check.add_argument("--profile", default="smooth-fano", help="smooth-fano, calabi-yau, or comma-separated filter ids")
    p_check.add_argument("--format", choices=("jsonl", "csv", "table"), default="jsonl")
    p_check.set_defaults(handler=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="enumerate survivors for one (dim, index, codim) slice")
    p_enum.add_argument("--dim", type=int, required=True)
    p_enum.add_argument("--index", type=int, required=True)
    p_enum.add_argument("--codim", type=int, required=True)
    p_enum.add_argument("--max-weight", type=int, default=None)
    p_enum.add_argument("--profile", default="smooth-fano")
    p_enum.add_argument("--format", choices=("jsonl", "csv", "table"), default="jsonl")
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="check a classification case against the enumeration")
    p_verify.add_argument("--case", required=True, choices=_CASES)
    p_verify.add_argument("--dim", default=None, help="dimension or range A..B (case-specific default)")
    p_verify.add_argument("--index", default=None, help="index or range A..B (cases i and survey only; survey: single value)")
    p_verify.add_argument("--max-weight", type=int, default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    p_tr = sub.add_parser("transform", help="apply a tuple surgery and print its trace")
    p_tr.add_argument("kind", choices=_TRANSFORMS)
    p_tr.add_argument("--weights", required=True)
    p_tr.add_argument("--degrees", default="")
    p_tr.set_defaults(handler=_cmd_transform)

    return parser


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise CandidateError(f"{label} entry {part!r} is not an integer") from None
    return tuple(out)


def _parse_profile(text: str) -> frozenset[FilterId]:
    if text in _PROFILE_NAMES:
        return _PROFILE_NAMES[text]
    profile = frozenset(part.strip() for part in text.split(","))
    _plan(profile)  # raises ValueError on an entry that names no screen
    return frozenset(map(FilterId, profile))


def _parse_span(text: str, label: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"--{label} {text!r} is not an integer or a range A..B") from None
    if lo > hi:
        raise ValueError(f"{label} range {text!r} is empty")
    return lo, hi


def _emit_records(records: list[OutputRecord], fmt: str, profile: frozenset[FilterId]) -> None:
    if fmt == "jsonl":
        lines = encode_jsonl(records)
    elif fmt == "csv":
        lines = encode_csv(records, profile)
    else:
        lines = encode_table(records)
    for line in lines:
        sys.stdout.write(line + "\n")


def _cmd_check(args) -> int:
    weights = _parse_int_list(args.weights, "weights")
    degrees = _parse_int_list(args.degrees, "degrees")
    profile = _parse_profile(args.profile)
    candidate = normalize(new_candidate(weights, degrees))
    report = run_all(candidate, profile)
    _emit_records([OutputRecord.from_report(report)], args.format, profile)
    return 0 if report.survives else 1


def _cmd_enumerate(args) -> int:
    from .enumerator import EnumerationQuery, enumerate_candidates

    profile = _parse_profile(args.profile)
    cap = args.max_weight
    if cap is None and os.environ.get(ENV_DEFAULT_CAP):
        text = os.environ[ENV_DEFAULT_CAP]
        try:
            cap = int(text)
        except ValueError:
            raise ValueError(f"{ENV_DEFAULT_CAP}={text!r} is not an integer") from None
    query = EnumerationQuery(
        n=args.dim, index=args.index, k=args.codim, max_weight=cap, profile=profile
    )
    result = enumerate_candidates(query, workers=args.workers)
    records = [OutputRecord.from_report(run_all(c, profile)) for c in result.survivors]
    _emit_records(records, args.format, profile)
    summary = (
        f"survivors={len(result.survivors)}"
        f" nodes={result.stats.nodes}"
        f" tested={result.stats.tested}"
        f" cap_touched={str(result.cap_touched).lower()}"
        # The search decides every tuple within the cap by construction.
        " complete_within_cap=true"
        f" max_weight={query.max_weight}"
    )
    if result.prefix_infeasible:
        # The unit prefix of k + index weights overflows the n + k + 1
        # weights on its own, rather than with the tails.
        if query.index > query.n + 1:
            reason = "index exceeds the admissible bound for this dimension"
        else:
            reason = "codimension exceeds the admissible bound for this index"
        summary += f" prefix_infeasible=true ({reason})"
    print(summary, file=sys.stderr)
    return 0


def _given(**kwargs) -> dict:
    """The keyword arguments whose flag was given; the callee keeps its own defaults."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _cmd_verify(args) -> int:
    from .verify import (
        Verdict,
        VerifyCase,
        survey_codim,
        verify_case_i,
        verify_case_ii,
        verify_case_iii,
        verify_hypersurface_remark,
    )

    cases = {
        VerifyCase.CASE_I: verify_case_i,
        VerifyCase.CASE_II: verify_case_ii,
        VerifyCase.CASE_III: verify_case_iii,
        VerifyCase.HYPERSURFACE: verify_hypersurface_remark,
    }
    verdict_exit = {Verdict.VERIFIED: 0, Verdict.REFUTED: 1, Verdict.INCONCLUSIVE_CAP_TOUCHED: 3}
    cap = args.max_weight
    dims = None if args.dim is None else _parse_span(args.dim, "dim")
    case = VerifyCase(args.case)
    if args.index is not None and case not in (VerifyCase.CASE_I, VerifyCase.SURVEY):
        raise ValueError("--index applies only to cases i and survey")
    if case is VerifyCase.SURVEY and (dims is None or args.index is None):
        raise ValueError("survey needs --dim and --index")
    indices = None if args.index is None else _parse_span(args.index, "index")
    if case is VerifyCase.SURVEY:
        (n_lo, n_hi), (i_lo, i_hi) = dims, indices
        if n_lo != n_hi or i_lo != i_hi:
            raise ValueError("survey takes a single dimension and a single index")
        result = survey_codim(n_lo, i_lo, **_given(cap=cap))
    else:
        result = cases[case](**_given(n_range=dims, i_range=indices, cap=cap))
    _print_verification(result)
    return verdict_exit[result.verdict]


def _print_verification(result: VerificationResult) -> None:
    print(f"case {result.case_id.value}  cap={result.cap}")
    for outcome in result.slices:
        line = (
            f"slice n={outcome.n} i={outcome.index} k={outcome.k}:"
            f" survivors={len(outcome.result.survivors)}"
            f" expected={len(outcome.expected)}"
            f" cap_touched={str(outcome.result.cap_touched).lower()}"
            f" status={outcome.status.value}"
        )
        if outcome.counterexample is not None:
            line += (
                f" counterexample=({','.join(map(str, outcome.counterexample.weights))};"
                f"{','.join(map(str, outcome.counterexample.degrees))})"
            )
        print(line)
    print(f"verdict: {result.verdict.value}")


def _cmd_transform(args) -> int:
    from .transforms import TransformError, hyperplane_section, unconize, wellformize

    transform = {"wellformize": wellformize, "unconize": unconize, "section": hyperplane_section}
    weights = _parse_int_list(args.weights, "weights")
    degrees = _parse_int_list(args.degrees, "degrees")
    candidate = new_candidate(weights, degrees)
    try:
        trace = transform[args.kind](candidate)
    except (TransformError, NotNormalized) as exc:
        # A transform that does not apply fails (exit 1); malformed input exits 2.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_trace(trace)
    return 0


def _print_trace(trace: TransformTrace) -> None:
    from .transforms import TransformKind

    def fmt(c: Candidate) -> str:
        return (
            f"weights={','.join(map(str, c.weights))}"
            f" degrees={','.join(map(str, c.degrees)) if c.degrees else '-'}"
        )

    print(f"transform: {trace.kind.value}")
    print(f"before: {fmt(trace.before)}")
    for number, step in enumerate(trace.steps, start=1):
        if trace.kind is TransformKind.WELLFORMIZE:
            positions = ",".join(map(str, step.divided_positions))
            print(f"step {number}: divide weights at positions {positions} and all degrees by {step.factor}")
        elif trace.kind is TransformKind.UNCONIZE:
            print(
                f"step {number}: remove degree at position {step.degree_pos} matching "
                f"weight at position {step.weight_pos} (value {step.value})"
            )
        else:
            print(f"step {number}: drop unit weight at position {step.removed_pos}")
    print(f"after: {fmt(trace.after)}")
