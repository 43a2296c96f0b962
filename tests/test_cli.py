"""Command line behavior: exit codes, stream discipline, encodings."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import wcifano.cli
import wcifano.verify
from wcifano.cli import main
from wcifano.core import Candidate
from wcifano.filters import FILTER_ORDER, FilterId, run_all
from wcifano.output import parse_jsonl_line


@pytest.fixture(autouse=True)
def clean_cap_env(monkeypatch):
    monkeypatch.delenv("WCI_DEFAULT_MAX_WEIGHT", raising=False)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_surviving_candidate_exits_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--weights", "1,1,1,1,1,1", "--degrees", "2,3"
        )
        assert code == 0
        record = json.loads(out)
        assert record["weights"] == [1, 1, 1, 1, 1, 1]
        assert record["degrees"] == [2, 3]
        assert record["fano_index"] == 1
        assert all(record["verdicts"].values())
        assert record["witnesses"] == {}

    def test_failing_candidate_exits_one_with_witness(self, capsys):
        code, out, err = run_cli(capsys, "check", "--weights", "6,10,15", "--degrees", "30")
        assert code == 1
        record = json.loads(out)
        assert record["verdicts"]["GcdCover"] is False
        assert record["witnesses"]["GcdCover"] == {
            "class_gcd": 2,
            "required": 2,
            "available": 1,
        }

    def test_input_is_normalized_before_screening(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--weights", "3,1,2", "--degrees", "4,2")
        record = json.loads(out)
        assert record["weights"] == [1, 2, 3]
        assert record["degrees"] == [2, 4]
        assert code == 1  # the sorted tuple fails the degree/weight pairing

    def test_huge_weight_decided_at_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--weights", "1,1,1,1000000000000000003",
            "--degrees", "2000000000000000006",
        )
        assert code == 1
        record = json.loads(out)
        assert record["witnesses"] == {"FanoPositivity": {"fano_index": -1000000000000000000}}
        assert [f for f, ok in record["verdicts"].items() if not ok] == ["FanoPositivity"]

    def test_named_and_explicit_profiles(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--weights", "1,2,3", "--degrees", "6", "--profile", "calabi-yau"
        )
        record = json.loads(out)
        assert code == 0
        assert "FanoPositivity" not in record["verdicts"]
        code2, out2, _ = run_cli(
            capsys,
            "check",
            "--weights", "1,2,3",
            "--degrees", "6",
            "--profile", "FanoPositivity,LinearCone",
        )
        assert code2 == 1  # index 0 fails the positivity screen
        assert set(json.loads(out2)["verdicts"]) == {"FanoPositivity", "LinearCone"}
        code3, out3, err3 = run_cli(
            capsys, "check", "--weights", "1,2", "--profile", "FanoPositivity,Bogus"
        )
        assert (code3, out3, err3) == (2, "", "error: unknown filter id 'Bogus'\n")

    def test_malformed_input_exits_two(self, capsys):
        assert run_cli(capsys, "check", "--weights", "1,x")[0] == 2
        assert run_cli(capsys, "check", "--weights", "")[0] == 2
        assert run_cli(capsys, "check", "--weights", "1,0,2")[0] == 2
        assert run_cli(capsys, "check", "--weights", "1,2", "--profile", "Bogus")[0] == 2

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--weights", "1,1,2", "--degrees", "5", "--format", "table"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("weights")
        assert any("fail:" in line for line in lines)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--weights", "1,1,1,1,1,1", "--degrees", "2,3", "--format", "csv"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[:5] == ["weights", "degrees", "dim", "codim", "fano_index"]
        assert header.split(",")[5:] == [fid.value for fid in FILTER_ORDER]
        cells = row.split(",")
        assert cells[0] == "1 1 1 1 1 1"
        assert cells[1] == "2 3"
        assert set(cells[5:]) == {"true"}


class TestEnumerate:
    def test_hypersurface_slice_streams_and_summarizes(self, capsys):
        code, out, err = run_cli(
            capsys,
            "enumerate",
            "--dim", "3", "--index", "2", "--codim", "1", "--max-weight", "50",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(tuple(r["weights"]), tuple(r["degrees"])) for r in rows] == [
            ((1, 1, 1, 1, 1), (3,)),
            ((1, 1, 1, 1, 2), (4,)),
            ((1, 1, 1, 2, 3), (6,)),
        ]
        assert err.strip() == (
            "survivors=3 nodes=8 tested=3 cap_touched=false"
            " complete_within_cap=true max_weight=50"
        )

    def test_a_hypersurface_slice_stops_at_the_weight_bound_under_any_cap(self, capsys):
        # at k = 1 no smooth-Fano survivor has a weight above n + 2 - index
        # (4 here), so a cap of 10^12 is walked no further than that
        code, out, err = run_cli(
            capsys,
            "enumerate",
            "--dim", "3", "--index", "1", "--codim", "1", "--max-weight", "1000000000000",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(tuple(r["weights"]), tuple(r["degrees"])) for r in rows] == [
            ((1, 1, 1, 1, 1), (4,)),
            ((1, 1, 1, 1, 3), (6,)),
        ]
        assert err == (
            "survivors=2 nodes=17 tested=2 cap_touched=false complete_within_cap=true"
            " max_weight=1000000000000\n"
        )

    def test_a_two_middle_slice_stops_at_the_middle_bound_under_any_cap(self, capsys):
        # at k >= 2 with two middles no smooth-Fano survivor has a middle
        # above 2, so LastWeight keeps the tails at 5 at most and a cap of
        # 10^12 is walked no further than that
        code, out, err = run_cli(
            capsys,
            "enumerate",
            "--dim", "4", "--index", "1", "--codim", "2", "--max-weight", "1000000000000",
        )
        assert code == 0
        assert len(out.splitlines()) == 7
        assert err == (
            "survivors=7 nodes=34 tested=7 cap_touched=false complete_within_cap=true"
            " max_weight=1000000000000\n"
        )

    def test_readme_summary_line_matches_the_cli(self, capsys):
        # the README shows this slice's summary under its first example
        argv = ("enumerate", "--dim", "3", "--index", "2", "--codim", "1", "--max-weight", "50")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert "wcifano " + " ".join(argv) in readme
        [line] = [line for line in readme.splitlines() if line.startswith("survivors=")]
        assert run_cli(capsys, *argv)[2].strip() == line

    def test_stdout_lines_reparse_to_the_same_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--dim", "5", "--index", "1", "--codim", "3", "--max-weight", "12",
        )
        assert code == 0
        for line in out.splitlines():
            record = parse_jsonl_line(line)
            profile = frozenset(FilterId(name) for name in record.verdicts)
            report = run_all(Candidate(record.weights, record.degrees), profile)
            assert {v.filter_id.value: v.passed for v in report.verdicts} == record.verdicts

    def test_infeasible_prefix_noted_in_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--dim", "2", "--index", "2", "--codim", "3"
        )
        assert code == 0
        assert out == ""
        assert "prefix_infeasible=true" in err

    def test_infeasible_prefix_blames_the_tails_when_the_prefix_fits(self, capsys):
        # 5 unit weights fit in 6, but not with the 3 Deltas tails
        code, out, err = run_cli(capsys, "enumerate", "--dim", "2", "--index", "2", "--codim", "3")
        assert (code, out) == (0, "")
        assert err == (
            "survivors=0 nodes=0 tested=0 cap_touched=false complete_within_cap=true"
            " max_weight=28 prefix_infeasible=true"
            " (codimension exceeds the admissible bound for this index)\n"
        )

    def test_infeasible_prefix_blames_the_index_when_the_prefix_is_too_long(self, capsys):
        # without Deltas: 4 unit weights asked of 3, whatever the codimension
        code, out, err = run_cli(
            capsys,
            "enumerate", "--dim", "1", "--index", "3", "--codim", "1", "--profile", "UnitPrefix",
        )
        assert (code, out) == (0, "")
        assert err.endswith(
            " prefix_infeasible=true (index exceeds the admissible bound for this dimension)\n"
        )
        assert "codimension" not in err

    def test_index_zero_under_fano_positivity_searches_nothing(self, capsys):
        # every tuple of the slice has index 0, which FanoPositivity fails
        code, out, err = run_cli(
            capsys, "enumerate", "--dim", "5", "--index", "0", "--codim", "3", "--max-weight", "20"
        )
        assert (code, out) == (0, "")
        assert err == (
            "survivors=0 nodes=0 tested=0 cap_touched=false complete_within_cap=true"
            " max_weight=20\n"
        )

    def test_env_var_sets_default_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WCI_DEFAULT_MAX_WEIGHT", "7")
        _, _, err = run_cli(capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "1")
        assert "max_weight=7" in err

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("WCI_DEFAULT_MAX_WEIGHT", "7")
        _, _, err = run_cli(
            capsys,
            "enumerate",
            "--dim", "2", "--index", "1", "--codim", "1", "--max-weight", "9",
        )
        assert "max_weight=9" in err

    def test_bad_env_var_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("WCI_DEFAULT_MAX_WEIGHT", "abc")
        assert run_cli(capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "1")[0] == 2

    def test_bad_env_var_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("WCI_DEFAULT_MAX_WEIGHT", "abc")
        code, out, err = run_cli(capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "1")
        assert code == 2
        assert out == ""
        assert err == "error: WCI_DEFAULT_MAX_WEIGHT='abc' is not an integer\n"

    def test_default_cap_formula_in_summary(self, capsys):
        _, _, err = run_cli(capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "1")
        assert "max_weight=16" in err  # 4 * (2 + 1 + 1)

    def test_invalid_query_exits_two(self, capsys):
        assert run_cli(capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "4")[0] == 2
        assert (
            run_cli(
                capsys,
                "enumerate",
                "--dim", "2", "--index", "1", "--codim", "1", "--workers", "0",
            )[0]
            == 2
        )

    def test_unknown_profile_entry_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--dim", "2", "--index", "1", "--codim", "1", "--profile", "Deltas,bogus"
        )
        assert (code, out, err) == (2, "", "error: unknown filter id 'bogus'\n")
        # the profile is checked before the candidate, whose zero weight would fail too
        code, out, err = run_cli(capsys, "check", "--weights", "1,0,2", "--profile", " Bogus ")
        assert (code, out, err) == (2, "", "error: unknown filter id 'Bogus'\n")

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--dim", "3", "--index", "2", "--codim", "1",
            "--max-weight", "50", "--format", "csv",
        )
        lines = out.splitlines()
        assert len(lines) == 4  # header + three rows
        assert lines[1].split(",")[0] == "1 1 1 1 1"

    def test_repeat_runs_byte_identical(self, capsys):
        first = run_cli(
            capsys, "enumerate", "--dim", "4", "--index", "1", "--codim", "2", "--max-weight", "10"
        )
        second = run_cli(
            capsys, "enumerate", "--dim", "4", "--index", "1", "--codim", "2", "--max-weight", "10"
        )
        assert first == second


class TestVerify:
    def test_case_ii_verified(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "ii", "--dim", "2..4")
        assert code == 0
        assert out.splitlines()[-1] == "verdict: Verified"
        assert "slice n=2 i=1 k=2:" in out

    def test_case_i_and_iii_and_hypersurface(self, capsys):
        assert run_cli(capsys, "verify", "--case", "i", "--dim", "2..3")[0] == 0
        assert run_cli(capsys, "verify", "--case", "iii", "--dim", "3..4")[0] == 0
        assert run_cli(capsys, "verify", "--case", "hypersurface", "--dim", "3..4")[0] == 0

    def test_survey_prints_one_slice_and_no_note(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--case", "survey", "--dim", "5", "--index", "1", "--max-weight", "12",
        )
        assert code == 0
        assert out.splitlines() == [
            "case survey  cap=12",
            "slice n=5 i=1 k=3: survivors=3 expected=3 cap_touched=false status=Verified",
            "verdict: Verified",
        ]

    def test_refuted_case_exits_one_with_the_counterexample(self, capsys, monkeypatch):
        # with a wrong family each slice's one true survivor is an extra
        def wrong(n, k):
            return Candidate((1,) * (n + k + 1), (3,) * k)

        monkeypatch.setattr(wcifano.verify, "all_quadrics_family", wrong)
        code, out, _ = run_cli(capsys, "verify", "--case", "ii", "--dim", "2..3")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == (
            "slice n=2 i=1 k=2: survivors=1 expected=1 cap_touched=false"
            " status=Refuted counterexample=(1,1,1,1,1;2,2)"
        )
        assert lines[-1] == "verdict: Refuted"

    def test_inconclusive_survey_exits_three_with_the_counterexample(
        self, capsys, extend_survey_families
    ):
        # the survey slice has two middles, which no survivor lifts above
        # 2; a cap of 1 cuts them, and hides the true (1^8, 3; 2, 2, 6),
        # which lies above the bogus family
        bogus = Candidate((1,) * 8 + (2,), (2, 2, 5))
        extend_survey_families(bogus)
        code, out, _ = run_cli(
            capsys, "verify", "--case", "survey", "--dim", "5", "--index", "1", "--max-weight", "1"
        )
        assert code == 3
        lines = out.splitlines()
        assert lines[1].startswith("slice n=5 i=1 k=3: ")
        assert lines[1].endswith(
            " cap_touched=true status=InconclusiveCapTouched"
            " counterexample=(1,1,1,1,1,1,1,1,2;2,2,5)"
        )
        assert lines[-1] == "verdict: InconclusiveCapTouched"

    def test_a_survey_missing_a_named_family_exits_one_with_the_counterexample(
        self, capsys, extend_survey_families
    ):
        # at --max-weight 10 the survey slice is cap-free, so a family it
        # misses refutes
        bogus = Candidate((1,) * 8 + (7,), (2, 2, 10))
        extend_survey_families(bogus)
        code, out, _ = run_cli(
            capsys, "verify", "--case", "survey", "--dim", "5", "--index", "1", "--max-weight", "10"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == (
            "slice n=5 i=1 k=3: survivors=3 expected=4 cap_touched=false status=Refuted"
            " counterexample=(1,1,1,1,1,1,1,1,7;2,2,10)"
        )
        assert lines[2:] == ["verdict: Refuted"]

    def test_survey_needs_dim_and_index(self, capsys):
        assert run_cli(capsys, "verify", "--case", "survey", "--dim", "5")[0] == 2
        # at index 0 the smooth-Fano profile leaves nothing to survey
        code, out, err = run_cli(capsys, "verify", "--case", "survey", "--dim", "2", "--index", "0")
        assert (code, out, err) == (2, "", "error: survey needs index >= 1, got 0\n")

    def test_the_case_choices_are_the_verify_cases(self):
        # the parser spells them out, so that building it loads no verify
        assert wcifano.cli._CASES == tuple(case.value for case in wcifano.verify.VerifyCase)

    def test_unknown_case_exits_two(self, capsys):
        assert run_cli(capsys, "verify", "--case", "nonsense")[0] == 2

    def test_bad_range_exits_two(self, capsys):
        assert run_cli(capsys, "verify", "--case", "ii", "--dim", "4..2")[0] == 2

    @pytest.mark.parametrize("dim, index", [("2", "0"), ("3", "7")])
    def test_empty_selection_exits_two(self, capsys, dim, index):
        code, out, err = run_cli(capsys, "verify", "--case", "i", "--dim", dim, "--index", index)
        assert (code, out) == (2, "")
        assert err == "error: case i: the given ranges select no slice\n"

    def test_case_i_index_outside_the_dimensions_exits_two(self, capsys):
        # dimension 3 admits indices 1 and 2 only, so 0..9 is not verified
        code, out, err = run_cli(capsys, "verify", "--case", "i", "--dim", "3", "--index", "0..9")
        assert (code, out) == (2, "")
        assert err == (
            "error: case i: index 0 is admitted by no dimension in 3..3;"
            " the admissible indices are 1..2\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--case", "ii", "--dim", "2..3", "--index", "3"),
            ("--case", "iii", "--index", "1"),
            ("--case", "hypersurface", "--dim", "3", "--index", "9"),
        ],
    )
    def test_index_outside_cases_i_and_survey_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", "error: --index applies only to cases i and survey\n")

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("--case", "ii", "--dim", "x"), "dim", "x"),
            (("--case", "i", "--index", "x"), "index", "x"),
            (("--case", "iii", "--dim", "3..y"), "dim", "3..y"),
            (("--case", "survey", "--dim", "6", "--index", "1.5"), "index", "1.5"),
        ],
    )
    def test_non_integer_span_names_the_flag(self, capsys, argv, flag, text):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --{flag} {text!r} is not an integer or a range A..B\n"

    def test_zero_cap_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--case", "ii", "--max-weight", "0")
        assert code == 2
        assert out == ""
        assert err == "error: max_weight must be >= 1, got 0\n"


class TestTransform:
    def test_wellformize_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "wellformize", "--weights", "1,2,2,2", "--degrees", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "transform: Wellformize"
        assert lines[1] == "before: weights=1,2,2,2 degrees=4"
        assert lines[2] == "step 1: divide weights at positions 1,2,3 and all degrees by 2"
        assert lines[3] == "after: weights=1,1,1,1 degrees=2"

    def test_unconize_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "unconize", "--weights", "1,1,2,3", "--degrees", "3,4"
        )
        assert code == 0
        assert "step 1: remove degree at position 0 matching weight at position 3 (value 3)" in out
        assert out.splitlines()[-1] == "after: weights=1,1,2 degrees=4"

    def test_section_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "section", "--weights", "1,1,1,2", "--degrees", "3"
        )
        assert code == 0
        assert out.splitlines()[-1] == "after: weights=1,1,2 degrees=3"

    def test_empty_degrees_printed_as_dash(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "section", "--weights", "1,1,1")
        assert code == 0
        assert out.splitlines()[-1] == "after: weights=1,1 degrees=-"

    def test_transform_errors_exit_one(self, capsys):
        assert run_cli(capsys, "transform", "section", "--weights", "1,1,2", "--degrees", "4")[0] == 1
        assert run_cli(capsys, "transform", "wellformize", "--weights", "2,4", "--degrees", "4")[0] == 1
        # transform does not normalize its input; unsorted weights are an error
        assert run_cli(capsys, "transform", "section", "--weights", "2,1")[0] == 1

    def test_parse_errors_exit_two(self, capsys):
        assert run_cli(capsys, "transform", "section", "--weights", "1,a")[0] == 2


class TestArgparseBehavior:
    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli(capsys, "check", "--weights", "1,1", "--bogus")[0] == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, checkout_env):
        proc = subprocess.run(
            [sys.executable, "-m", "wcifano", "check", "--weights", "1,1,1", "--degrees", "2"],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["weights"] == [1, 1, 1]

    @pytest.mark.parametrize(
        "call, unloaded",
        [
            ("import wcifano", ["wcifano.", "dataclasses", "inspect"]),
            (
                "['check', '--weights', '1,1,1,2,3', '--degrees', '6']",
                ["wcifano.enumerator", "wcifano.verify", "wcifano.transforms", "dataclasses",
                 "inspect"],
            ),
            (
                "['enumerate', '--dim', '3', '--index', '2', '--codim', '1']",
                ["wcifano.verify", "wcifano.transforms", "wcifano._forked", "concurrent.futures",
                 "dataclasses", "inspect"],
            ),
            (
                "['enumerate', '--dim', '6', '--index', '1', '--codim', '4', '--max-weight', '20',"
                " '--workers', '2']",
                ["wcifano.verify", "wcifano.transforms", "wcifano._forked", "concurrent.futures",
                 "dataclasses", "inspect"],
            ),
            (
                "['verify', '--case', 'hypersurface']",
                ["wcifano.transforms", "concurrent.futures", "dataclasses", "inspect", "json"],
            ),
            (
                "['transform', 'wellformize', '--weights', '1,2,2,2', '--degrees', '4']",
                ["wcifano.enumerator", "wcifano.verify", "dataclasses", "inspect", "json"],
            ),
        ],
        ids=[
            "import",
            "check",
            "enumerate",
            "enumerate-workers-2",
            "verify-hypersurface",
            "transform",
        ],
    )
    def test_a_call_loads_only_the_modules_it_runs(self, checkout_env, call, unloaded):
        # every module a call loads costs each process start its import,
        # and its compilation without a bytecode cache, so a call loads
        # only what it runs: `import wcifano` no submodule (a name loads
        # its module on first use), each subcommand its own modules, none
        # of them dataclasses, which loads inspect and its imports, and
        # verify and transform, which print no JSON, not json.  A search
        # too short to fork (the survey's two-worker call among them) does
        # not load the fork code either
        if call.startswith("["):
            call = f"from wcifano.cli import main\nassert main({call}) == 0"
        script = f"import sys\n{call}\nsys.stderr.write('\\nmodules ' + ' '.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stderr.splitlines()[-1].split()[1:]
        assert "wcifano" in loaded
        assert [m for m in loaded if m.startswith(tuple(unloaded))] == []

    def test_a_closed_stdout_exits_141_without_a_traceback(self, checkout_env):
        # the reader is gone before the first record: `| head -1` after
        # its line, or here a reader that closes the pipe at once
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "wcifano",
                "enumerate", "--dim", "4", "--index", "1", "--codim", "2", "--max-weight", "20",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 141
        assert err == ""

    def test_documented_survey_invocation(self, checkout_env):
        proc = subprocess.run(
            [
                sys.executable, "-m", "wcifano",
                "verify", "--case", "survey", "--dim", "6", "--index", "1", "--max-weight", "20",
            ],
            capture_output=True,
            text=True,
            env=checkout_env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "case survey  cap=20",
            "slice n=6 i=1 k=4: survivors=3 expected=3 cap_touched=false status=Verified",
            "verdict: Verified",
        ]
