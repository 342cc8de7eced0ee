import json
import sys
from pathlib import Path

import jsonschema
import pytest

from golden_cases import CASES, GOLDEN_DIR, golden_path, run_cli

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "docs" / "report.schema.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,argv,expected_exit,frozen", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, expected_exit, frozen):
    """A frozen case runs once against its golden file; an unfrozen one runs
    twice against itself.  test_criterion_7_cli_determinism runs every case
    twice in a row."""
    code, out = run_cli(argv)
    assert code == expected_exit
    if frozen:
        expected = golden_path(name).read_text(encoding="utf-8")
        assert out == expected, f"{name}: output differs from the frozen golden file"
    else:
        assert run_cli(argv) == (code, out), f"{name}: output differs between consecutive runs"


class TestReportSchema:
    def validate(self, payload):
        jsonschema.validate(payload, SCHEMA)

    def test_thm41(self):
        _, out = run_cli(
            ["verify", "thm41", "--p", "2", "--n", "2", "--s", "1", "--l", "1",
             "--v", "2,1", "--format", "json", "--no-timing"]
        )
        self.validate(json.loads(out))

    def test_cor42(self):
        _, out = run_cli(
            ["verify", "cor42", "--p", "2", "--n", "2", "--s", "1", "--l", "1",
             "--v", "2,1", "--format", "json"]
        )
        self.validate(json.loads(out))

    def test_image(self):
        _, out = run_cli(
            ["verify", "image", "--p", "2", "--n", "2", "--s", "1", "--l", "1",
             "--v", "2,1", "--format", "json"]
        )
        self.validate(json.loads(out))

    def test_grid_rows(self):
        _, out = run_cli(
            ["verify", "grid", "--file", str(GOLDEN_DIR / "grid_small.txt"),
             "--workers", "1", "--format", "json", "--no-timing"]
        )
        rows = json.loads(out)
        assert isinstance(rows, list) and rows
        for row in rows:
            self.validate(row)

    def test_explicit_index_policy(self):
        _, out = run_cli(
            ["verify", "thm41", "--p", "2", "--n", "2", "--s", "1", "--l", "1",
             "--v", "2,1", "--index", "3", "--format", "json", "--no-timing"]
        )
        payload = json.loads(out)
        self.validate(payload)
        assert payload["policy"] == "explicit" and payload["index_used"] == 3


class TestExitCodes:
    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gb", "--vars", "x"])
        assert exc.value.code == 2

    def test_bad_field_is_usage_error(self):
        code, _ = run_cli(["gb", "--field", "p=6", "--vars", "x", "--gens", "x"])
        assert code == 2

    def test_invalid_params_are_validation_errors(self):
        code, _ = run_cli(
            ["verify", "thm41", "--p", "2", "--n", "3", "--s", "1", "--l", "3", "--v", "2,2,2"]
        )
        assert code == 2

    def test_parse_error_is_validation_error(self):
        code, _ = run_cli(["gb", "--field", "p=2", "--vars", "x", "--gens", "x +"])
        assert code == 2

    def test_failed_verification_is_one(self):
        code, _ = run_cli(
            ["verify", "thm41", "--p", "2", "--n", "3", "--s", "1", "--l", "2",
             "--v", "2,2,1", "--index", "6", "--no-timing"]
        )
        assert code == 1

    def test_member_query_succeeds_regardless_of_verdict(self):
        code, out = run_cli(
            ["member", "--field", "rationals", "--vars", "x,y", "--gens", "x", "--poly", "y"]
        )
        assert code == 0 and out == "false\n"

    def test_missing_grid_file(self):
        code, _ = run_cli(["verify", "grid", "--file", "no/such/file.txt"])
        assert code == 2

    def test_grid_without_file_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "grid", "--workers", "1"])
        assert exc.value.code == 2
        assert "the following arguments are required: --file" in capsys.readouterr().err

    def test_chart_index_outside_the_generators_is_exit_two(self, capsys):
        code, out = run_cli(
            ["rees", "chart", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1", "--r", "0"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: chart index 0 is not a generator index\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit here"
    )
    def test_integer_past_the_digit_limit_is_exit_two(self, capsys):
        code, out = run_cli(["gb", "--field", "rationals", "--vars", "x", "--gens", "1" * 5000])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.endswith("(at position 0)\n")

    def test_directory_as_input_is_usage_error(self, tmp_path):
        code, _ = run_cli(["gb", "--field", "p=2", "--vars", "x", "--input", str(tmp_path)])
        assert code == 2

    def test_directory_as_grid_file_is_usage_error(self, tmp_path):
        code, _ = run_cli(["verify", "grid", "--file", str(tmp_path), "--workers", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "content", ["", "# p=2 n=2 s=1 l=1 v=2,1\n\n   # only comments\n"], ids=["empty", "comments-only"]
    )
    def test_grid_file_without_tuples_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "grid.txt"
        path.write_text(content, encoding="utf-8")
        code, out = run_cli(["verify", "grid", "--file", str(path), "--workers", "1"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {path} holds no parameter tuples\n"

    def test_nonnormal_probe_rejects_a_non_prime_p(self, capsys):
        code, out = run_cli(["verify", "nonnormal", "--p", "0"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: p=0 is not prime\n"

    @pytest.mark.parametrize(
        "verb",
        [["verify", "thm41"], ["verify", "cor42"], ["verify", "image"],
         ["rees", "print"], ["rees", "chart", "--r", "1"], ["rees", "micali"]],
        ids=lambda verb: "-".join(verb[:2]),
    )
    @pytest.mark.parametrize(
        "bad,message",
        [
            (["--p", "4", "--v", "2,2,1"], "error: p=4 is not prime\n"),
            (["--p", "2", "--v", "2,2"], "error: v must list exponents v_1..v_3 (3 values, got 2)\n"),
        ],
        ids=["p-not-prime", "v-too-short"],
    )
    def test_params_are_validated_before_any_construction(self, capsys, verb, bad, message):
        code, out = run_cli(verb + ["--n", "3", "--s", "1", "--l", "2"] + bad)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ("x,,y;1,2", "error: --matrix row 1 has an empty entry: 'x,,y'\n"),
            ("x,y,;1,2", "error: --matrix row 1 has an empty entry: 'x,y,'\n"),
            ("1,2;x,,y", "error: --matrix row 2 has an empty entry: 'x,,y'\n"),
        ],
        ids=["inner", "trailing", "second-row"],
    )
    def test_fitting_matrix_with_an_empty_entry_is_a_usage_error(self, capsys, matrix, message):
        code, out = run_cli(
            ["fitting", "--field", "rationals", "--vars", "x,y", "--matrix", matrix, "--index", "0"]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("block", ["", ",", " , "])
    def test_eliminate_empty_block_is_a_usage_error(self, capsys, block):
        code, out = run_cli(
            ["eliminate", "--field", "rationals", "--vars", "x,y", "--gens", "y - x^2; x - 1",
             "--block", block]
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: --block needs at least one variable name\n"

    def test_fitting_empty_matrix_is_one_generator_without_relations(self):
        argv = ["fitting", "--field", "rationals", "--vars", "x", "--matrix", ""]
        assert run_cli(argv + ["--index", "0"]) == (0, "0\n")
        assert run_cli(argv + ["--index", "1"]) == (0, "1\n")

    def test_exponent_overflow_in_a_single_check_is_exit_two(self):
        # at index 5 a 2x2 minor of the chart at x_1^{v_1}T is (x_1^{v_1})^2
        code, _ = run_cli(
            ["verify", "thm41", "--p", "2", "--n", "4", "--s", "1", "--l", "3",
             "--v", "2147483646,2147483646,2147483646,1", "--index", "5"]
        )
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, workers):
        code, _ = run_cli(
            ["verify", "grid", "--file", str(GOLDEN_DIR / "grid_small.txt"), "--workers", workers]
        )
        assert code == 2


class TestInputFile(object):
    def test_generators_from_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("# relation ideal\nx^2 - y\n\ny^2 - x\n", encoding="utf-8")
        code, out = run_cli(
            ["gb", "--field", "rationals", "--vars", "x,y", "--input", str(path), "--order", "lex"]
        )
        assert code == 0
        assert out == "y^4 - y\nx - y^2\n"

    def test_gens_and_input_conflict(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("x\n", encoding="utf-8")
        code, _ = run_cli(
            ["gb", "--field", "rationals", "--vars", "x", "--gens", "x", "--input", str(path)]
        )
        assert code == 2


def test_kaehler_fitting_via_cli():
    code, out = run_cli(
        ["kaehler", "--field", "rationals", "--vars", "x,y", "--relations", "y^2 - x^3",
         "--index", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 1
    assert set(payload["generators"]) == {"-x^3 + y^2", "-3*x^2", "2*y"}


def test_grid_text_marks_skipped_reason():
    code, out = run_cli(
        ["verify", "grid", "--file", str(GOLDEN_DIR / "grid_small.txt"),
         "--workers", "1", "--no-timing"]
    )
    assert code == 1
    assert "skipped" in out and "need l < n" in out


def test_grid_text_reports_exponent_above_the_cap_as_skipped(tmp_path):
    # an exponent above the cap in the tuple itself, then one that only the
    # computation reaches (2*v_1 in a chart minor at index 5)
    path = tmp_path / "grid.txt"
    path.write_text("p=2 n=2 s=1 l=1 v=2,1\np=2 n=2 s=1 l=1 v=4294967296,1\n", encoding="utf-8")
    code, out = run_cli(["verify", "grid", "--file", str(path), "--workers", "1", "--no-timing"])
    rows = out.splitlines()[1:]
    assert code == 1 and len(rows) == 2
    assert " pass " in rows[0]
    assert "skipped" in rows[1] and rows[1].endswith("# v_1=4294967296 exceeds the exponent cap 2147483647")

    path.write_text(
        "p=2 n=3 s=1 l=2 v=2,2,1\np=2 n=4 s=1 l=3 v=2147483646,2147483646,2147483646,1\np=2 n=3 s=1 l=2 v=2,2,1\n",
        encoding="utf-8",
    )
    code, out = run_cli(
        ["verify", "grid", "--file", str(path), "--workers", "1", "--no-timing", "--index", "5"]
    )
    rows = out.splitlines()[1:]
    assert code == 1 and len(rows) == 3
    assert " pass " in rows[0] and " pass " in rows[2]
    assert "skipped" in rows[1] and rows[1].endswith("# exponent 4294967292 exceeds cap 2147483647")


def test_props_text_reports_all_suites():
    code, out = run_cli(["verify", "props", "--seed", "3"])
    assert code == 0
    assert out.strip().endswith("status: pass")
    assert "groebner-spolys" in out
