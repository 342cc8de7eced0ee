"""The golden CLI invocations: shared by the CLI tests and the acceptance
determinism criterion.  Each case pins argv, the expected exit code, and
(when frozen is True) a byte-exact output file under tests/golden/."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from fitt.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GRID_SMALL = GOLDEN_DIR / "grid_small.txt"
GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"

# (name, argv, expected exit code, frozen golden file?)
CASES = [
    (
        "gb_binomial",
        ["gb", "--field", "p=2", "--vars", "x1,x2,T1,T2", "--gens", "x1^2*T2 - x2*T1"],
        0,
        True,
    ),
    (
        "gb_lex",
        ["gb", "--field", "rationals", "--vars", "x,y", "--gens", "x^2 - y; y^2 - x", "--order", "lex"],
        0,
        True,
    ),
    (
        "member_false",
        ["member", "--field", "p=2", "--vars", "x3,x4,U", "--gens", "x3; U*x3^2 - x4^4", "--poly", "x4^2"],
        0,
        True,
    ),
    (
        "saturate",
        ["saturate", "--field", "rationals", "--vars", "x,y", "--gens", "x*y", "--by", "x"],
        0,
        True,
    ),
    (
        "eliminate",
        ["eliminate", "--field", "rationals", "--vars", "x,y", "--gens", "y - x^2; x - 1", "--block", "x"],
        0,
        True,
    ),
    (
        "intersect",
        ["intersect", "--field", "rationals", "--vars", "x,y", "--gens", "x", "--other", "y"],
        0,
        True,
    ),
    (
        "fitting_diag",
        ["fitting", "--field", "rationals", "--vars", "a,b", "--matrix", "a,0;0,b", "--index", "1"],
        0,
        True,
    ),
    (
        "kaehler_matrix",
        ["kaehler", "--field", "p=2", "--vars", "x1,x2,T1,T2", "--relations", "x1^2*T2 - x2*T1"],
        0,
        True,
    ),
    (
        "rees_print",
        ["rees", "print", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1"],
        0,
        True,
    ),
    (
        "rees_chart",
        ["rees", "chart", "--p", "2", "--n", "2", "--s", "1", "--l", "1", "--v", "2,1", "--r", "2"],
        0,
        True,
    ),
    (
        "rees_chart_reduced",
        ["rees", "chart", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1", "--r", "1"],
        0,
        True,
    ),
    (
        "rees_micali",
        ["rees", "micali", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1"],
        0,
        True,
    ),
    (
        "verify_thm41_json",
        ["verify", "thm41", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1",
         "--policy", "corrected", "--format", "json", "--no-timing"],
        0,
        True,
    ),
    (
        "verify_thm41_paper_fail",
        ["verify", "thm41", "--p", "2", "--n", "3", "--s", "2", "--l", "2", "--v", "2,1",
         "--policy", "paper", "--no-timing"],
        1,
        True,
    ),
    (
        "verify_cor42_json",
        ["verify", "cor42", "--p", "2", "--n", "2", "--s", "1", "--l", "1", "--v", "2,1",
         "--format", "json", "--no-timing"],
        0,
        True,
    ),
    (
        "verify_image_text",
        ["verify", "image", "--p", "2", "--n", "3", "--s", "1", "--l", "1", "--v", "2,1,1",
         "--no-timing"],
        0,
        True,
    ),
    (
        "verify_nonnormal",
        ["verify", "nonnormal", "--p", "2"],
        0,
        True,
    ),
    (
        "verify_grid_small",
        ["verify", "grid", "--file", str(GRID_SMALL), "--workers", "1", "--no-timing"],
        1,
        True,
    ),
    (
        "verify_grid_small_json",
        ["verify", "grid", "--file", str(GRID_SMALL), "--workers", "1", "--no-timing",
         "--format", "json"],
        1,
        True,
    ),
    # the shipped grids pin the chart vector of every shipped tuple; under the
    # paper policy the four s = 2 rows fail
    (
        "verify_grid_default",
        ["verify", "grid", "--file", str(GRIDS_DIR / "default.txt"), "--workers", "1", "--no-timing"],
        0,
        True,
    ),
    (
        "verify_grid_default_json",
        ["verify", "grid", "--file", str(GRIDS_DIR / "default.txt"), "--workers", "1", "--no-timing",
         "--format", "json"],
        0,
        True,
    ),
    (
        "verify_grid_default_paper",
        ["verify", "grid", "--file", str(GRIDS_DIR / "default.txt"), "--workers", "1", "--no-timing",
         "--policy", "paper"],
        1,
        True,
    ),
    (
        "verify_grid_stretch_json",
        ["verify", "grid", "--file", str(GRIDS_DIR / "stretch.txt"), "--workers", "1", "--no-timing",
         "--format", "json"],
        0,
        True,
    ),
    # JSON shapes of the utility and construction verbs, plus text shapes of
    # a member query that holds, the Kaehler Fitting ideal, and passing
    # thm41/cor42 reports
    (
        "gb_lex_json",
        ["gb", "--field", "rationals", "--vars", "x,y", "--gens", "x^2 - y; y^2 - x", "--order", "lex",
         "--format", "json"],
        0,
        True,
    ),
    (
        "member_true",
        ["member", "--field", "rationals", "--vars", "x,y", "--gens", "x; y", "--poly", "x*y + y^2"],
        0,
        True,
    ),
    (
        "member_true_json",
        ["member", "--field", "rationals", "--vars", "x,y", "--gens", "x; y", "--poly", "x*y + y^2",
         "--format", "json"],
        0,
        True,
    ),
    (
        "saturate_json",
        ["saturate", "--field", "rationals", "--vars", "x,y", "--gens", "x*y", "--by", "x",
         "--format", "json"],
        0,
        True,
    ),
    (
        "intersect_json",
        ["intersect", "--field", "rationals", "--vars", "x,y", "--gens", "x", "--other", "y",
         "--format", "json"],
        0,
        True,
    ),
    (
        "eliminate_json",
        ["eliminate", "--field", "rationals", "--vars", "x,y", "--gens", "y - x^2; x - 1", "--block", "x",
         "--format", "json"],
        0,
        True,
    ),
    (
        "fitting_diag_json",
        ["fitting", "--field", "rationals", "--vars", "a,b", "--matrix", "a,0;0,b", "--index", "1",
         "--format", "json"],
        0,
        True,
    ),
    (
        "kaehler_matrix_json",
        ["kaehler", "--field", "p=2", "--vars", "x1,x2,T1,T2", "--relations", "x1^2*T2 - x2*T1",
         "--format", "json"],
        0,
        True,
    ),
    (
        "kaehler_index",
        ["kaehler", "--field", "rationals", "--vars", "x,y", "--relations", "y^2 - x^3", "--index", "1"],
        0,
        True,
    ),
    (
        "rees_print_json",
        ["rees", "print", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1",
         "--format", "json"],
        0,
        True,
    ),
    (
        "rees_chart_json",
        ["rees", "chart", "--p", "2", "--n", "2", "--s", "1", "--l", "1", "--v", "2,1", "--r", "2",
         "--format", "json"],
        0,
        True,
    ),
    (
        "rees_chart_reduced_json",
        ["rees", "chart", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1", "--r", "1",
         "--format", "json"],
        0,
        True,
    ),
    (
        "rees_micali_json",
        ["rees", "micali", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1",
         "--format", "json"],
        0,
        True,
    ),
    (
        "verify_thm41_text",
        ["verify", "thm41", "--p", "2", "--n", "3", "--s", "1", "--l", "2", "--v", "2,2,1",
         "--no-timing"],
        0,
        True,
    ),
    (
        "verify_cor42_text",
        ["verify", "cor42", "--p", "2", "--n", "2", "--s", "1", "--l", "1", "--v", "2,1",
         "--no-timing"],
        0,
        True,
    ),
    (
        "verify_image_json",
        ["verify", "image", "--p", "2", "--n", "3", "--s", "1", "--l", "1", "--v", "2,1,1",
         "--format", "json", "--no-timing"],
        0,
        True,
    ),
    (
        "verify_nonnormal_json",
        ["verify", "nonnormal", "--p", "2", "--format", "json"],
        0,
        True,
    ),
    # property-suite output depends on the interpreter's Random stream, so the
    # bytes are checked run-against-run but not frozen in the repository
    (
        "verify_props",
        ["verify", "props", "--seed", "7", "--format", "json"],
        0,
        False,
    ),
]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_path(name: str) -> Path:
    suffix = ".json" if name.endswith("_json") else ".txt"
    return GOLDEN_DIR / f"{name}{suffix}"
