"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see one PASS/FAIL line per
criterion.  Ideal comparisons are exact; the only tolerances are the wall-time
budgets stated alongside each criterion.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from fitt.groebner import Ideal, ideal_contains, ideal_equal
from fitt.kaehler import kaehler_fitting
from fitt.properties import DEFAULT_SEED, properties_ok, run_properties
from fitt.rees import ReesParams, rees_presentation, target_ideal
from fitt.verify import (
    VerificationReport,
    check_corollary42,
    check_image_equals_center,
    check_theorem41,
    default_grid,
    nonnormality_probe,
)
from golden_cases import CASES, golden_path, run_cli

THEOREM_BUDGET_PER_TUPLE = 30.0
THEOREM_BUDGET_TOTAL = 300.0
COROLLARY_BUDGET_PER_TUPLE = 60.0
NONNORMAL_BUDGET = 5.0
PROPERTIES_BUDGET = 120.0


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {num} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {num} [{label}]: PASS")


@dataclass
class GridRow:
    params: ReesParams
    theorem: VerificationReport
    theorem_seconds: float
    corollary_ok: bool
    image_ok: bool
    corollary_seconds: float


@pytest.fixture(scope="module")
def grid_rows():
    rows = []
    for params in default_grid():
        t0 = time.perf_counter()
        theorem = check_theorem41(params, "corrected")
        t1 = time.perf_counter()
        corollary = check_corollary42(params, "corrected")
        image = check_image_equals_center(params, "corrected")
        t2 = time.perf_counter()
        rows.append(GridRow(params, theorem, t1 - t0, corollary, image, t2 - t1))
    return rows


def test_criterion_1_theorem_grid(grid_rows):
    """Every chart comparison equal and the relation kernel confirmed, for all
    sixteen tuples (p in {2, 3}), at the corrected policy."""
    with criterion(1, "theorem 4.1 grid"):
        assert len(grid_rows) == 16
        for row in grid_rows:
            charts = [(c.r, c.equal) for c in row.theorem.charts]
            assert all(eq for _, eq in charts), (row.params.flag_string(), charts)
            assert row.theorem.micali_ok is True, row.params.flag_string()
            assert row.theorem_seconds < THEOREM_BUDGET_PER_TUPLE, row.params.flag_string()
        assert sum(r.theorem_seconds for r in grid_rows) < THEOREM_BUDGET_TOTAL


def test_criterion_2_index_discrepancy():
    """(p=2, n=3, s=2, l=2): the paper's index 6 fails, the corrected index 4
    passes with Fitting ideal exactly (T2, x3, x2^2) plus relations."""
    with criterion(2, "index discrepancy"):
        params = ReesParams(2, 3, 2, 2, (2, 1))
        paper = check_theorem41(params, "paper")
        assert paper.index_used == 6 and paper.status == "fail"
        corrected = check_theorem41(params, "corrected")
        assert corrected.index_used == 4 and corrected.status == "pass"
        algebra = rees_presentation(params)
        ring = algebra.ring
        fitt = kaehler_fitting(algebra, 4)
        expected = Ideal(
            ring,
            [ring.parse("T2"), ring.parse("x3"), ring.parse("x2^2")]
            + list(algebra.relations.generators),
        )
        assert ideal_equal(fitt, expected)
        assert ideal_equal(fitt, target_ideal(params))


def test_criterion_3_negative_control():
    """(p=2, n=3, s=1, l=2): explicit indices 4 and 6 each break at least one
    chart; the true index 5 passes everywhere."""
    with criterion(3, "negative control"):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        assert check_theorem41(params, 5).status == "pass"
        for bad_index in (4, 6):
            report = check_theorem41(params, bad_index)
            assert any(not c.equal for c in report.charts), bad_index


def test_criterion_4_corollary_and_image(grid_rows):
    """Chart form of the corollary (unit ideal for r <= l, (x_r, U_s..U_l) plus
    relations above) and schematic image = center, on every grid tuple."""
    with criterion(4, "corollary 4.2 charts and image"):
        for row in grid_rows:
            assert row.corollary_ok, row.params.flag_string()
            assert row.image_ok, row.params.flag_string()
            assert row.corollary_seconds < COROLLARY_BUDGET_PER_TUPLE, row.params.flag_string()


def test_criterion_5_nonnormality():
    """The blow-up chart of (x3^p, x4^{p^2}) is non-normal for p = 2 and 3,
    with the sanity membership x4^{p^2} in (x3^p) + relations."""
    with criterion(5, "non-normality probe"):
        t0 = time.perf_counter()
        for p in (2, 3):
            probe = nonnormality_probe(p, 4, 3, 4)
            assert probe.nonnormal, p
            assert probe.sanity_control, p
        assert time.perf_counter() - t0 < NONNORMAL_BUDGET


def test_criterion_6_property_suites():
    """Seeded randomized suites: zero failures, with the stated trial floors."""
    with criterion(6, "property suites"):
        t0 = time.perf_counter()
        results = run_properties(DEFAULT_SEED)
        elapsed = time.perf_counter() - t0
        failing = [(r.name, r.notes) for r in results if r.failures]
        assert properties_ok(results), failing
        suites = {r.name: r for r in results}
        assert suites["groebner-spolys"].trials >= 200
        assert suites["leibniz"].trials + suites["frobenius-kill"].trials >= 200
        fitting = sum(
            suites[n].trials
            for n in (
                "fitting-chain",
                "fitting-shift",
                "fitting-presentation-independence",
                "fitting-base-change",
            )
        )
        assert fitting >= 100
        assert elapsed < PROPERTIES_BUDGET


def test_criterion_7_cli_determinism():
    """Every golden CLI invocation exits with its expected code, and its
    output is byte-identical across runs.  A frozen case runs once: its
    committed golden file holds the bytes of an earlier run, so one equal run
    shows the output repeats.  An unfrozen case runs twice in a row."""
    with criterion(7, "CLI determinism"):
        for name, argv, expected_exit, frozen in CASES:
            code, out = run_cli(argv)
            assert code == expected_exit, name
            if frozen:
                assert out == golden_path(name).read_text(encoding="utf-8"), name
            else:
                assert run_cli(argv) == (code, out), name


def test_grid_monotonicity_witness(grid_rows):
    """Fitt_index contained in Fitt_{index+1} survives the Rees construction."""
    for row in grid_rows:
        algebra = rees_presentation(row.params)
        index = row.theorem.index_used
        lower = kaehler_fitting(algebra, index)
        upper = kaehler_fitting(algebra, index + 1)
        assert ideal_contains(upper, lower), row.params.flag_string()
