import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitt.verify
from fitt.groebner import (
    Ideal,
    eliminate,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    localized_equal,
)
from fitt.kaehler import kaehler_fitting
from fitt.polyring import PolyRing
from fitt.rees import ReesParams, chart_presentation, rees_presentation, target_ideal
from fitt.verify import (
    ChartCheck,
    VerificationReport,
    chart_fitting_index,
    check_corollary42,
    check_image_equals_center,
    check_nonnormal,
    check_theorem41,
    corollary42_details,
    default_grid,
    evaluate_params,
    fitting_index,
    image_details,
    nonnormality_probe,
    run_grid,
)

from grid_cases import STRETCH_FILE, STRETCH_GRID, read_grid, shipped_grid, transport_ideal

POLICIES = ["corrected", "paper"] + list(range(-1, 11))


class TestIndexPolicies:
    def test_formulas(self):
        params = ReesParams(2, 3, 2, 2, (2, 1))
        assert fitting_index(params, "paper") == 6
        assert fitting_index(params, "corrected") == 4
        assert fitting_index(params, 7) == 7
        assert chart_fitting_index(params, "corrected") == 3

    def test_policies_agree_when_s_is_one(self):
        for params in default_grid():
            if params.s == 1:
                assert fitting_index(params, "paper") == fitting_index(params, "corrected")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            fitting_index(ReesParams(2, 2, 1, 1, (2, 1)), "guess")


class TestTheorem41:
    def test_smallest_tuple_passes_at_index_three(self):
        report = check_theorem41(ReesParams(2, 2, 1, 1, (2, 1)), "corrected")
        assert report.index_used == 3
        assert report.status == "pass"
        assert [c.r for c in report.charts] == [1, 2]
        assert report.micali_ok is True

    def test_index_discrepancy_demonstration(self):
        params = ReesParams(2, 3, 2, 2, (2, 1))
        paper = check_theorem41(params, "paper")
        assert paper.index_used == 6 and paper.status == "fail"
        corrected = check_theorem41(params, "corrected")
        assert corrected.index_used == 4 and corrected.status == "pass"
        # the corrected Fitting ideal equals the target on the nose
        algebra = rees_presentation(params)
        fitt = kaehler_fitting(algebra, 4)
        ring = algebra.ring
        expected = Ideal(
            ring,
            [ring.parse("T2"), ring.parse("x3"), ring.parse("x2^2")]
            + list(algebra.relations.generators),
        )
        assert ideal_equal(fitt, expected)
        assert ideal_equal(fitt, target_ideal(params))

    def test_report_records_validation_failure_via_grid(self):
        bad = ReesParams(2, 3, 1, 3, (2, 2, 2))
        with pytest.raises(Exception):
            check_theorem41(bad)


def theorem41_by_saturation(params, policy):
    """Oracle for the chart check of thm41: the Fitting ideal of the Rees
    ring at the global index against the target ideal, compared after
    inverting each T_r as equality of the two T_r-saturations.  Returns the
    chart vector and the status it gives when the kernel check passes."""
    algebra = rees_presentation(params)
    fitt = kaehler_fitting(algebra, fitting_index(params, policy))
    target = target_ideal(params)
    charts = [
        localized_equal(fitt, target, algebra.ring.variable(f"T{r}"))
        for r in range(params.s, params.n + 1)
    ]
    return charts, "pass" if all(charts) else "fail"


class TestTheorem41AgainstSaturation:
    """The chart check of thm41 gives the chart vector and the status that
    the saturation route on the Rees ring gives."""

    @pytest.mark.parametrize("params", shipped_grid(), ids=lambda params: params.flag_string())
    def test_default_grid_at_every_policy(self, params):
        for policy in ["corrected", "paper"] + list(range(-1, 11)):
            report = check_theorem41(params, policy)
            expected = theorem41_by_saturation(params, policy)
            assert ([c.equal for c in report.charts], report.status) == expected, policy

    @pytest.mark.parametrize("params", STRETCH_GRID, ids=lambda params: params.flag_string())
    def test_stretch_grid(self, params):
        report = check_theorem41(params, "corrected")
        assert ([c.equal for c in report.charts], report.status) == theorem41_by_saturation(
            params, "corrected"
        )


class TestCorollary42:
    def test_plane_blowup_chart_shapes(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        details = corollary42_details(params, "corrected")
        assert [(c.r, c.equal) for c in details] == [(1, True), (2, True)]
        # r = 2 chart: Fitt_2 = (x2, U1) + relations
        chart = chart_presentation(params, 2)
        ring = chart.algebra.ring
        fitt = kaehler_fitting(chart.algebra, 2)
        expected = Ideal(
            ring,
            [ring.variable("x2"), ring.variable("U1")] + list(chart.algebra.relations.generators),
        )
        assert ideal_equal(fitt, expected)
        # r = 1 chart (r <= l): unit ideal
        assert kaehler_fitting(chart_presentation(params, 1).algebra, 2).is_unit()

    def test_p3_chart_expected_ideal(self):
        params = ReesParams(3, 3, 1, 1, (3, 1, 1))
        chart = chart_presentation(params, 3)
        ring = chart.algebra.ring
        fitt = kaehler_fitting(chart.algebra, chart_fitting_index(params, "corrected"))
        expected = Ideal(
            ring,
            [ring.variable("x3"), ring.variable("U1")] + list(chart.algebra.relations.generators),
        )
        assert ideal_equal(fitt, expected)
        assert check_corollary42(params, "corrected")


def corollary42_unpruned(params, policy):
    """Oracle for the chart vector: each chart Fitting ideal on the unpruned
    chart presentation, compared with the expected ideal there."""
    index = chart_fitting_index(params, policy)
    out = []
    for r in range(params.s, params.n + 1):
        chart = chart_presentation(params, r)
        fitting = kaehler_fitting(chart.algebra, index)
        out.append(ideal_equal(fitting, fitt.verify._chart_expected(params, chart)))
    return out


def image_unpruned(params, policy):
    """Oracle for image: the chart Fitting ideals on the unpruned charts,
    contracted to the x-ring and intersected.  Returns the verdict and the
    per-chart containment of the center."""
    index = chart_fitting_index(params, policy)
    xring = PolyRing(params.field, [f"x{i}" for i in range(1, params.n + 1)])
    center = Ideal(
        xring, [xring.variable(f"x{i}") ** params.exponent(i) for i in range(params.s, params.n + 1)]
    )
    combined, contained = None, []
    for r in range(params.l + 1, params.n + 1):
        chart = chart_presentation(params, r)
        fitting = kaehler_fitting(chart.algebra, index)
        ublock = [name for name in chart.algebra.ring.variables if name.startswith("U")]
        contraction = transport_ideal(eliminate(fitting, ublock), xring)
        combined = contraction if combined is None else ideal_intersect(combined, contraction)
        contained.append(ideal_contains(contraction, center))
    return combined is not None and ideal_equal(combined, center), contained


def assert_matches_unpruned(params, policy):
    report = evaluate_params(params, policy)
    charts = corollary42_unpruned(params, policy)
    image_ok, contained = image_unpruned(params, policy)
    assert [c.equal for c in report.charts] == charts, policy
    assert report.corollary_ok == all(charts), policy
    assert report.image_ok == image_ok, policy
    assert [c.equal for c in image_details(params, policy)[1]] == contained, policy
    assert report.status == ("pass" if all(charts) and report.micali_ok and image_ok else "fail"), policy


class TestPrunedChartsAgainstUnpruned:
    """thm41, cor42 and image on the pruned charts give the chart vector,
    the image verdict, the per-chart containment and the status that the
    unpruned charts give."""

    @pytest.mark.parametrize("params", shipped_grid(), ids=lambda params: params.flag_string())
    def test_default_grid_at_every_policy(self, params):
        for policy in POLICIES:
            assert_matches_unpruned(params, policy)

    @pytest.mark.parametrize("params", STRETCH_GRID, ids=lambda params: params.flag_string())
    def test_stretch_grid(self, params):
        for policy in ("corrected", "paper"):
            assert_matches_unpruned(params, policy)


class TestImageEqualsCenter:
    def test_plane_blowup_contraction(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        ok, details = image_details(params, "corrected")
        assert ok and [c.r for c in details] == [2]

    def test_two_chart_intersection(self):
        params = ReesParams(2, 3, 1, 1, (2, 1, 1))
        ok, details = image_details(params, "corrected")
        assert ok
        # charts r <= l are skipped; only r = 2, 3 contribute
        assert [c.r for c in details] == [2, 3]
        assert all(c.equal for c in details)

    def test_check_wrapper(self):
        assert check_image_equals_center(ReesParams(2, 3, 2, 2, (2, 1)), "corrected")


class TestNonnormal:
    @pytest.mark.parametrize("p", [2, 3])
    def test_blowup_chart_is_nonnormal(self, p):
        probe = nonnormality_probe(p, 4, 3, 4)
        assert probe.integral_witness
        assert not probe.quotient_membership
        assert probe.sanity_control
        assert check_nonnormal(p)

    def test_independent_of_free_variables(self):
        for p in (2, 3):
            assert nonnormality_probe(p, 2, 1, 2).nonnormal == check_nonnormal(p)


class TestReportInvariant:
    def test_status_reflects_booleans_and_charts(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        report = VerificationReport(params, "corrected", 3)
        assert report.status == "pass"
        report.charts.append(ChartCheck(1, True, 0))
        assert report.status == "pass"
        report.micali_ok = False
        assert report.status == "fail"
        report.micali_ok = True
        report.charts.append(ChartCheck(2, False, 0))
        assert report.status == "fail"

    def test_skipped_wins(self):
        report = VerificationReport(ReesParams(2, 2, 1, 1, (2, 1)), "corrected", 0, reason="nope")
        assert report.status == "skipped"

    def test_to_dict_shape(self):
        report = check_theorem41(ReesParams(2, 2, 1, 1, (2, 1)))
        d = report.to_dict(include_timing=False)
        assert d["params"] == {"p": 2, "n": 2, "s": 1, "l": 1, "v": [2, 1]}
        assert d["policy"] == "corrected"
        assert d["corollary_ok"] is None and d["image_ok"] is None
        assert all(c["ms"] == 0 for c in d["charts"])
        assert "reason" not in d


class TestRunGrid:
    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_invalid_tuple_is_skipped_not_fatal(self):
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(2, 3, 1, 3, (2, 2, 2))]
        reports = run_grid(grid)
        assert [r.status for r in reports] == ["pass", "skipped"]
        assert "l < n" in reports[1].reason

    def test_exponent_above_the_cap_is_skipped_not_fatal(self):
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(2, 2, 1, 1, (2**32, 1))]
        reports = run_grid(grid)
        assert [r.status for r in reports] == ["pass", "skipped"]
        assert reports[1].reason == "v_1=4294967296 exceeds the exponent cap 2147483647"

    def test_exponent_overflow_in_a_check_is_skipped_not_fatal(self):
        # at index 5, 2*v_1 overflows the cap in a chart minor of thm41; the rows
        # after it still run
        passing = ReesParams(2, 3, 1, 2, (2, 2, 1))
        grid = [passing, ReesParams(2, 4, 1, 3, (2147483646, 2147483646, 2147483646, 1)), passing]
        reports = run_grid(grid, 5)
        assert [r.status for r in reports] == ["pass", "skipped", "pass"]
        assert reports[1].reason == "exponent 4294967292 exceeds cap 2147483647"
        assert reports[1].index_used == 0 and reports[1].charts == []

    def test_near_cap_exponents_pass_with_closed_form_charts(self):
        # v_1 + v_2 is above the cap, and no check on this tuple may form it
        report = evaluate_params(ReesParams(2, 3, 1, 2, (2147483646, 2147483646, 1)))
        assert report.status == "pass"
        assert report.micali_ok and report.corollary_ok and report.image_ok

    def test_near_cap_exponents_pass_on_the_pruned_charts(self):
        # the unpruned charts of this tuple form x_1^{2 v_1}; the pruned ones never do
        report = evaluate_params(ReesParams(2, 4, 1, 2, (2147483646, 2147483646, 1, 1)))
        assert report.status == "pass"
        assert [c.equal for c in report.charts] == [True] * 4
        assert report.micali_ok and report.corollary_ok and report.image_ok

    def test_order_follows_input(self):
        grid = [ReesParams(2, 3, 2, 2, (2, 1)), ReesParams(2, 2, 1, 1, (2, 1))]
        reports = run_grid(grid)
        assert [r.params for r in reports] == grid

    def test_parallel_matches_serial(self):
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(3, 2, 1, 1, (3, 1))]
        serial = run_grid(grid, workers=1)
        parallel = run_grid(grid, workers=2)
        strip = lambda reports: [r.to_dict(include_timing=False) for r in reports]
        assert strip(serial) == strip(parallel)

    @staticmethod
    def _stand_in_pool(monkeypatch, cpus):
        """Replace ProcessPoolExecutor by a serial stand-in that records its
        size and starts no process, on a host reporting `cpus` CPUs."""
        sized = []

        class SerialPool:
            def __init__(self, max_workers):
                sized.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return sized

    def test_pool_is_capped_at_job_count(self, monkeypatch):
        sized = self._stand_in_pool(monkeypatch, 64)
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(3, 2, 1, 1, (3, 1))]
        reports = run_grid(grid, workers=10_000)
        assert sized == [2]
        assert [r.status for r in reports] == ["pass", "pass"]

    @pytest.mark.parametrize("cpus, sizes", [(3, [3]), (1, []), (None, [])])
    def test_pool_is_capped_at_cpu_count(self, monkeypatch, cpus, sizes):
        """A pool never outnumbers the CPUs; a pool of one runs serially."""
        sized = self._stand_in_pool(monkeypatch, cpus)
        grid = [ReesParams(p, 2, 1, 1, (p, 1)) for p in (2, 3, 5, 7, 11)]
        reports = run_grid(grid, workers=5_000)
        assert sized == sizes
        assert [r.status for r in reports] == ["pass"] * 5

    def test_importing_fitt_loads_no_process_pool(self):
        """Only a grid run with more than one worker needs the pool modules."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys, fitt; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"


def _chart_vector(report):
    return tuple(c.equal for c in report.charts)


class TestRowMemo:
    """The chart Fitting ideals and verdicts of the most recent row are
    computed once and shared by thm41, cor42 and image."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        fitt.verify._row_memo.cache_clear()

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of kaehler_fitting and _chart_expected calls through fitt.verify."""
        counts = {"fitting": 0, "expected": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fitt.verify, "kaehler_fitting", counting("fitting", fitt.verify.kaehler_fitting))
        monkeypatch.setattr(fitt.verify, "_chart_expected", counting("expected", fitt.verify._chart_expected))
        return counts

    @pytest.mark.parametrize("text", ["p=3 n=4 s=2 l=3 v=3,3,1", "p=3 n=6 s=1 l=2 v=3,9,1,1,1,1"])
    def test_evaluate_params_computes_each_chart_once(self, calls, text):
        params = ReesParams.parse(text)
        assert evaluate_params(params).status == "pass"
        assert calls == {"fitting": params.n - params.s + 1, "expected": params.n - params.s + 1}

    def test_image_alone_computes_only_its_charts_and_no_verdicts(self, calls):
        params = ReesParams.parse("p=2 n=7 s=2 l=3 v=2,4,1,1,1,1")
        assert image_details(params)[0]
        assert calls == {"fitting": params.n - params.l, "expected": 0}

    def test_corollary_after_theorem_computes_nothing(self, calls):
        params = ReesParams.parse("p=3 n=4 s=2 l=3 v=3,3,1")
        report = check_theorem41(params)
        before = dict(calls)
        assert corollary42_details(params) == report.charts
        assert calls == before

    def test_index_change_replaces_the_row(self):
        params = ReesParams.parse("p=2 n=3 s=1 l=2 v=2,2,1")
        vectors = [_chart_vector(evaluate_params(params, index)) for index in (4, 6, 4)]
        assert vectors == [(False, False, False), (True, True, False), (False, False, False)]

    def test_policy_change_keeps_both_verdicts(self):
        params = ReesParams.parse("p=2 n=3 s=2 l=2 v=2,1")
        paper = evaluate_params(params, "paper")
        corrected = evaluate_params(params, "corrected")
        assert (paper.status, _chart_vector(paper), paper.corollary_ok, paper.image_ok) == (
            "fail",
            (True, False),
            False,
            False,
        )
        assert (corrected.status, _chart_vector(corrected)) == ("pass", (True, True))

    def test_overflowing_row_leaves_the_next_row_unchanged(self):
        # at index 5 the overflow row builds charts 1 and 2, then overflows on chart 3
        overflow = ReesParams(2, 4, 1, 3, (2, 2, 2147483646, 1))
        following = ReesParams(2, 4, 1, 3, (2, 2, 2, 1))
        fresh = evaluate_params(following, 5).to_dict(include_timing=False)
        for _ in range(2):
            assert evaluate_params(overflow, 5).reason == "exponent 4294967292 exceeds cap 2147483647"
        assert evaluate_params(following, 5).to_dict(include_timing=False) == fresh


def test_evaluate_params_full_row():
    report = evaluate_params(ReesParams(2, 2, 1, 1, (2, 1)))
    assert report.status == "pass"
    assert report.micali_ok and report.corollary_ok and report.image_ok


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 16
    assert {params.p for params in grid} == {2, 3}
    for params in grid:
        params.validate()


def test_stretch_grid_file_passes():
    grid = read_grid(STRETCH_FILE)
    assert len(grid) == 20 and len(STRETCH_GRID) == 7
    assert max(params.n for params in grid) == 16


def test_shipped_grid_file_matches_default_grid():
    assert shipped_grid() == default_grid()
