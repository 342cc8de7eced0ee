import concurrent.futures
import copy
import importlib.util
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fitt.groebner
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
from fitt.rees import ReesParams, chart_presentation, ci_pruned_chart_presentation, rees_presentation, target_ideal
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

from grid_cases import LARGE_FILE, STRETCH_FILE, STRETCH_GRID, read_grid, shipped_grid, transport_ideal

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

    @pytest.mark.parametrize("policy", [True, False])
    def test_a_bool_is_not_an_explicit_index(self, policy):
        # refused like "guess": a bool would reach the report as "index_used": true
        with pytest.raises(ValueError, match=f"^unknown policy {policy!r}$"):
            evaluate_params(ReesParams(2, 3, 1, 2, (2, 2, 1)), policy)


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


def closed_form_chart_fitting(params: ReesParams, chart, index: int) -> Ideal:
    """Fitt_index of the differentials of pruned chart r, read off its sparse
    Jacobian.  Write N for the chart's variable count, J for its relations and
    k = N - index.  For r <= l, p divides e_i and e_r, so each relation
    x_i^{e_i} - U_i*x_r^{e_r} (s <= i <= l, i != r) has the single partial
    -x_r^{e_r}, in row dU_i: m = l - s columns, N = n + l - s, and the
    k-minors generate (x_r^{k*e_r}).  For r > l, e_r = 1 and the column of
    each i in s..l holds -x_r in row dU_i and -U_i in row dx_r:
    m = l - s + 1 columns, N = n + l - s + 1, and the k-minors generate
    x_r^{k-1}*(x_r, U_s..U_l).  Fitt is the unit ideal for k <= 0, J plus the
    k-minors for 1 <= k <= m, and J for k > m."""
    ring = chart.algebra.ring
    relations = list(chart.algebra.relations.generators)
    r, s, l = chart.r, params.s, params.l
    N, m = (params.n + l - s, l - s) if r <= l else (params.n + l - s + 1, l - s + 1)
    assert ring.nvars == N
    k = N - index
    if k <= 0:
        return Ideal(ring, (ring.one(),))
    if k > m:
        return Ideal(ring, relations)
    xr = ring.variable(f"x{r}")
    if r <= l:
        minor_gens = [xr ** (k * params.exponent(r))]
    else:
        minor_gens = [xr ** k] + [xr ** (k - 1) * ring.variable(f"U{i}") for i in range(s, l + 1)]
    return Ideal(ring, minor_gens + relations)


class TestChartFittingClosedForm:
    """The closed form of every pruned chart's Fitting ideals against
    kaehler_fitting, at indices N - 3 to N + 1, on each chart of the shipped
    grid and of the l = n - 1 stretch rows (the benchmark's charts rows).  At
    the corrected chart index n + l - s, k is 0 on charts r <= l and 1 on
    charts r > l: the unit ideal and cor42's (x_r, U_s..U_l) + J."""

    @pytest.mark.parametrize("params", shipped_grid() + STRETCH_GRID, ids=lambda params: params.flag_string())
    def test_every_chart_near_its_variable_count(self, params):
        assert chart_fitting_index(params, "corrected") == params.n + params.l - params.s
        for r in range(params.s, params.n + 1):
            chart = ci_pruned_chart_presentation(params.field, params.n, params.powers(), r)
            N = chart.algebra.ring.nvars
            for index in range(N - 3, N + 2):
                expected = closed_form_chart_fitting(params, chart, index)
                assert ideal_equal(kaehler_fitting(chart.algebra, index), expected), (r, index)



@pytest.mark.parametrize(
    "params",
    shipped_grid() + read_grid(STRETCH_FILE) + read_grid(LARGE_FILE),
    ids=lambda params: params.flag_string(),
)
def test_chart_variable_count_on_every_corrected_row(params):
    """A pruned chart r <= l keeps x_s..x_l among the generator x's, every
    non-generator x and the n - s U's: n + l - s variables, exactly the
    corrected chart index, so its Fitting ideal is the unit ideal by rank and
    kaehler_fitting builds no Jacobian.  A chart r > l keeps x_r as well."""
    index = chart_fitting_index(params, "corrected")
    assert index == params.n + params.l - params.s
    for r in range(params.s, params.n + 1):
        chart = ci_pruned_chart_presentation(params.field, params.n, params.powers(), r)
        assert chart.algebra.ring.nvars == (index if r <= params.l else index + 1), r


# the three negative controls of the benchmark's grid workload
NEGATIVE_CONTROLS = [("p=2 n=3 s=2 l=2 v=2,1", "paper"), ("p=2 n=3 s=1 l=2 v=2,2,1", 4), ("p=2 n=3 s=1 l=2 v=2,2,1", 6)]


def _rank_route_cases():
    rows = shipped_grid() + read_grid(STRETCH_FILE) + read_grid(LARGE_FILE)
    # the explicit index is one below the corrected one: there every chart
    # r <= l falls one short of its variable count, and must take the slow route
    cases = [(params, policy) for params in rows for policy in ("corrected", "paper", fitting_index(params, "corrected") - 1)]
    cases += [(ReesParams.parse(text), policy) for text, policy in NEGATIVE_CONTROLS]
    return [pytest.param(params, policy, id=f"{params.flag_string()} {policy}") for params, policy in cases]


@pytest.mark.parametrize("params,policy", _rank_route_cases())
def test_rank_decided_charts_match_the_slow_route(params, policy):
    """cor42 decides a chart r <= l whose chart index reaches its pruned
    ring's n + l - s variables by rank, before it builds the chart: it stores
    one unit ideal as both its Fitting ideal and its target.  Every other
    chart is built.  Each rank-decided verdict and both of its ideals must
    match the slow route: the pruned chart, kaehler_fitting, _chart_expected
    and ideal_equal."""
    fitt.verify._row_memo.cache_clear()
    verdicts = dict(_verdicts(corollary42_details(params, policy)))
    index = chart_fitting_index(params, policy)
    memo = _memo(params, policy)
    decided = sorted(r for r, (fitting, target) in memo.items() if fitting is target)
    reach = index >= params.n + params.l - params.s
    assert decided == (list(range(params.s, params.l + 1)) if reach else [])
    for r in decided:
        fitting, target = memo[r]
        chart = ci_pruned_chart_presentation(params.field, params.n, params.powers(), r)
        slow_fitting = kaehler_fitting(chart.algebra, index)
        slow_target = fitt.verify._chart_expected(params, chart)
        assert ideal_equal(fitting, slow_fitting) and ideal_equal(target, slow_target), r
        assert verdicts[r] == ideal_equal(slow_fitting, slow_target), r


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


class TestImageRoute:
    """image compares each contraction with the center and intersects the
    contractions only when one of them differs from it."""

    @pytest.mark.parametrize(
        "params", shipped_grid() + read_grid(STRETCH_FILE), ids=lambda params: params.flag_string()
    )
    def test_corrected_rows_form_no_intersection(self, params, monkeypatch):
        def refuse(I, J):
            raise AssertionError("image intersected contractions that all equal the center")

        monkeypatch.setattr(fitt.verify, "ideal_intersect", refuse)
        ok, details = image_details(params, "corrected")
        assert ok and all(c.equal for c in details)

    @pytest.mark.parametrize(
        "text, policy", [("p=2 n=4 s=2 l=2 v=2,1,1", "paper"), ("p=2 n=3 s=1 l=1 v=2,1,1", 99)]
    )
    def test_unit_contractions_fall_back_to_the_intersection(self, text, policy, monkeypatch):
        """Every contraction is the unit ideal here, so none equals the center:
        the two charts' contractions are intersected once, and the verdict and
        per-chart containment are the unpruned oracle's."""
        params = ReesParams.parse(text)
        real_intersect, real_contract = fitt.verify.ideal_intersect, fitt.verify.contract
        intersections, contractions = [], []

        def counting_intersect(I, J):
            intersections.append((I, J))
            return real_intersect(I, J)

        def recording_contract(I, ring):
            contractions.append(real_contract(I, ring))
            return contractions[-1]

        monkeypatch.setattr(fitt.verify, "ideal_intersect", counting_intersect)
        monkeypatch.setattr(fitt.verify, "contract", recording_contract)
        ok, details = image_details(params, policy)
        assert len(intersections) == 1
        assert len(contractions) == 2 and all(c.is_unit() for c in contractions)
        assert not ok
        assert (ok, [c.equal for c in details]) == image_unpruned(params, policy)


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

    def test_non_int_field_is_skipped_not_fatal(self):
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(2, 2, True, 1, (2, True))]
        reports = run_grid(grid)
        assert [r.status for r in reports] == ["pass", "skipped"]
        assert reports[1].reason == "s=True must be an int, not bool"

    def test_a_type_error_in_a_check_is_not_skipped(self, monkeypatch):
        def broken(*args):
            raise TypeError("a fault in the checks")

        monkeypatch.setattr(fitt.verify, "check_theorem41", broken)
        with pytest.raises(TypeError, match="a fault in the checks"):
            evaluate_params(ReesParams(2, 2, 1, 1, (2, 1)))

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

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(2, marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork", reason="the pool's workers must inherit the patch")),
        ],
    )
    def test_an_unexpected_exception_is_that_rows_error(self, monkeypatch, workers):
        grid = [ReesParams(2, 2, 1, 1, (2, 1)), ReesParams(3, 2, 1, 1, (3, 1)), ReesParams(2, 3, 1, 2, (2, 2, 1))]
        expected = [r.to_dict(include_timing=False) for r in run_grid(grid)]
        check = fitt.verify.check_theorem41

        def broken(params, policy):
            if params.p == 3:
                raise KeyError("a fault in one tuple")
            return check(params, policy)

        monkeypatch.setattr(fitt.verify, "check_theorem41", broken)
        reports = run_grid(grid, workers=workers)
        assert [r.status for r in reports] == ["pass", "error", "pass"]
        assert reports[1].reason == "KeyError: 'a fault in one tuple'"
        assert reports[1].index_used == 0 and reports[1].charts == []
        got = [r.to_dict(include_timing=False) for r in reports]
        assert got[0] == expected[0] and got[2] == expected[2]
        assert got[1] == {**expected[1], "index_used": 0, "charts": [], "micali_ok": None, "corollary_ok": None,
                          "image_ok": None, "status": "error", "reason": "KeyError: 'a fault in one tuple'"}

    def test_an_error_row_keeps_its_status_through_pickling(self, monkeypatch):
        monkeypatch.setattr(fitt.verify, "evaluate_params", lambda params, policy: 1 / 0)
        (report,) = run_grid([ReesParams(2, 2, 1, 1, (2, 1))])
        assert (report.status, report.reason, report.policy) == ("error", "ZeroDivisionError: division by zero", "corrected")
        for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report), copy.copy(report)):
            assert copied == report and copied.status == "error"
        skipped = VerificationReport(report.params, "corrected", 0, reason=report.reason)
        assert skipped.status == "skipped" and skipped != report

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


def _memo(params, policy="corrected"):
    """The row memo of params at policy's chart index."""
    index = chart_fitting_index(params, policy)
    return fitt.verify._row_memo(params.p, params.n, params.s, params.l, tuple(params.v), index)


def _verdicts(charts):
    return [(c.r, c.equal) for c in charts]


class TestRowMemo:
    """The chart Fitting and target ideals of the most recent row are built
    once and shared by thm41, cor42 and image; their cached bases make a
    repeat cor42 comparison free."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        fitt.verify._row_memo.cache_clear()

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of chart ring builds, kaehler_fitting and _chart_expected
        calls through fitt.verify.  Every chart build starts with its ring."""
        counts = {"ring": 0, "fitting": 0, "expected": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fitt.verify, "ci_pruned_chart_ring", counting("ring", fitt.verify.ci_pruned_chart_ring))
        monkeypatch.setattr(fitt.verify, "kaehler_fitting", counting("fitting", fitt.verify.kaehler_fitting))
        monkeypatch.setattr(fitt.verify, "_chart_expected", counting("expected", fitt.verify._chart_expected))
        return counts

    @pytest.mark.parametrize("text", ["p=3 n=4 s=2 l=3 v=3,3,1", "p=3 n=6 s=1 l=2 v=3,9,1,1,1,1"])
    def test_evaluate_params_computes_each_chart_once(self, calls, text):
        # the charts r <= l are decided by rank: built no further than their ring
        params = ReesParams.parse(text)
        assert evaluate_params(params).status == "pass"
        assert calls == {"ring": params.n - params.s + 1, "fitting": params.n - params.l, "expected": params.n - params.l}

    def test_rank_decided_charts_call_neither_fitting_nor_target(self, calls):
        # at index 6 (chart index 5) charts 1 and 2 reach their 4 variables;
        # at index 4 (chart index 3) they fall one short, so each takes the slow route
        params = ReesParams.parse("p=2 n=3 s=1 l=2 v=2,2,1")
        assert _verdicts(corollary42_details(params, 6)) == [(1, True), (2, True), (3, False)]
        assert calls == {"ring": 3, "fitting": 1, "expected": 1}
        memo = _memo(params, 6)
        assert all(memo[r][0] is memo[r][1] and memo[r][0].generators == (memo[r][0].ring.one(),) for r in (1, 2))
        assert _verdicts(corollary42_details(params, 4)) == [(1, False), (2, False), (3, False)]
        assert calls == {"ring": 6, "fitting": 4, "expected": 4}

    def test_image_alone_computes_only_its_charts_and_no_verdicts(self, calls):
        params = ReesParams.parse("p=2 n=7 s=2 l=3 v=2,4,1,1,1,1")
        assert image_details(params)[0]
        assert calls == {"ring": params.n - params.l, "fitting": params.n - params.l, "expected": params.n - params.l}
        # a cor42 verdict would leave a reduced basis on both ideals of its chart
        memo = _memo(params)
        assert sorted(memo) == list(range(params.l + 1, params.n + 1))
        assert not any(ideal._gb for pair in memo.values() for ideal in pair)

    def test_corollary_after_theorem_computes_nothing(self, calls, monkeypatch):
        params = ReesParams.parse("p=3 n=4 s=2 l=3 v=3,3,1")
        report = check_theorem41(params)
        before = dict(calls)
        runs, buchberger = [], fitt.groebner.buchberger
        monkeypatch.setattr(fitt.groebner, "buchberger", lambda *args: runs.append(args) or buchberger(*args))
        assert _verdicts(corollary42_details(params)) == _verdicts(report.charts)
        assert (calls, runs) == (before, [])

    @pytest.mark.parametrize(
        "text,policy", [("p=2 n=7 s=2 l=3 v=2,4,1,1,1,1", "corrected"), ("p=2 n=3 s=2 l=2 v=2,1", "paper")]
    )
    def test_corollary_after_image_builds_only_the_charts_image_left(self, calls, text, policy):
        params = ReesParams.parse(text)
        image_details(params, policy)
        before = dict(calls)
        after_image = _verdicts(corollary42_details(params, policy))
        # the charts image left are r <= l, and each is decided by rank
        assert calls == {**before, "ring": before["ring"] + params.l - params.s + 1}
        fitt.verify._row_memo.cache_clear()
        assert after_image == _verdicts(corollary42_details(params, policy))

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


def test_large_grid_file_shape():
    grid = read_grid(LARGE_FILE)
    assert [(params.p, params.n, params.s, params.l) for params in grid] == [
        (2, 20, 1, 1),
        (2, 24, 1, 1),
        (2, 20, 1, 10),
        (3, 12, 1, 6),
    ]
    for params in grid:
        params.validate()


def test_shipped_grid_file_matches_default_grid():
    assert shipped_grid() == default_grid()


def test_benchmark_reads_the_shipped_grid_as_the_tests_do(monkeypatch):
    """The benchmark's grid reader drops only whole-line comments, while the
    CLI and the tests also strip inline ones; the shipped file must read the
    same both ways."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert [ReesParams.parse(line) for line in workloads.grid_lines()] == shipped_grid()
