import random

import pytest

import fitt.rees
from fitt import groebner
from fitt.groebner import Ideal, eliminate, ideal_equal, ideal_member
from fitt.polyring import EXPONENT_CAP, GREVLEX, LEX, CoefficientField, ExponentOverflowError, MonomialOrder, PolyRing
from fitt.rees import (
    ReesParams,
    ReesParamsError,
    chart_presentation,
    ci_chart_presentation,
    ci_micali_kernel,
    ci_pruned_chart_on,
    ci_pruned_chart_presentation,
    ci_pruned_chart_ring,
    ci_rees_presentation,
    exceptional_ideal,
    micali_kernel,
    rees_presentation,
    target_ideal,
)

from fitt.verify import check_theorem41

from grid_cases import GRID_FILE, LARGE_FILE, STRETCH_FILE, STRETCH_GRID, read_grid, shipped_grid, transport_ideal


class TestReesParams:
    def test_flag_round_trip(self):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        assert ReesParams.parse(params.flag_string()) == params

    @pytest.mark.parametrize("text,message", [
        ("p=2 n3 s=1 l=2 v=2,2,1", "expected key=value, got 'n3'"),
        ("p=2 n=3 s=1 l=2 p=3 v=2,2,1", "duplicate key 'p'"),
    ])
    def test_parse_names_the_bad_chunk(self, text, message):
        with pytest.raises(ReesParamsError, match=f"^{message}$"):
            ReesParams.parse(text)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReesParamsError):
            ReesParams.parse("p=2 n=3 s=1 l=2")
        with pytest.raises(ReesParamsError):
            ReesParams.parse("p=2 n=3 s=1 l=2 v=2,2,1 extra=1")
        with pytest.raises(ReesParamsError):
            ReesParams.parse("p=two n=3 s=1 l=2 v=2,2,1")

    @pytest.mark.parametrize(
        "text",
        [
            "p=2 n=3 s=1 l=2 v=2_0,2,1",  # int() reads 2_0 as 20
            "p=+2 n=3 s=1 l=2 v=2,2,1",
            "p=\u0662 n=3 s=1 l=2 v=2,2,1",  # ARABIC-INDIC DIGIT TWO
            "p=2 n=3 s=1 l=2 v=2,\xb2,1",  # SUPERSCRIPT TWO
            "p=2 n=3 s=1 l=2 v=2,,1",
            "p=2 n=3 s=1 l=2 v=2,2,1,",
            "p=- n=3 s=1 l=2 v=2,2,1",
            "p=--2 n=3 s=1 l=2 v=2,2,1",
            "p=2 n=3 s=1 l=2 v=2,-+2,1",
        ],
    )
    def test_parse_reads_only_ascii_digit_runs(self, text):
        with pytest.raises(ReesParamsError, match="malformed integer"):
            ReesParams.parse(text)

    def test_parse_passes_negative_values_to_validate(self):
        params = ReesParams.parse("p=2 n=3 s=-1 l=2 v=2,2,1")
        assert params == ReesParams(2, 3, -1, 2, (2, 2, 1))
        with pytest.raises(ReesParamsError, match="s=-1 must be at least 1"):
            params.validate()
        assert ReesParams.parse("p=2 n=3 s=1 l=2 v=2,-2,1").v == (2, -2, 1)

    @pytest.mark.parametrize(
        "params,fragment",
        [
            (ReesParams(4, 2, 1, 1, (4, 1)), "not prime"),
            (ReesParams(2, 3, 1, 3, (2, 2, 2)), "l < n"),
            (ReesParams(2, 3, 2, 1, (2, 1)), "s <= l"),
            (ReesParams(2, 3, 1, 2, (2, 2)), "v must list"),
            (ReesParams(2, 3, 1, 2, (2, 3, 1)), "must divide"),
            (ReesParams(2, 3, 1, 1, (2, 2, 2)), "must equal 1"),
            (ReesParams(2, 3, 0, 2, (2, 2, 2, 1)), "at least 1"),
            (ReesParams(2, 0, 1, 1, ()), "^n=0 must be at least 1$"),
        ],
    )
    def test_validation_names_the_invariant(self, params, fragment):
        with pytest.raises(ReesParamsError, match=fragment):
            params.validate()

    @pytest.mark.parametrize(
        "params,message",
        [
            (ReesParams(2, 2, True, 1, (2, True)), "s=True must be an int, not bool"),
            (ReesParams(2, 2, 1, 1, (2, True)), "v=True must be an int, not bool"),
            (ReesParams(2, 2, 1, 1, (2, "1")), "v='1' must be an int, not str"),
            (ReesParams("2", 2, 1, 1, (2, 1)), "p='2' must be an int, not str"),
        ],
    )
    def test_validation_refuses_a_field_that_is_not_an_int(self, params, message):
        # a bool is an int to Python, but would print as true in a report
        with pytest.raises(TypeError, match=f"^{message}$"):
            params.validate()

    def test_p_dividing_an_exponent_suffices(self):
        ReesParams(2, 2, 1, 1, (6, 1)).validate()  # 2 | 6 suffices for the theorem shape

    def test_exponent_above_the_cap_is_a_validation_error(self):
        # 2^31 - 1 is prime, so v_1 = EXPONENT_CAP itself is a valid shape
        ReesParams(EXPONENT_CAP, 2, 1, 1, (EXPONENT_CAP, 1)).validate()
        with pytest.raises(ReesParamsError, match=r"^v_1=2147483648 exceeds the exponent cap 2147483647$"):
            ReesParams(2, 2, 1, 1, (EXPONENT_CAP + 1, 1)).validate()


class TestPresentation:
    def test_single_pair(self):
        algebra = rees_presentation(ReesParams(2, 2, 1, 1, (2, 1)))
        ring = algebra.ring
        assert ring.variables == ("x1", "x2", "T1", "T2")
        assert ideal_equal(algebra.relations, Ideal(ring, [ring.parse("x1^2*T2 - x2*T1")]))

    def test_offset_start_index(self):
        algebra = rees_presentation(ReesParams(2, 3, 2, 2, (2, 1)))
        ring = algebra.ring
        assert ring.variables == ("x1", "x2", "x3", "T2", "T3")
        assert ideal_equal(algebra.relations, Ideal(ring, [ring.parse("x2^2*T3 - x3*T2")]))

    def test_three_binomials(self):
        algebra = rees_presentation(ReesParams(2, 3, 1, 2, (2, 2, 1)))
        assert len(algebra.relations.generators) == 3

    def test_invalid_params_refused(self):
        with pytest.raises(ReesParamsError):
            rees_presentation(ReesParams(2, 3, 1, 3, (2, 2, 2)))

    def test_equal_arguments_share_one_presentation(self):
        field = CoefficientField(3)
        first = ci_rees_presentation(field, 3, ((1, 3), (3, 1)))
        assert ci_rees_presentation(CoefficientField(3), 3, ((1, 3), (3, 1))) is first
        other = ci_rees_presentation(field, 3, ((1, 3), (2, 1)))
        assert other is not first and other.ring.variables == ("x1", "x2", "x3", "T1", "T2")

    def test_powers_may_be_a_list(self):
        field = CoefficientField(2)
        listed = ci_rees_presentation(field, 3, [[1, 2], [2, 2], [3, 1]])
        assert listed is ci_rees_presentation(field, 3, ((1, 2), (2, 2), (3, 1)))
        assert len(listed.relations.generators) == 3

    @pytest.mark.parametrize("powers,message", [
        (((4, 1),), r"^generator index 4 outside 1\.\.3$"),
        (((0, 1),), r"^generator index 0 outside 1\.\.3$"),
        (((1, 0),), "^exponent 0 for x1 must be at least 1$"),
    ])
    def test_invalid_powers_name_the_fault(self, powers, message):
        with pytest.raises(ReesParamsError, match=message):
            ci_rees_presentation(CoefficientField(2), 3, powers)

    def test_invalid_powers_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ReesParamsError, match="repeated generator index 2"):
                ci_rees_presentation(CoefficientField(2), 3, ((2, 2), (2, 1)))


class TestTargetAndExceptional:
    def test_target_small(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        ring = rees_presentation(params).ring
        expected = Ideal(
            ring,
            [ring.parse("x1^2"), ring.parse("x2"), ring.parse("T1"), ring.parse("x1^2*T2 - x2*T1")],
        )
        assert ideal_equal(target_ideal(params), expected)

    def test_target_offset(self):
        params = ReesParams(2, 3, 2, 2, (2, 1))
        ring = rees_presentation(params).ring
        expected = Ideal(
            ring,
            [ring.parse("x2^2"), ring.parse("x3"), ring.parse("T2"), ring.parse("x2^2*T3 - x3*T2")],
        )
        assert ideal_equal(target_ideal(params), expected)

    def test_target_edge_s_equals_l_equals_n_minus_1(self):
        params = ReesParams(3, 4, 3, 3, (3, 1))
        ring = rees_presentation(params).ring
        expected = Ideal(
            ring,
            [ring.parse("x3^3"), ring.parse("x4"), ring.parse("T3"), ring.parse("x3^3*T4 - x4*T3")],
        )
        assert ideal_equal(target_ideal(params), expected)

    def test_exceptional_small(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        ring = rees_presentation(params).ring
        expected = Ideal(ring, [ring.parse("x1^2"), ring.parse("x2"), ring.parse("x1^2*T2 - x2*T1")])
        assert ideal_equal(exceptional_ideal(params), expected)

    def test_exceptional_inside_target(self):
        for params in (ReesParams(2, 3, 1, 2, (2, 2, 1)), ReesParams(3, 3, 2, 2, (3, 1))):
            tgt = target_ideal(params)
            for g in exceptional_ideal(params).generators:
                assert ideal_member(g, tgt)


class TestCharts:
    @pytest.mark.parametrize("p", [2, 3])
    def test_last_chart_of_plane_blowup(self, p):
        chart = chart_presentation(ReesParams(p, 2, 1, 1, (p, 1)), 2)
        ring = chart.algebra.ring
        assert ring.variables == ("x1", "x2", "U1")
        expected = Ideal(ring, [ring.parse(f"x1^{p} - x2*U1")])
        assert ideal_equal(chart.algebra.relations, expected)

    def test_remark_chart_with_two_p_divisible_exponents(self):
        # generalized input (x3^p, x4^{p^2}) in four variables, chart at x3^p T
        p = 2
        chart = ci_chart_presentation(CoefficientField(p), 4, ((3, p), (4, p * p)), 3)
        ring = chart.algebra.ring
        assert ring.variables == ("x1", "x2", "x3", "x4", "U4")
        expected = Ideal(ring, [ring.parse(f"U4*x3^{p} - x4^{p * p}")])
        assert ideal_equal(chart.algebra.relations, expected)

    def test_last_chart_contains_exceptional_divisor_as_vanishing_of_xn(self):
        params = ReesParams(2, 3, 1, 1, (2, 1, 1))
        chart = chart_presentation(params, 3)
        ring = chart.algebra.ring
        cut = Ideal(ring, [ring.variable("x3")] + list(chart.algebra.relations.generators))
        for i in range(params.s, params.n + 1):
            gen = ring.variable(f"x{i}") ** params.exponent(i)
            assert ideal_member(gen, cut)

    def test_chart_index_must_be_a_generator(self):
        with pytest.raises(ReesParamsError):
            chart_presentation(ReesParams(2, 3, 2, 2, (2, 1)), 1)

    def test_chart_consistency_maps_back_into_localized_rees(self):
        # substituting U_i -> w*T_i lands every chart relation in J + (w*T_r - 1)
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        algebra = rees_presentation(params)
        for r in range(params.s, params.n + 1):
            chart = chart_presentation(params, r)
            big = algebra.ring.extended(["w"])
            w = big.variable("w")
            mapping = {
                f"U{i}": w * big.variable(f"T{i}")
                for i in range(params.s, params.n + 1)
                if i != r
            }
            localized = Ideal(
                big,
                [g.transport(big) for g in algebra.relations.generators]
                + [w * big.variable(f"T{r}") - big.one()],
            )
            for rel in chart.algebra.relations.generators:
                assert ideal_member(rel.substitute(big, mapping), localized)


def chart_by_elimination(field, n, powers, r):
    """Oracle for the closed-form chart, by elimination: adjoin w with
    w*T_r = 1 and U_i = w*T_i to the Rees presentation, then eliminate every
    T and w.  Returns (chart ring, relation ideal)."""
    rees = ci_rees_presentation(field, n, powers)
    big = rees.ring.extended([f"U{i}" for i, _ in powers if i != r] + [rees.ring.fresh_name("w")])
    w = big.variable(big.variables[-1])
    gens = [g.transport(big) for g in rees.relations.generators]
    gens.append(w * big.variable(f"T{r}") - big.one())
    for i, _ in powers:
        if i != r:
            gens.append(big.variable(f"U{i}") - w * big.variable(f"T{i}"))
    block = [f"T{i}" for i, _ in powers] + [big.variables[-1]]
    names = [f"x{i}" for i in range(1, n + 1)] + [f"U{i}" for i, _ in powers if i != r]
    chart_ring = PolyRing(field, names)
    return chart_ring, transport_ideal(eliminate(Ideal(big, gens), block), chart_ring)


def assert_matches_elimination(chart, field, n, powers):
    """The chart has the variables elimination gives, its relations are the
    binomials x_i^{e_i} - U_i*x_r^{e_r} (i != r), unreduced, in generator
    order, and their reduced basis is the very generators, in order, that
    elimination gives."""
    r, ring = chart.r, chart.algebra.ring
    er = dict(powers)[r]
    oracle_ring, relations = chart_by_elimination(field, n, powers, r)
    assert ring.variables == oracle_ring.variables
    binomials = tuple(ring.parse(f"x{i}^{e} - U{i}*x{r}^{er}") for i, e in powers if i != r)
    assert chart.algebra.relations.generators == binomials
    assert chart.algebra.relations.groebner_basis() == relations.generators


class TestClosedFormAgainstElimination:
    """The closed-form chart against elimination from the Rees ring."""

    @pytest.mark.parametrize(
        "params", shipped_grid() + STRETCH_GRID, ids=lambda params: params.flag_string()
    )
    def test_every_chart_of_the_grids(self, params):
        for r in range(params.s, params.n + 1):
            assert_matches_elimination(chart_presentation(params, r), params.field, params.n, params.powers())

    @pytest.mark.parametrize("p", [2, 3])
    def test_nonnormality_chart(self, p):
        field, powers = CoefficientField(p), ((3, p), (4, p * p))
        assert_matches_elimination(ci_chart_presentation(field, 4, powers, 3), field, 4, powers)

    def test_chart_index_outside_the_generators_is_refused(self):
        with pytest.raises(ReesParamsError, match="chart index 2 is not a generator index"):
            ci_chart_presentation(CoefficientField(2), 4, ((3, 2), (4, 4)), 2)


class TestPrunedCharts:
    """The pruned chart drops each exponent-1 generator x_i, i != r, keeps
    every other x (generator or not) and the whole U block, and lists the
    remaining binomials unreduced, in generator order."""

    # generators x2^2, x3^4, x4, x5 in five variables; x1 is no generator
    FIELD, N, POWERS = CoefficientField(2), 5, ((2, 2), (3, 4), (4, 1), (5, 1))

    def test_tail_chart(self):
        chart = ci_pruned_chart_presentation(self.FIELD, self.N, self.POWERS, 4)
        ring = chart.algebra.ring
        assert chart.r == 4
        assert ring.variables == ("x1", "x2", "x3", "x4", "U2", "U3", "U5")
        assert chart.algebra.relations.generators == (
            ring.parse("x2^2 - U2*x4"),
            ring.parse("x3^4 - U3*x4"),
        )

    def test_head_chart(self):
        chart = ci_pruned_chart_presentation(self.FIELD, self.N, self.POWERS, 2)
        ring = chart.algebra.ring
        assert ring.variables == ("x1", "x2", "x3", "U3", "U4", "U5")
        assert chart.algebra.relations.generators == (ring.parse("x3^4 - U3*x2^2"),)

    def test_relations_are_left_unreduced(self):
        # the reduced basis adds U3*x2^2 - U2*x3^2 to these two binomials
        chart = ci_pruned_chart_presentation(CoefficientField(2), 3, ((1, 2), (2, 2), (3, 2)), 1)
        ring = chart.algebra.ring
        assert ring.variables == ("x1", "x2", "x3", "U2", "U3")
        gens = (ring.parse("x2^2 - U2*x1^2"), ring.parse("x3^2 - U3*x1^2"))
        assert chart.algebra.relations.generators == gens
        assert len(chart.algebra.relations.groebner_basis()) == 3

    def test_isomorphic_to_the_unpruned_chart(self):
        # adding back x_j - U_j*x_r^{e_r} for the dropped x_j gives the
        # unpruned chart's relation ideal
        for r in (2, 3, 4, 5):
            full = ci_chart_presentation(self.FIELD, self.N, self.POWERS, r).algebra
            pruned = ci_pruned_chart_presentation(self.FIELD, self.N, self.POWERS, r).algebra
            ring = full.ring
            xr = ring.variable(f"x{r}") ** dict(self.POWERS)[r]
            gens = [g.transport(ring) for g in pruned.relations.generators]
            gens.extend(
                ring.variable(f"x{j}") - ring.variable(f"U{j}") * xr
                for j, e in self.POWERS
                if j != r and e == 1
            )
            assert ideal_equal(Ideal(ring, gens), full.relations), r

    @pytest.mark.parametrize("p", [2, 3])
    def test_same_as_the_full_chart_without_unit_pivots(self, p):
        # the non-normality powers (x3^p, x4^{p^2}) have no exponent-1 generator
        field, powers = CoefficientField(p), ((3, p), (4, p * p))
        for r in (3, 4):
            full = ci_chart_presentation(field, 4, powers, r).algebra
            pruned = ci_pruned_chart_presentation(field, 4, powers, r).algebra
            assert pruned.ring == full.ring
            assert pruned.relations.generators == full.relations.generators

    def test_chart_index_outside_the_generators_is_refused(self):
        with pytest.raises(ReesParamsError, match="chart index 1 is not a generator index"):
            ci_pruned_chart_presentation(self.FIELD, self.N, self.POWERS, 1)

    def test_bad_powers_are_refused(self):
        with pytest.raises(ReesParamsError, match="repeated generator index 2"):
            ci_pruned_chart_presentation(self.FIELD, 3, ((2, 2), (2, 1)), 2)



def _reference_chart_relations(ring, powers, r, pruned):
    """The chart binomials through ring arithmetic: x_i^{e_i} - U_i*x_r^{e_r}
    for i != r, skipping e_i = 1 in the pruned chart."""
    xr = ring.variable(f"x{r}") ** dict(powers)[r]
    return [
        ring.variable(f"x{i}") ** e - ring.variable(f"U{i}") * xr
        for i, e in powers
        if i != r and not (pruned and e == 1)
    ]


def _chart_sweep():
    """Every shipped-grid tuple, then seeded monomial complete intersections
    with n <= 7 over F_2, F_3, F_5 and F_7: a random set of generator
    indices, exponents among 1, p, p^2 and 2..9."""
    for path in (GRID_FILE, STRETCH_FILE, LARGE_FILE):
        for params in read_grid(path):
            yield params.field, params.n, params.powers()
    rng = random.Random(20261020)
    for p in (2, 3, 5, 7):
        for n in range(1, 8):
            for _ in range(4):
                indices = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
                powers = tuple((i, rng.choice((1, 1, p, p * p, rng.randint(2, 9)))) for i in indices)
                yield CoefficientField(p), n, powers


def _pruned_chart_in_two_steps(field, n, powers, r):
    """The pruned chart as verify builds it: its ring first, then the relations on it."""
    return ci_pruned_chart_on(ci_pruned_chart_ring(field, n, powers, r), n, powers, r)


def test_chart_relations_are_the_binomials_of_ring_arithmetic():
    """Both chart builders, at every chart index, list the same relations as
    the arithmetic reference: same order, same terms in the same order, and
    every coefficient in [0, p).  So does the pruned chart built in two
    steps, ring first, as verify builds it."""
    cases = 0
    builders = (
        (False, ci_chart_presentation),
        (True, ci_pruned_chart_presentation),
        (True, _pruned_chart_in_two_steps),
    )
    for field, n, powers in _chart_sweep():
        p = field.characteristic
        for r, _ in powers:
            for pruned, build in builders:
                chart = build(field, n, powers, r)
                ring = chart.algebra.ring
                got = chart.algebra.relations.generators
                expected = _reference_chart_relations(ring, powers, r, pruned)
                assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in expected]
                assert all(type(c) is int and 0 <= c < p for g in got for c in g.terms.values())
                cases += 1
    assert cases > 1000


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("build", [ci_chart_presentation, ci_pruned_chart_presentation])
def test_chart_exponent_over_the_cap_raises_as_rees_does(build, r):
    """An exponent above EXPONENT_CAP raises ExponentOverflowError in both
    chart builders, whether it sits on x_r or on another generator, as it
    does in the Rees presentation."""
    field, powers = CoefficientField(2), ((1, EXPONENT_CAP + 1), (2, 2))
    with pytest.raises(ExponentOverflowError):
        ci_rees_presentation(field, 2, powers)
    with pytest.raises(ExponentOverflowError):
        build(field, 2, powers, r)


def micali_kernel_by_elimination(field, n, powers):
    """Oracle for the saturation kernel: adjoin t, map T_i to x_i^{e_i}*t
    and eliminate t.  Returns the kernel in the Rees ambient ring."""
    ring = ci_rees_presentation(field, n, powers).ring
    aux = ring.fresh_name("t")
    big = ring.extended([aux])
    t = big.variable(aux)
    gens = [big.variable(f"T{i}") - big.variable(f"x{i}") ** e * t for i, e in powers]
    return transport_ideal(eliminate(Ideal(big, gens), [aux]), ring)


KERNEL_CASES = (
    [(params.field, params.n, params.powers()) for params in shipped_grid() + STRETCH_GRID]
    + [(CoefficientField(3), 3, ((2, 3), (3, 9)))]
    + [(CoefficientField(p), 4, ((3, p), (4, p * p))) for p in (2, 3)]
)


class TestSaturationKernelAgainstElimination:
    """The saturation kernel has the ring and the very generators, in order,
    that eliminating t gives."""

    @pytest.mark.parametrize(
        "field,n,powers",
        KERNEL_CASES,
        ids=[f"p={field.characteristic} n={n} powers={powers}" for field, n, powers in KERNEL_CASES],
    )
    def test_kernel(self, field, n, powers):
        kernel = ci_micali_kernel(field, n, powers)
        expected = micali_kernel_by_elimination(field, n, powers)
        assert kernel.ring == expected.ring
        assert kernel.generators == expected.generators


class TestMicali:
    def test_single_pair_kernel(self):
        params = ReesParams(2, 2, 1, 1, (2, 1))
        kernel = micali_kernel(params)
        assert ideal_equal(kernel, rees_presentation(params).relations)

    def test_three_binomial_kernel(self):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        assert ideal_equal(micali_kernel(params), rees_presentation(params).relations)

    def test_single_generator_kernel_is_zero(self):
        kernel = ci_micali_kernel(CoefficientField(2), 2, ((1, 4),))
        assert kernel.is_zero()
        # no generator at all: there is nothing to saturate at, and the kernel is zero
        kernel = ci_micali_kernel(CoefficientField(2), 2, ())
        assert kernel.ring.variables == ("x1", "x2") and kernel.is_zero()

    def test_generalized_kernel_matches_relations(self):
        field = CoefficientField(3)
        powers = ((2, 3), (3, 9))
        kernel = ci_micali_kernel(field, 3, powers)
        assert ideal_equal(kernel, ci_rees_presentation(field, 3, powers).relations)


@pytest.mark.parametrize(
    "params", shipped_grid() + read_grid(STRETCH_FILE), ids=lambda p: p.flag_string()
)
def test_micali_kernel_is_certified_without_elimination(params, monkeypatch):
    """Every shipped tuple has a generator variable that no leading monomial
    of J's reduced grevlex basis contains, so the kernel is J's basis and no
    Rabinowitsch saturation runs."""
    fitt.rees._rees_presentation.cache_clear()
    calls = []
    real = groebner.eliminate

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "eliminate", recording)
    kernel = micali_kernel(params)
    relations = rees_presentation(params).relations
    assert calls == []
    assert kernel.generators == relations.groebner_basis()


def _monic_ascending(polys, order):
    """polys made monic and listed as buchberger lists a reduced basis."""
    key = polys[0].ring.sort_key(order)
    return tuple(sorted((g.monic(order) for g in polys), key=lambda g: key(g.leading_term(order)[0])))


class TestExchangeBinomialBasis:
    """J's reduced grevlex basis is cached in closed form when J is built:
    the exchange binomials, monic and ascending.  Buchberger is the oracle."""

    @pytest.mark.parametrize(
        "params",
        shipped_grid() + read_grid(STRETCH_FILE) + read_grid(LARGE_FILE),
        ids=lambda p: p.flag_string(),
    )
    def test_closed_form_is_buchbergers_basis_on_the_grids(self, params):
        relations = rees_presentation(params).relations
        assert relations.groebner_basis() == groebner.buchberger(relations.ring, relations.generators, GREVLEX)

    # k <= 6 generators, listed in a random index order, exponents 1..9; a
    # random block order as well as grevlex and lex, since the binomials are
    # a universal Groebner basis: every order's reduced basis is the
    # binomials themselves, monic and sorted under that order
    @pytest.mark.parametrize("characteristic", [2, 3, 5, 7, 0], ids=lambda c: f"char{c}")
    def test_binomials_are_the_reduced_basis_under_every_order(self, characteristic):
        rng = random.Random(3000 + characteristic)
        field = CoefficientField(characteristic)
        for _ in range(50):
            k = rng.randint(2, 6)
            n = k + rng.randint(0, 2)
            powers = tuple((i, rng.randint(1, 9)) for i in rng.sample(range(1, n + 1), k))
            relations = ci_rees_presentation(field, n, powers).relations
            ring, gens = relations.ring, relations.generators
            assert len(gens) == k * (k - 1) // 2
            block = MonomialOrder.elimination(rng.sample(range(ring.nvars), rng.randint(1, ring.nvars - 1)))
            for order in (GREVLEX, LEX, block):
                assert groebner.buchberger(ring, gens, order) == _monic_ascending(gens, order), (powers, order)
            assert relations.groebner_basis() == _monic_ascending(gens, GREVLEX)


@pytest.mark.parametrize(
    "params", shipped_grid() + read_grid(STRETCH_FILE), ids=lambda p: p.flag_string()
)
def test_micali_check_runs_no_buchberger_in_the_rees_ring(params, monkeypatch):
    """check_theorem41 and micali_kernel read J's closed-form basis: no
    Buchberger run in J's ring.  Chart rings may run it."""
    fitt.rees._rees_presentation.cache_clear()
    rings = []
    real = groebner.buchberger

    def recording(ring, *args):
        rings.append(ring)
        return real(ring, *args)

    monkeypatch.setattr(groebner, "buchberger", recording)
    check_theorem41(params)
    micali_kernel(params)
    assert rees_presentation(params).ring not in rings


def test_ambient_counts():
    for params in (ReesParams(2, 3, 1, 2, (2, 2, 1)), ReesParams(3, 4, 2, 3, (3, 3, 1))):
        algebra = rees_presentation(params)
        n, s = params.n, params.s
        k = n - s + 1
        assert algebra.ring.nvars == n + k
        assert len(algebra.relations.generators) == k * (k - 1) // 2
