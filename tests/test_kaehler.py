import random
from fractions import Fraction

import pytest

from fitt.fitmod import PresentedAlgebra, fitting_ideal
from fitt.groebner import Ideal, ideal_equal
from fitt.kaehler import kaehler_fitting, kaehler_presentation
from fitt.polyring import CoefficientField, PolyRing, mono_from_pairs, mono_pairs
from fitt.rees import ReesParams, ci_pruned_chart_presentation, rees_presentation
from fitt.verify import POLICY_CORRECTED, chart_fitting_index

from grid_cases import GRID_FILE, LARGE_FILE, STRETCH_FILE, read_grid

QQ = CoefficientField(0)
F2 = CoefficientField(2)
F3 = CoefficientField(3)


def algebra(ring, *relation_texts):
    return PresentedAlgebra(ring, Ideal(ring, [ring.parse(t) for t in relation_texts]))


class TestPresentation:
    def test_smooth_line_is_free(self):
        ring = PolyRing(QQ, ("x",))
        A = algebra(ring)
        pres = kaehler_presentation(A)
        assert pres.generator_count == 1 and pres.relation_count == 0
        assert kaehler_fitting(A, 0).is_zero()
        assert kaehler_fitting(A, 1).is_unit()

    def test_frobenius_kernel_gives_zero_column(self):
        ring = PolyRing(F2, ("x",))
        A = algebra(ring, "x^2")
        pres = kaehler_presentation(A)
        assert pres.matrix == ((ring.zero(),),)
        assert pres.row_labels == ("dx",)

    @pytest.mark.parametrize("p,field", [(2, F2), (3, F3)])
    def test_rees_binomial_column(self, p, field):
        # differentiate x1^p*T2 - x2*T1 termwise: (0, -T1, -x2, x1^p)
        ring = PolyRing(field, ("x1", "x2", "T1", "T2"))
        A = algebra(ring, f"x1^{p}*T2 - x2*T1")
        pres = kaehler_presentation(A)
        col = tuple(row[0] for row in pres.matrix)
        assert col == (
            ring.zero(),
            ring.parse("-T1"),
            ring.parse("-x2"),
            ring.parse(f"x1^{p}"),
        )
        assert pres.row_labels == ("dx1", "dx2", "dT1", "dT2")


class TestFitting:
    def test_free_plane(self):
        ring = PolyRing(QQ, ("x", "y"))
        A = algebra(ring)
        assert kaehler_fitting(A, 1).is_zero()
        assert kaehler_fitting(A, 2).is_unit()

    def test_rees_binomial_fitt3(self):
        ring = PolyRing(F2, ("x1", "x2", "T1", "T2"))
        A = algebra(ring, "x1^2*T2 - x2*T1")
        got = kaehler_fitting(A, 3)
        expected = Ideal(
            ring,
            [ring.parse("T1"), ring.parse("x2"), ring.parse("x1^2"), ring.parse("x1^2*T2 - x2*T1")],
        )
        assert ideal_equal(got, expected)

    def test_cusp_jacobian_ideal(self):
        ring = PolyRing(QQ, ("x", "y"))
        A = algebra(ring, "y^2 - x^3")
        got = kaehler_fitting(A, 1)
        expected = Ideal(ring, [ring.parse("2*y"), ring.parse("3*x^2"), ring.parse("y^2 - x^3")])
        assert ideal_equal(got, expected)

    def test_polynomial_ring_ladder(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        A = algebra(ring)
        for i in range(3):
            assert kaehler_fitting(A, i).is_zero()
        for i in (3, 4):
            assert kaehler_fitting(A, i).is_unit()

    def test_characteristic_sensitivity(self):
        m = 4
        ring0 = PolyRing(QQ, ("x",))
        A0 = algebra(ring0, f"x^{m}")
        assert ideal_equal(
            kaehler_fitting(A0, 0),
            Ideal(ring0, [ring0.parse(f"x^{m - 1}"), ring0.parse(f"x^{m}")]),
        )
        ring2 = PolyRing(F2, ("x",))
        A2 = algebra(ring2, f"x^{m}")
        assert ideal_equal(kaehler_fitting(A2, 0), Ideal(ring2, [ring2.parse(f"x^{m}")]))

    def test_redundant_relation_generator_changes_nothing(self):
        ring = PolyRing(QQ, ("x", "y"))
        A = algebra(ring, "y^2 - x^3")
        B = algebra(ring, "y^2 - x^3", "x*y^2 - x^4")
        for i in range(0, 3):
            assert ideal_equal(kaehler_fitting(A, i), kaehler_fitting(B, i))


def test_rees_generator_count():
    # the differentials presentation has 2n - s + 1 rows and C(n-s+1, 2) columns
    for params in (ReesParams(2, 3, 1, 2, (2, 2, 1)), ReesParams(3, 4, 2, 3, (3, 3, 1))):
        pres = kaehler_presentation(rees_presentation(params))
        n, s = params.n, params.s
        assert pres.generator_count == 2 * n - s + 1
        k = n - s + 1
        assert pres.relation_count == k * (k - 1) // 2


# ---------------------------------------------------------------------------
# The Jacobian's coefficients, and kaehler_fitting's unit ideal by rank.


def _random_algebra(rng, characteristic):
    """Up to four relations in two to four variables, each of up to four
    terms with exponents up to 2p (so p-divisible exponents occur), and
    over Q halves and thirds among the coefficients, so that c*e is often
    an integral Fraction."""
    field = CoefficientField(characteristic)
    ring = PolyRing(field, [f"y{v}" for v in range(rng.randint(2, 4))])
    top = 2 * characteristic if characteristic else 4
    gens = []
    for _ in range(rng.randint(0, 4)):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            mono = mono_from_pairs((v, rng.randint(0, top)) for v in range(ring.nvars))
            if characteristic:
                coeff = rng.randint(1, characteristic - 1)
            else:
                coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            pairs.append((mono, coeff))
        gens.append(ring.from_terms(pairs))
    return PresentedAlgebra(ring, Ideal(ring, gens))


def _random_algebras():
    for characteristic in (0, 2, 3, 5):
        rng = random.Random(20261020 + characteristic)
        for _ in range(25):
            yield _random_algebra(rng, characteristic)


class TestJacobian:
    def test_coefficients_are_canonical(self):
        """Over F_p every entry coefficient is an int in (0, p); over Q an
        integral one is an int, never an integral Fraction."""
        integral_fractions = 0
        for A in _random_algebras():
            p = A.ring.field.characteristic
            for row in kaehler_presentation(A).matrix:
                for entry in row:
                    for c in entry.terms.values():
                        assert (type(c) is int and 0 < c < p) if p else (type(c) is int or c.denominator != 1), c
            if not p:
                integral_fractions += sum(
                    1
                    for g in A.relations.generators
                    for m, c in g.terms.items()
                    for _, e in mono_pairs(m)
                    if isinstance(c, Fraction) and (c * e).denominator == 1
                )
        # a bare c*e would have left an integral Fraction in these entries
        assert integral_fractions > 0

    def test_zero_entries_and_empty_relations(self):
        ring = PolyRing(F3, ("x", "y", "z"))
        A = algebra(ring, "x^3*y + z", "y^6")
        assert kaehler_presentation(A).matrix == (
            (ring.zero(), ring.zero()),
            (ring.parse("x^3"), ring.zero()),
            (ring.one(), ring.zero()),
        )
        assert kaehler_presentation(algebra(ring)).matrix == ((), (), ())


def _pruned_charts_of_the_grids():
    """(params, algebra) for every pruned chart of the three shipped grids."""
    for path in (GRID_FILE, STRETCH_FILE, LARGE_FILE):
        for params in read_grid(path):
            for r, _ in params.powers():
                yield params, ci_pruned_chart_presentation(params.field, params.n, params.powers(), r).algebra


class TestUnitIdealByRank:
    """For i >= nvars kaehler_fitting returns fitting_ideal's generators on
    the Jacobian, the unit ideal by the rank rule."""

    @staticmethod
    def _check(algebras):
        for A in algebras:
            presentation, unit = kaehler_presentation(A), (A.ring.one(),)
            for i in (A.ring.nvars, A.ring.nvars + 1):
                assert kaehler_fitting(A, i).generators == fitting_ideal(presentation, i).generators == unit, i

    def test_random_algebras(self):
        self._check(_random_algebras())

    def test_every_pruned_chart_of_the_grids(self):
        self._check(A for _, A in _pruned_charts_of_the_grids())


# ---------------------------------------------------------------------------
# Invariance: the Fitting ideals of the differentials depend only on the
# algebra, so an automorphism phi of the ambient ring carries Fitt_i(R/J) to
# Fitt_i(R/phi(J)) (Fitting's lemma; Eisenbud, Commutative Algebra, 20.2).


def _triangular_automorphism(rng, ring):
    """y_k -> y_k + y_j^d for a random half of the variables after the
    first, with j < k and d in {1, 2}; triangular, so invertible."""
    mapping = {}
    for k, name in enumerate(ring.variables[1:], 1):
        if rng.random() < 0.5:
            mapping[name] = ring.variable(k) + ring.variable(rng.randrange(k)) ** rng.choice((1, 2))
    return lambda f: f.substitute(ring, mapping)


def test_fitting_ideals_are_invariant_under_a_change_of_coordinates():
    # at the corrected chart index, which is below nvars on 169 of the 272
    # charts, so most of them are no unit ideal by rank
    rng = random.Random(1)
    mismatches = []
    for params, chart in _pruned_charts_of_the_grids():
        ring = chart.ring
        phi = _triangular_automorphism(rng, ring)
        index = chart_fitting_index(params, POLICY_CORRECTED)
        moved = PresentedAlgebra(ring, Ideal(ring, map(phi, chart.relations.generators)))
        expected = Ideal(ring, map(phi, kaehler_fitting(chart, index).generators))
        if not ideal_equal(kaehler_fitting(moved, index), expected):
            mismatches.append((params.flag_string(), ring.variables))
    assert not mismatches
