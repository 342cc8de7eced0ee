import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest

from fitt.fitmod import (
    PresentedAlgebra,
    PresentedModule,
    base_change,
    direct_sum_free,
    fitting_ideal,
    free_module,
    minors,
)
from fitt.groebner import Ideal, ideal_contains, ideal_equal
from fitt.polyring import CoefficientField, PolyRing, RingMismatchError, mono_from_pairs

QQ = CoefficientField(0)


@pytest.fixture
def rab():
    return PolyRing(QQ, ("a", "b"))


@pytest.fixture
def diag_ab(rab):
    algebra = PresentedAlgebra(rab, Ideal(rab))
    matrix = (
        (rab.variable("a"), rab.zero()),
        (rab.zero(), rab.variable("b")),
    )
    return PresentedModule(algebra, matrix, ("g1", "g2"))


class TestMinors:
    def test_diagonal_entries(self, diag_ab, rab):
        assert minors(diag_ab.matrix, 1) == [
            rab.variable("a"), rab.zero(), rab.zero(), rab.variable("b"),
        ]

    def test_diagonal_determinant(self, diag_ab, rab):
        assert minors(diag_ab.matrix, 2) == [rab.variable("a") * rab.variable("b")]

    def test_generic_two_by_two(self):
        ring = PolyRing(QQ, ("x", "y", "z", "w"))
        matrix = (
            (ring.variable("x"), ring.variable("y")),
            (ring.variable("z"), ring.variable("w")),
        )
        assert minors(matrix, 2) == [ring.parse("x*w - y*z")]

    def test_size_zero_gives_one(self, diag_ab, rab):
        assert minors(diag_ab.matrix, 0) == [rab.one()]

    def test_oversized_gives_nothing(self, diag_ab):
        assert minors(diag_ab.matrix, 3) == []

    def test_three_by_three_against_cofactor_oracle(self):
        # oracle: cofactor expansion of a fully generic 3x3 matrix
        names = [f"m{i}{j}" for i in range(3) for j in range(3)]
        ring = PolyRing(QQ, names)
        matrix = tuple(
            tuple(ring.variable(f"m{i}{j}") for j in range(3)) for i in range(3)
        )
        expected = ring.parse(
            "m00*m11*m22 - m00*m12*m21 - m01*m10*m22 + m01*m12*m20"
            " + m02*m10*m21 - m02*m11*m20"
        )
        assert minors(matrix, 3) == [expected]

    def test_leaves_no_reference_cycle(self):
        # the recursive sub-minor closure once kept itself and its memo alive
        # until the next garbage collection
        ring = PolyRing(QQ, [f"m{i}{j}" for i in range(3) for j in range(3)])
        matrix = tuple(tuple(ring.variable(f"m{i}{j}") for j in range(3)) for i in range(3))
        gc.disable()
        try:
            gc.collect()
            for k in (2, 3):
                minors(matrix, k)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("widths", [(1, 2), (2, 1)])
    def test_ragged_matrix_is_refused(self, rab, widths):
        # a longer later row was silently cut to the first row's width, a
        # shorter one raised IndexError
        matrix = tuple(tuple(rab.variable("a") for _ in range(w)) for w in widths)
        with pytest.raises(ValueError, match="ragged"):
            minors(matrix, 1, rab)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_entry_from_another_ring_is_refused(self, rab, k):
        other = PolyRing(CoefficientField(2), ("a", "b"))
        matrix = ((rab.variable("a"), rab.one()), (rab.zero(), other.variable("b")))
        with pytest.raises(RingMismatchError):
            minors(matrix, k, rab)
        with pytest.raises(RingMismatchError):
            minors(matrix, k)


def _random_entry(rng, characteristic):
    """A sparse polynomial in x, y as {exponent tuple: coefficient}: zero
    with probability 0.4, else one or two terms of degree at most 2, with
    halves and thirds among the coefficients over Q."""
    if rng.random() < 0.4:
        return {}
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = (rng.randint(0, 2), rng.randint(0, 2))
        if characteristic:
            terms[exps] = rng.randint(1, characteristic - 1)
        else:
            terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return terms


@pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
def test_minors_match_sympy(characteristic):
    # every k x k minor, k = 0..min(rows, cols) + 1, in minors' order, against
    # sympy's determinant of the same submatrix; over F_p the integer
    # determinant is reduced mod p, which is the determinant over F_p
    sympy = pytest.importorskip("sympy")
    field = CoefficientField(characteristic)
    ring = PolyRing(field, ("x", "y"))
    symbols = sympy.symbols("x y")
    domain = {"modulus": characteristic} if characteristic else {"domain": "QQ"}
    rng = random.Random(20261019 + characteristic)
    nontrivial = 0
    for trial in range(8):
        nrows, ncols = (4, 4) if trial == 0 else (rng.randint(1, 4), rng.randint(1, 4))
        dense = [[_random_entry(rng, characteristic) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            dense[rng.randrange(nrows)] = [{} for _ in range(ncols)]
        matrix = tuple(
            tuple(ring.from_terms((mono_from_pairs(enumerate(e)), c) for e, c in d.items()) for d in row)
            for row in dense
        )
        theirs = sympy.Matrix([[sympy.Poly.from_dict(d, *symbols, domain="QQ").as_expr() if d else 0
                                for d in row] for row in dense])
        for k in range(min(nrows, ncols) + 2):
            expected = []
            for rows in combinations(range(nrows), k):
                for cols in combinations(range(ncols), k):
                    det = theirs.extract(list(rows), list(cols)).det(method="berkowitz")
                    terms = sympy.Poly(det, *symbols, **domain).as_dict()
                    expected.append({e: field.normalize(Fraction(str(c))) for e, c in terms.items() if c})
            got = [_dense(f) for f in minors(matrix, k, ring)]
            assert got == expected, (trial, k, dense)
            nontrivial += k >= 2 and any(got)
    assert nontrivial >= 4  # the seeded matrices do have nonzero larger minors


def _dense(poly):
    out = {}
    for m, c in poly.terms.items():
        exps = [0, 0]
        for idx, e in m:
            exps[idx] = e
        out[tuple(exps)] = c
    return out


class TestFittingIdeal:
    def test_free_module_of_rank_three(self, rab):
        M = free_module(PresentedAlgebra(rab, Ideal(rab)), 3)
        assert fitting_ideal(M, 2).is_zero()
        assert fitting_ideal(M, 3).is_unit()

    def test_diagonal_ladder(self, diag_ab, rab):
        assert ideal_equal(fitting_ideal(diag_ab, 0), Ideal(rab, [rab.parse("a*b")]))
        assert ideal_equal(
            fitting_ideal(diag_ab, 1), Ideal(rab, [rab.variable("a"), rab.variable("b")])
        )
        assert fitting_ideal(diag_ab, 2).is_unit()

    def test_shift_law_instance(self, diag_ab):
        Ms = direct_sum_free(diag_ab, 1)
        for i in range(0, 3):
            assert ideal_equal(fitting_ideal(Ms, i + 1), fitting_ideal(diag_ab, i))

    def test_beyond_generator_count_is_unit(self, diag_ab):
        assert fitting_ideal(diag_ab, 5).is_unit()

    def test_negative_index_total(self, diag_ab):
        # minors of size > both dimensions are impossible: falls back to J = (0)
        assert fitting_ideal(diag_ab, -1).is_zero()

    def test_relations_always_included(self, rab):
        J = Ideal(rab, [rab.parse("a^2")])
        M = PresentedModule(
            PresentedAlgebra(rab, J), ((rab.variable("b"),),), ("g1",)
        )
        f1 = fitting_ideal(M, 1)
        assert f1.is_unit()
        f0 = fitting_ideal(M, 0)
        assert ideal_equal(f0, Ideal(rab, [rab.parse("a^2"), rab.variable("b")]))

    def test_chain_containment(self, diag_ab):
        for i in range(0, 2):
            assert ideal_contains(fitting_ideal(diag_ab, i + 1), fitting_ideal(diag_ab, i))


class TestDirectSumFree:
    def test_rank_zero_unchanged(self, diag_ab):
        assert direct_sum_free(diag_ab, 0) is diag_ab

    def test_negative_rank_is_refused(self, diag_ab):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            direct_sum_free(diag_ab, -1)

    def test_free_module_refuses_a_negative_rank(self, rab):
        algebra = PresentedAlgebra(rab, Ideal(rab))
        assert free_module(algebra, 0).generator_count == 0
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            free_module(algebra, -1)

    def test_two_frees_make_rank_two(self, rab):
        algebra = PresentedAlgebra(rab, Ideal(rab))
        M = direct_sum_free(free_module(algebra, 1), 1)
        assert fitting_ideal(M, 1).is_zero()
        assert fitting_ideal(M, 2).is_unit()

    def test_diag_plus_free(self, rab):
        algebra = PresentedAlgebra(rab, Ideal(rab))
        M = PresentedModule(algebra, ((rab.variable("a"),),), ("g1",))
        Ms = direct_sum_free(M, 1)
        assert fitting_ideal(Ms, 2).is_unit()
        assert ideal_equal(fitting_ideal(Ms, 1), Ideal(rab, [rab.variable("a")]))
        assert Ms.matrix == ((rab.variable("a"),), (rab.zero(),))


class TestBaseChange:
    def test_identity_substitution(self, diag_ab, rab):
        M2 = base_change(diag_ab, {}, rab)
        assert M2.matrix == diag_ab.matrix
        assert ideal_equal(M2.algebra.relations, diag_ab.algebra.relations)

    def test_killing_a_variable_commutes(self):
        ring = PolyRing(QQ, ("xn", "y"))
        algebra = PresentedAlgebra(ring, Ideal(ring))
        M = PresentedModule(
            algebra,
            ((ring.variable("xn"), ring.zero()), (ring.zero(), ring.variable("y"))),
            ("g1", "g2"),
        )
        sigma = {"xn": ring.zero()}
        M2 = base_change(M, sigma, ring)
        # both sides computed independently: Fitt_1 of the substituted module,
        # and the substitution applied to Fitt_1 = (xn, y)
        left = fitting_ideal(M2, 1)
        right = Ideal(ring, [g.substitute(ring, sigma) for g in fitting_ideal(M, 1).generators])
        assert ideal_equal(left, right)
        assert ideal_equal(left, Ideal(ring, [ring.variable("y")]))

    def test_constant_matrix_unaffected(self, rab):
        algebra = PresentedAlgebra(rab, Ideal(rab))
        M = PresentedModule(algebra, ((rab.constant(3), rab.constant(2)),), ("g1",))
        M2 = base_change(M, {"a": rab.parse("a + 1")}, rab)
        assert M2.matrix == M.matrix

    def test_into_smaller_ring(self, rab):
        target = PolyRing(QQ, ("b",))
        algebra = PresentedAlgebra(rab, Ideal(rab))
        M = PresentedModule(algebra, ((rab.variable("a"),),), ("g1",))
        M2 = base_change(M, {"a": target.variable("b")}, target)
        assert M2.algebra.ring == target
        assert M2.matrix == ((target.variable("b"),),)


def test_ragged_matrix_rejected(rab):
    algebra = PresentedAlgebra(rab, Ideal(rab))
    with pytest.raises(ValueError):
        PresentedModule(algebra, ((rab.zero(),), (rab.zero(), rab.zero())), ("g1", "g2"))
