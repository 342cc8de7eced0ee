import random
from fractions import Fraction

import pytest

from fitt import groebner
from fitt.groebner import (
    Ideal,
    buchberger,
    contract,
    eliminate,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    localized_equal,
    reduce,
    s_polynomial,
    saturate,
)
from fitt.polyring import (
    EXPONENT_CAP,
    GREVLEX,
    LEX,
    CoefficientField,
    ExponentOverflowError,
    MonomialOrder,
    PolyRing,
    RingMismatchError,
    UnknownVariableError,
    mono_div,
    mono_from_pairs,
    mono_lcm,
    print_polynomial,
)
from fitt.rees import chart_presentation, ci_pruned_chart_presentation

from grid_cases import STRETCH_FILE, read_grid, shipped_grid

QQ = CoefficientField(0)
F2 = CoefficientField(2)


@pytest.fixture
def rxy():
    return PolyRing(QQ, ("x", "y"))


class TestReduce:
    def test_power_reduces_to_zero(self, rxy):
        x = rxy.variable("x")
        assert reduce(x * x, [x]).is_zero

    def test_one_division_step_then_collect(self, rxy):
        r = reduce(rxy.parse("x^2*y + y"), [rxy.parse("x^2 - 1")], LEX)
        assert r == rxy.parse("2*y")

    def test_empty_basis_is_identity(self, rxy):
        f = rxy.parse("x^3 - y + 2")
        assert reduce(f, []) == f

    def test_remainder_terms_irreducible(self, rxy):
        basis = [rxy.parse("x^2 - y"), rxy.parse("x*y - 1")]
        r = reduce(rxy.parse("x^3*y^2 + x"), basis)
        for m in r.terms:
            for g in basis:
                lm, _ = g.leading_term(GREVLEX)
                from fitt.polyring import mono_divides
                assert not mono_divides(lm, m)


class TestGroebnerBasis:
    def test_single_binomial_already_basis(self):
        ring = PolyRing(F2, ("x1", "x2", "T1", "T2"))
        I = Ideal(ring, [ring.parse("x1^2*T2 - x2*T1")])
        assert I.groebner_basis() == (ring.parse("x1^2*T2 + x2*T1"),)

    def test_unit_ideal(self, rxy):
        I = Ideal(rxy, [rxy.parse("x"), rxy.parse("x + 1")])
        assert I.groebner_basis() == (rxy.one(),)
        assert I.is_unit()

    def test_lex_basis_of_twisted_pair(self, rxy):
        # run Buchberger by hand: y^2 - x gives x = y^2, so x^2 - y = y^4 - y
        I = Ideal(rxy, [rxy.parse("x^2 - y"), rxy.parse("y^2 - x")])
        gb = I.groebner_basis(LEX)
        assert {print_polynomial(g, LEX) for g in gb} == {"x - y^2", "y^4 - y"}

    def test_cache_returns_same_object(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2 - y")])
        assert I.groebner_basis() is I.groebner_basis()

    def test_deterministic_across_instances(self, rxy):
        gens = [rxy.parse("x^2 + y"), rxy.parse("x*y - 1"), rxy.parse("y^3 - x")]
        a = Ideal(rxy, gens).groebner_basis()
        b = Ideal(rxy, gens).groebner_basis()
        assert a == b

    def test_zero_ideal(self, rxy):
        assert Ideal(rxy, [rxy.zero()]).groebner_basis() == ()

    def test_basis_generates_same_ideal(self, rxy):
        # mutual membership, cross-checked between two independent orders
        gens = [rxy.parse("x^2 + y"), rxy.parse("x*y - 1")]
        I = Ideal(rxy, gens)
        gb_grev = I.groebner_basis(GREVLEX)
        gb_lex = I.groebner_basis(LEX)
        for g in gens:
            assert reduce(g, gb_grev, GREVLEX).is_zero
            assert reduce(g, gb_lex, LEX).is_zero
        for g in gb_grev:
            assert reduce(g, gb_lex, LEX).is_zero
        for g in gb_lex:
            assert reduce(g, gb_grev, GREVLEX).is_zero


class TestMembershipEquality:
    def test_nonnormality_membership_from_chart(self):
        # x4^p is not in (x3, U*x3^p - x4^{p^2}) for p = 2
        ring = PolyRing(F2, ("x3", "x4", "U"))
        I = Ideal(ring, [ring.parse("x3"), ring.parse("U*x3^2 - x4^4")])
        assert not ideal_member(ring.parse("x4^2"), I)

    def test_zero_always_member(self, rxy):
        assert ideal_member(rxy.zero(), Ideal(rxy, [rxy.parse("x")]))

    def test_equality_by_mutual_reduction(self, rxy):
        I = Ideal(rxy, [rxy.parse("x"), rxy.parse("y")])
        J = Ideal(rxy, [rxy.parse("x + y"), rxy.parse("y")])
        assert ideal_equal(I, J)

    def test_membership_order_invariant(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2 - y"), rxy.parse("x*y - 1")])
        probe = rxy.parse("x^3 - x*y^2 + y - 1")
        assert ideal_member(probe, I, GREVLEX) == ideal_member(probe, I, LEX)


class TestEliminate:
    def test_mixed_principal_contracts_to_zero(self, rxy):
        assert eliminate(Ideal(rxy, [rxy.parse("x - y")]), ["x"]).is_zero()

    def test_two_variables(self, rxy):
        got = eliminate(Ideal(rxy, [rxy.parse("x"), rxy.parse("y")]), ["x"])
        assert ideal_equal(got, Ideal(rxy, [rxy.parse("y")]))

    def test_parabola_spot_checks(self, rxy):
        assert eliminate(Ideal(rxy, [rxy.parse("y - x^2")]), ["x"]).is_zero()
        got = eliminate(Ideal(rxy, [rxy.parse("y - x^2"), rxy.parse("x - 1")]), ["x"])
        assert ideal_equal(got, Ideal(rxy, [rxy.parse("y - 1")]))

    def test_empty_block_gives_the_reduced_basis(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2 - y"), rxy.parse("x*y - 1")])
        got = eliminate(I, [])
        assert got.generators == I.groebner_basis() != I.generators
        assert got._gb[GREVLEX] == got.generators

    def test_result_free_of_block_variables(self, rxy):
        got = eliminate(Ideal(rxy, [rxy.parse("x^2 - y"), rxy.parse("x*y - 1")]), ["x"])
        xidx = rxy.index("x")
        for g in got.generators:
            assert all(idx != xidx for m in g.terms for idx, _ in m)
        assert not got.is_zero()

    def test_by_position_as_by_name(self, rxy):
        I = Ideal(rxy, [rxy.parse("y - x^2"), rxy.parse("x*y - 1")])
        assert eliminate(I, [0]).generators == eliminate(I, ["x"]).generators

    @pytest.mark.parametrize("var", [5, -1, "z"])
    def test_unknown_variable_raises(self, rxy, var):
        with pytest.raises(UnknownVariableError):
            eliminate(Ideal(rxy, [rxy.parse("x - y")]), [var])


class TestContract:
    def test_drops_the_trailing_variables(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        I = Ideal(ring, [ring.parse("x - z^2"), ring.parse("y - z^3")])
        rxy = PolyRing(QQ, ("x", "y"))
        got = contract(I, rxy)
        assert got.ring == rxy
        assert got.generators == (rxy.parse("x^3 - y^2"),)
        assert got._gb[GREVLEX] == got.generators

    def test_the_whole_ring_gives_the_reduced_basis(self, rxy):
        I = Ideal(rxy, [rxy.parse("x + y"), rxy.parse("y")])
        got = contract(I, rxy)
        assert got.generators == I.groebner_basis() == (rxy.parse("y"), rxy.parse("x"))

    @pytest.mark.parametrize("field, names", [
        (QQ, ("y",)),
        (QQ, ("y", "x")),
        (QQ, ("x", "z")),
        (QQ, ("x", "y", "z", "w")),
        (F2, ("x",)),
        (F2, ("x", "y", "z")),
    ], ids=["not-leading", "reordered", "gap", "larger", "other-field", "other-field-same-names"])
    def test_a_ring_other_than_leading_variables_raises(self, field, names):
        ring = PolyRing(QQ, ("x", "y", "z"))
        I = Ideal(ring, [ring.parse("x*y - z")])
        with pytest.raises(RingMismatchError):
            contract(I, PolyRing(field, names))


class TestSaturate:
    def test_strips_one_factor(self, rxy):
        got = saturate(Ideal(rxy, [rxy.parse("x*y")]), rxy.variable("x"))
        assert ideal_equal(got, Ideal(rxy, [rxy.parse("y")]))

    def test_saturating_by_member_gives_unit(self, rxy):
        assert saturate(Ideal(rxy, [rxy.parse("x")]), rxy.variable("x")).is_unit()

    def test_saturating_by_unit_is_identity(self, rxy):
        I = Ideal(rxy, [rxy.parse("x*y - x")])
        assert ideal_equal(saturate(I, rxy.one()), I)

    def test_zero_divisor_argument_rejected(self, rxy):
        with pytest.raises(ValueError):
            saturate(Ideal(rxy, [rxy.parse("x")]), rxy.zero())

    def test_idempotence_and_containment(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2*y - x*y")])
        g = rxy.variable("x")
        S1 = saturate(I, g)
        assert ideal_contains(S1, I)
        assert ideal_equal(saturate(S1, g), S1)

    def test_works_when_ring_already_uses_w(self):
        ring = PolyRing(QQ, ("w", "y"))
        got = saturate(Ideal(ring, [ring.parse("w*y")]), ring.variable("w"))
        assert ideal_equal(got, Ideal(ring, [ring.parse("y")]))


class TestIntersect:
    def test_coordinate_axes(self, rxy):
        got = ideal_intersect(Ideal(rxy, [rxy.parse("x")]), Ideal(rxy, [rxy.parse("y")]))
        assert ideal_equal(got, Ideal(rxy, [rxy.parse("x*y")]))

    def test_self_intersection(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2 - y")])
        assert ideal_equal(ideal_intersect(I, I), I)

    def test_unit_is_neutral(self, rxy):
        J = Ideal(rxy, [rxy.parse("x + y")])
        got = ideal_intersect(Ideal(rxy, [rxy.one()]), J)
        assert ideal_equal(got, J)


class TestLocalizedEqual:
    def test_equal_after_inverting(self, rxy):
        assert localized_equal(
            Ideal(rxy, [rxy.parse("x*y")]), Ideal(rxy, [rxy.parse("y")]), rxy.variable("x")
        )

    def test_generically_different(self):
        ring = PolyRing(QQ, ("x", "y", "z"))
        assert not localized_equal(
            Ideal(ring, [ring.parse("x")]), Ideal(ring, [ring.parse("y")]), ring.variable("z")
        )

    def test_reflexive(self, rxy):
        I = Ideal(rxy, [rxy.parse("x^2 - y")])
        assert localized_equal(I, I, rxy.variable("x"))


def test_spolynomials_of_basis_reduce_to_zero(rxy):
    I = Ideal(rxy, [rxy.parse("x^2 + y"), rxy.parse("x*y - 1"), rxy.parse("y^3 - x")])
    for order in (GREVLEX, LEX):
        gb = I.groebner_basis(order)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert reduce(s_polynomial(gb[i], gb[j], order), gb, order).is_zero


class TestSPolynomial:
    def test_operands_from_different_rings_raise(self, rxy):
        other = PolyRing(QQ, ("x", "y", "z"))
        with pytest.raises(RingMismatchError):
            s_polynomial(rxy.variable("x"), other.variable("y"))

    def test_zero_operand_raises(self, rxy):
        x = rxy.variable("x")
        with pytest.raises(ValueError):
            s_polynomial(rxy.zero(), x)
        with pytest.raises(ValueError):
            s_polynomial(x, rxy.zero())

    def test_exponent_cap_is_checked(self, rxy):
        # the cofactor of g is x^(cap - 1), which lifts g's tail x^2 past the cap
        f = rxy.term(1, ((0, EXPONENT_CAP), (1, 1)))
        g = rxy.parse("x*y^2 + x^2")
        with pytest.raises(ExponentOverflowError):
            s_polynomial(f, g)

    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_matches_the_cofactor_formula(self, characteristic):
        field = CoefficientField(characteristic)
        ring = PolyRing(field, ("x", "y", "z"))
        rng = random.Random(4100 + characteristic)
        orders = (GREVLEX, LEX, MonomialOrder.elimination([2]))
        checked = 0
        for _ in range(40):
            f, g = (_random_polynomial(rng, ring, 3) for _ in range(2))
            if f.is_zero or g.is_zero:
                continue
            for order in orders:
                # the product formula uf*f - ug*g, kept here as the oracle
                lmf, lcf = f.leading_term(order)
                lmg, lcg = g.leading_term(order)
                lcm = mono_lcm(lmf, lmg)
                uf = ring.term(field.inverse(lcf), mono_div(lcm, lmf))
                ug = ring.term(field.inverse(lcg), mono_div(lcm, lmg))
                assert s_polynomial(f, g, order) == uf * f - ug * g, (f, g, order)
                checked += 1
        assert checked >= 100


# ---------------------------------------------------------------------------
# Pair selection order

CYCLIC4 = ("a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1")


def _record_spairs(monkeypatch, ring, texts, order):
    """Run buchberger on the parsed texts, recording (lt f, lt g) for every
    S-polynomial it forms, as printed monomials."""
    formed = []

    def recording(f, g, order=GREVLEX):
        formed.append(tuple(
            print_polynomial(ring.term(1, h.leading_term(order)[0]), order) for h in (f, g)
        ))
        return s_polynomial(f, g, order)

    monkeypatch.setattr("fitt.groebner.s_polynomial", recording)
    basis = buchberger(ring, [ring.parse(t) for t in texts], order)
    return formed, basis


# The S-pairs that the earlier linear-scan pair selection formed, in order;
# the heap queue must reproduce them exactly.
CYCLIC4_SPAIRS = {
    "grevlex": (GREVLEX, 7, [
        ("a", "a*b"),
        ("a", "a*b*c"),
        ("a", "a*b*c*d"),
        ("b^2", "b*c^2"),
        ("b^2", "b*c*d^2"),
        ("b*c^2", "b*c*d^2"),
        ("b^2", "b*d^4"),
        ("b*c^2", "c^3*d^2"),
        ("b*c*d^2", "b*d^4"),
        ("b*c^2", "c^2*d^4"),
        ("c^3*d^2", "c^2*d^4"),
    ]),
    "lex": (LEX, 6, [
        ("a", "a*b"),
        ("a", "a*b*c"),
        ("a", "a*b*c*d"),
        ("b^2", "b*c^2"),
        ("b^2", "b*c*d^2"),
        ("b*c^2", "b*c*d^2"),
        ("b^2", "b*d^4"),
        ("b*c^2", "c^3*d^2"),
        ("b^2", "b*c"),
        ("b*c^2", "b*c"),
        ("b*c*d^2", "b*c"),
        ("b*c*d^2", "b*d^4"),
        ("b*c^2", "c^2*d^6"),
        ("c^3*d^2", "c^2*d^6"),
    ]),
}


@pytest.mark.parametrize("name", sorted(CYCLIC4_SPAIRS))
def test_cyclic4_selection_order(monkeypatch, name):
    order, basis_size, expected = CYCLIC4_SPAIRS[name]
    ring = PolyRing(CoefficientField(7), ("a", "b", "c", "d"))
    formed, basis = _record_spairs(monkeypatch, ring, CYCLIC4, order)
    assert formed == expected
    assert len(basis) == basis_size


def test_pairs_come_out_by_lcm_degree_then_index(monkeypatch):
    # g0 = x^3, g1 = x*y, g2 = y*z, g3 = x*z.  Ranks (deg lcm, i, j):
    # (3,1,2) (3,1,3) (3,2,3) (4,0,1) (4,0,3) (5,0,2).  The monomial
    # S-polynomials all vanish, so the basis never grows.  (2,3) falls to the
    # chain criterion through g1 once (1,2) and (1,3) are done; (0,2) is
    # coprime.  Degree beats index: (1,2) comes before (0,1).
    ring = PolyRing(QQ, ("x", "y", "z"))
    formed, basis = _record_spairs(monkeypatch, ring, ("x^3", "x*y", "y*z", "x*z"), GREVLEX)
    assert formed == [("x*y", "y*z"), ("x*y", "x*z"), ("x^3", "x*y"), ("x^3", "x*z")]
    assert [print_polynomial(g) for g in basis] == ["y*z", "x*z", "x*y", "x^3"]


class TestWorkSkipped:
    """A pair with coprime leading monomials is never queued, and an element
    that is already reduced skips the final interreduction."""

    def test_coprime_leading_monomials_form_no_pair(self, monkeypatch):
        ring = PolyRing(QQ, ("x", "y", "z"))
        gens = [ring.parse(t) for t in ("x^2 - y", "y^3 - z", "z^2 + x")]
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        basis = buchberger(ring, gens, GREVLEX)
        assert spolys == [] and reduces == []
        assert [print_polynomial(g) for g in basis] == ["z^2 + x", "x^2 - y", "y^3 - z"]

    @pytest.mark.parametrize("order_name", ["grevlex", "lex"])
    def test_a_reduced_basis_comes_back_without_interreduction(self, monkeypatch, order_name):
        order = UNIT_ORDERS[order_name]
        ring = PolyRing(CoefficientField(7), ("a", "b", "c", "d"))
        basis = buchberger(ring, [ring.parse(t) for t in CYCLIC4], order)
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        assert buchberger(ring, basis, order) == basis
        # every reduce is an S-pair reduction, and every one goes to zero
        assert spolys and len(reduces) == len(spolys)
        assert all(reduce(*args).is_zero for args in reduces)

    def test_a_reducible_tail_is_still_reduced(self, rxy, monkeypatch):
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        basis = buchberger(rxy, [rxy.parse("x^2 - y"), rxy.parse("y - 1")], GREVLEX)
        assert [print_polynomial(g) for g in basis] == ["y - 1", "x^2 - 1"]
        assert spolys == [] and [args[0] for args in reduces] == [rxy.parse("x^2 - y")]

    def test_a_coprime_pair_counts_as_treated_by_the_chain_criterion(self, monkeypatch):
        # g0 = x*y, g1 = y*z, g2 = z.  (0,2) is coprime and never queued;
        # (1,2) is reduced first (degree 2); then (0,1) falls to the chain
        # criterion through g2, since z divides x*y*z and neither (0,2) nor
        # (1,2) is pending
        ring = PolyRing(QQ, ("x", "y", "z"))
        formed, basis = _record_spairs(monkeypatch, ring, ("x*y", "y*z", "z"), GREVLEX)
        assert formed == [("y*z", "z")]
        assert [print_polynomial(g) for g in basis] == ["z", "x*y"]


class TestPrincipalIdeals:
    """The reduced basis of (g) is g made monic, and that of (0) is empty:
    buchberger returns them before forming any pair."""

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({0, 2})], ids=["lex", "grevlex", "block"])
    @pytest.mark.parametrize("characteristic", [0, 5])
    def test_the_basis_is_the_generator_made_monic(self, monkeypatch, characteristic, order):
        ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z", "w"))
        rng = random.Random(4100 + characteristic)
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        checked = 0
        for _ in range(60):
            g = _random_polynomial(rng, ring, 4)
            if g.is_zero or g.is_unit_constant():
                continue
            gens = [ring.zero()] * rng.randint(0, 2) + [g] + [ring.zero()] * rng.randint(0, 2)
            assert buchberger(ring, gens, order) == (g.monic(order),), g
            assert Ideal(ring, [g]).groebner_basis(order) == (g.monic(order),), g
            checked += 1
        assert checked >= 40
        assert reduces == [] and spolys == []

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({0})], ids=["lex", "grevlex", "block"])
    def test_the_zero_ideal_has_the_empty_basis(self, rxy, order):
        assert buchberger(rxy, [], order) == ()
        assert buchberger(rxy, [rxy.zero(), rxy.zero()], order) == ()
        assert Ideal(rxy, [rxy.zero()]).is_zero()


# ---------------------------------------------------------------------------
# Differential check against sympy (test-only dependency)

def _random_generators(rng, nvars):
    """One to three polynomials of total degree at most 3, each given as
    {exponent tuple: integer coefficient}."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = rng.randint(-5, 5)
        gens.append(terms)
    return gens


def _dense(poly, nvars):
    out = {}
    for m, c in poly.terms.items():
        exps = [0] * nvars
        for idx, e in m:
            exps[idx] = e
        out[tuple(exps)] = c
    return out


def _canonical(basis):
    return sorted(sorted(terms.items()) for terms in basis)


@pytest.mark.parametrize("characteristic", [0, 7, 3])
def test_reduced_bases_match_sympy(characteristic):
    sympy = pytest.importorskip("sympy")
    field = CoefficientField(characteristic)
    rng = random.Random(20220517 + characteristic)
    nontrivial = 0
    for trial in range(12):
        nvars = rng.randint(1, 3)
        names = ("x", "y", "z")[:nvars]
        ring = PolyRing(field, names)
        symbols = sympy.symbols(names)
        gens = _random_generators(rng, nvars)
        ours = [
            ring.from_terms((mono_from_pairs(enumerate(exps)), c) for exps, c in g.items())
            for g in gens
        ]
        theirs = [sympy.Poly.from_dict(g, *symbols).as_expr() for g in gens]
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
            if characteristic:
                basis = sympy.groebner(theirs, *symbols, order=name, modulus=characteristic)
                expected = [{m: int(c) % characteristic for m, c in p.as_dict().items()}
                            for p in basis.polys]
            else:
                basis = sympy.groebner(theirs, *symbols, order=name, domain="QQ")
                expected = [{m: Fraction(str(c)) for m, c in p.as_dict().items()}
                            for p in basis.polys]
            got = [_dense(g, nvars) for g in Ideal(ring, ours).groebner_basis(order)]
            assert _canonical(got) == _canonical(expected), (trial, name, gens)
            nontrivial += len(got) > 1
    assert nontrivial >= 6  # the seeded ideals are not all zero or the unit ideal


@pytest.mark.parametrize("characteristic", [0, 7, 3])
def test_remainders_match_sympy(characteristic):
    # against a reduced basis the remainder is unique, so reduce must return
    # exactly sympy's
    sympy = pytest.importorskip("sympy")
    field = CoefficientField(characteristic)
    domain = {"modulus": characteristic} if characteristic else {"domain": "QQ"}
    rng = random.Random(20261018 + characteristic)
    reduced_nonzero = 0
    for trial in range(20):
        nvars = rng.randint(1, 3)
        names = ("x", "y", "z")[:nvars]
        ring = PolyRing(field, names)
        symbols = sympy.symbols(names)
        gens = _random_generators(rng, nvars)
        ideal = Ideal(ring, [
            ring.from_terms((mono_from_pairs(enumerate(exps)), c) for exps, c in g.items())
            for g in gens
        ])
        dividend = _random_generators(rng, nvars)[0]
        f = ring.from_terms((mono_from_pairs(enumerate(exps)), c) for exps, c in dividend.items())
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
            basis = ideal.groebner_basis(order)
            if not basis:
                continue
            theirs = [sympy.Poly.from_dict(_dense(g, nvars), *symbols, **domain).as_expr() for g in basis]
            F = sympy.Poly.from_dict(dividend, *symbols, **domain).as_expr()
            _, r = sympy.reduced(F, theirs, *symbols, order=name, **domain)
            expected = {
                m: field.normalize(Fraction(str(c)))
                for m, c in sympy.Poly(r, *symbols, **domain).as_dict().items()
            }
            got = reduce(f, basis, order)
            assert _dense(got, nvars) == expected, (trial, name, gens, dividend)
            reduced_nonzero += got != f and not got.is_zero
    assert reduced_nonzero >= 4  # some remainders are neither f nor 0


# ---------------------------------------------------------------------------
# Seeded grevlex bases: an elimination, saturation or intersection arrives
# with its reduced grevlex basis cached.  A fresh buchberger run on the
# generators must give the same tuple.  Chart relations arrive unreduced, and
# building a chart runs no buchberger at all.

def _random_polynomial(rng, ring, max_degree):
    """Up to three terms of total degree at most max_degree, with small
    coefficients that are nonzero in the field; zero only when terms cancel."""
    p = ring.field.characteristic
    pairs = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = rng.randint(1, p - 1) if p else rng.choice((-3, -2, -1, 1, 2, 3))
        pairs.append((mono_from_pairs(enumerate(exps)), coeff))
    return ring.from_terms(pairs)


def _random_ideal(rng, ring):
    return Ideal(ring, [_random_polynomial(rng, ring, 2) for _ in range(rng.randint(1, 2))])


@pytest.mark.parametrize("characteristic", [0, 5])
@pytest.mark.parametrize(
    "order", [LEX, GREVLEX, MonomialOrder.elimination({0})], ids=["lex", "grevlex", "block"]
)
def test_basis_ascends_by_leading_monomial(characteristic, order):
    """ideal_equal compares reduced bases as tuples, which needs every basis
    listed in one canonical order: strictly ascending by leading monomial."""
    ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z"))
    key = ring.sort_key(order)
    cases = [
        [ring.parse("x^2*y - z"), ring.parse("x*y^2 - x"), ring.parse("z^2 - y")],
        [ring.parse("x^3 - y*z"), ring.parse("y^3 - x*z"), ring.parse("z^3 - x*y")],
    ]
    rng = random.Random(7000 + characteristic)
    cases.extend([_random_polynomial(rng, ring, 3) for _ in range(3)] for _ in range(20))
    longest = 0
    for gens in cases:
        keys = [key(g.leading_term(order)[0]) for g in buchberger(ring, gens, order)]
        assert keys == sorted(set(keys)), gens
        longest = max(longest, len(keys))
    assert longest >= 4


def _assert_seeded_basis_is_fresh(X):
    assert GREVLEX in X._gb, X
    assert X.groebner_basis() == buchberger(X.ring, X.generators, GREVLEX), X


@pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
def test_seeded_bases_match_fresh_buchberger(characteristic):
    ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z"))
    rng = random.Random(6000 + characteristic)
    nontrivial = 0
    for trial in range(20):
        I, J = _random_ideal(rng, ring), _random_ideal(rng, ring)
        g = _random_polynomial(rng, ring, 2)
        v = rng.choice(ring.variables)
        # contract to the first 1, 2 or all 3 variables in turn
        leading = PolyRing(ring.field, ring.variables[:1 + trial % 3])
        results = [ideal_intersect(I, J), eliminate(I, [v]), contract(I, leading)]
        if any(g.terms):  # some monomial is not 1, so g is not a constant
            results.append(saturate(I, g))
        for X in results:
            _assert_seeded_basis_is_fresh(X)
            nontrivial += len(X.generators) > 1
    assert nontrivial >= 8  # not all zero, unit or principal


# One route per operation: whichever way eliminate, contract, saturate or
# ideal_intersect reaches its result, the result lists its reduced grevlex
# basis as its generators, and that basis is cached before anyone asks.
RESULT_ROUTES = {
    "eliminate-empty-block": lambda I: eliminate(I, []),
    "eliminate-block": lambda I: eliminate(I, ["x"]),
    "contract-same-ring": lambda I: contract(I, I.ring),
    "contract-smaller-ring": lambda I: contract(I, PolyRing(QQ, ("x",))),
    "saturate-constant": lambda I: saturate(I, I.ring.constant(3)),
    "saturate-certified-monomial": lambda I: saturate(I, I.ring.parse("z^2")),
    "saturate-rabinowitsch": lambda I: saturate(I, I.ring.parse("x + z")),
    "saturate-cached-repeat": lambda I: [saturate(I, I.ring.parse("x + z")) for _ in range(2)][1],
    "ideal-intersect": lambda I: ideal_intersect(I, Ideal(I.ring, [I.ring.parse("2*z - 2*x")])),
}


@pytest.mark.parametrize("route", sorted(RESULT_ROUTES))
def test_every_result_lists_its_cached_reduced_basis(route):
    ring = PolyRing(QQ, ("x", "y", "z"))
    I = Ideal(ring, [ring.parse("2*x^2 - 2*y"), ring.parse("x*y - 1")])
    assert I.groebner_basis() != I.generators  # the input is not reduced
    X = RESULT_ROUTES[route](I)
    assert GREVLEX in X._gb, X
    assert X.generators, X  # no route yields the zero ideal here
    assert X.generators == X.groebner_basis() == buchberger(X.ring, X.generators, GREVLEX), X


@pytest.mark.parametrize(
    "params", shipped_grid() + read_grid(STRETCH_FILE), ids=lambda p: p.flag_string()
)
def test_building_a_chart_runs_no_buchberger(params, monkeypatch):
    calls = _record_calls(monkeypatch, "buchberger")
    for r in range(params.s, params.n + 1):
        chart_presentation(params, r)
        ci_pruned_chart_presentation(params.field, params.n, params.powers(), r)
    assert calls == []


# ---------------------------------------------------------------------------
# Saturation memo: each saturation of an ideal is computed once, and a
# result's own memo starts empty.

def _record_calls(monkeypatch, name):
    """Record the arguments of every call to fitt.groebner.<name>."""
    calls = []
    real = getattr(groebner, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, name, recording)
    return calls


class TestSaturationMemo:
    def test_repeat_matches_a_fresh_ideal(self):
        ring = PolyRing(CoefficientField(3), ("x", "y", "z"))
        gens = [ring.parse("x^2*y - x*z"), ring.parse("x*y*z + y^2")]
        g = ring.parse("x + z")
        I = Ideal(ring, gens)
        first = saturate(I, g)
        again = saturate(I, g)
        fresh = saturate(Ideal(ring, gens), g)
        assert again is first
        assert again.groebner_basis() == fresh.groebner_basis()
        assert again.groebner_basis() == buchberger(ring, fresh.generators, GREVLEX)

    def test_equal_element_hits_and_other_element_misses(self, rxy, monkeypatch):
        calls = _record_calls(monkeypatch, "eliminate")
        I = Ideal(rxy, [rxy.parse("x^2*y - x*y^2")])
        g, same = rxy.variable("x"), rxy.parse("x")
        assert g is not same and g == same
        first = saturate(I, g)
        assert saturate(I, same) is first
        assert len(calls) == 1
        other = saturate(I, rxy.variable("y"))
        assert other is not first
        assert len(calls) == 2
        assert saturate(I, rxy.parse("y")) is other
        assert len(calls) == 2
        assert ideal_equal(first, Ideal(rxy, [rxy.parse("x*y - y^2")]))
        assert ideal_equal(other, Ideal(rxy, [rxy.parse("x^2 - x*y")]))

    def test_checks_still_raise_after_the_memo_fills(self, rxy):
        I = Ideal(rxy, [rxy.parse("x*y")])
        saturate(I, rxy.variable("x"))
        other = PolyRing(QQ, ("x", "y", "z"))
        with pytest.raises(RingMismatchError):
            saturate(I, other.variable("x"))
        with pytest.raises(ValueError):
            saturate(I, rxy.zero())

    def test_idempotence_is_computed_not_remembered(self, rxy, monkeypatch):
        calls = _record_calls(monkeypatch, "eliminate")
        I = Ideal(rxy, [rxy.parse("x^2*y - x*y")])
        g = rxy.variable("x")
        S1 = saturate(I, g)
        assert len(calls) == 1
        S2 = saturate(S1, g)
        assert len(calls) == 2
        assert S2 is not S1
        assert ideal_equal(S2, S1)


# ---------------------------------------------------------------------------
# Saturation at a single term: a nonzerodivisor certificate from I's basis,
# or else the Rabinowitsch route

def _saturate_by_rabinowitsch(I, g):
    """Oracle: I + (w*g - 1) in one more variable, contracted back."""
    ring = I.ring
    aux = ring.fresh_name("w")
    ext = ring.extended([aux])
    gens = [h.transport(ext) for h in I.generators]
    gens.append(ext.variable(aux) * g.transport(ext) - ext.one())
    return contract(Ideal(ext, gens), ring)


class TestSaturationCertificate:
    def test_a_zero_divisor_falls_back_to_rabinowitsch(self, monkeypatch):
        ring = PolyRing(QQ, ("x1", "x2", "x3"))
        I = Ideal(ring, [ring.parse("x1*x2"), ring.parse("x1*x3")])
        calls = _record_calls(monkeypatch, "eliminate")
        got = saturate(I, ring.variable("x1"))
        assert len(calls) == 1
        assert got.generators == (ring.parse("x3"), ring.parse("x2"))

    @pytest.mark.parametrize("characteristic", [2, 3, 0])
    def test_matches_rabinowitsch_on_random_ideals(self, characteristic, monkeypatch):
        ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z"))
        rng = random.Random(7000 + characteristic)
        calls = _record_calls(monkeypatch, "eliminate")
        routes = {"certified": 0, "fallback": 0}
        for _ in range(60):
            I = _random_ideal(rng, ring)
            exps = [0] * ring.nvars
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(ring.nvars)] += 1
            g = ring.from_terms([(mono_from_pairs(enumerate(exps)), rng.choice((1, -1)))])
            before = len(calls)
            got = saturate(I, g)
            routes["certified" if len(calls) == before else "fallback"] += 1
            assert got.generators == _saturate_by_rabinowitsch(I, g).generators, (I, g)
        assert routes["certified"] >= 5 and routes["fallback"] >= 5, routes


# ---------------------------------------------------------------------------
# ideal_equal against two-way containment, the route it replaced

def _equal_by_containment(I, J):
    return ideal_contains(I, J) and ideal_contains(J, I)


def _same_ideal_other_generators(rng, I):
    """Generators of I under an invertible change: scale the first, add a
    multiple of the second to it, and list one redundant multiple."""
    ring = I.ring
    p = ring.field.characteristic
    gens = list(I.generators)
    c = rng.randint(1, p - 1) if p else rng.choice((-2, 2, 3))
    gens[0] = gens[0] * ring.constant(c)
    if len(gens) > 1:
        gens[0] = gens[0] + _random_polynomial(rng, ring, 1) * gens[1]
    gens.append(_random_polynomial(rng, ring, 1) * I.generators[0])
    return Ideal(ring, gens)


@pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
def test_ideal_equal_matches_two_way_containment(characteristic):
    ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z"))
    rng = random.Random(7000 + characteristic)
    seen = {"equal": 0, "strict": 0, "incomparable": 0}
    for _ in range(20):
        I = _random_ideal(rng, ring)
        if not I.generators:
            continue
        pairs = [
            (I, Ideal(ring, I.generators)),
            (I, _same_ideal_other_generators(rng, I)),
            (I, Ideal(ring, I.generators + (_random_polynomial(rng, ring, 2),))),
            (I, _random_ideal(rng, ring)),
        ]
        for A, B in pairs:
            for X, Y in ((A, B), (B, A)):
                expected = _equal_by_containment(
                    Ideal(ring, X.generators), Ideal(ring, Y.generators)
                )
                # uncached, then with either or both bases already computed
                for warm in ((), (0,), (1,), (0, 1)):
                    P, Q = Ideal(ring, X.generators), Ideal(ring, Y.generators)
                    for k in warm:
                        (P, Q)[k].groebner_basis()
                    assert ideal_equal(P, Q) == expected, (X, Y, warm)
            if _equal_by_containment(A, B):
                seen["equal"] += A.generators != B.generators
            elif ideal_contains(A, B) or ideal_contains(B, A):
                seen["strict"] += 1
            else:
                seen["incomparable"] += 1
    assert seen["equal"] >= 10 and seen["strict"] >= 5 and seen["incomparable"] >= 5, seen


@pytest.mark.parametrize("texts", [("x", "x*y, x^2"), ("x", "y")], ids=["strict", "incomparable"])
def test_ideal_equal_runs_no_membership_test(rxy, monkeypatch, texts):
    members = _record_calls(monkeypatch, "ideal_member")
    I, J = (Ideal(rxy, [rxy.parse(t) for t in text.split(", ")]) for text in texts)
    assert not ideal_equal(I, J)
    assert not ideal_equal(J, I)
    assert members == []


class TestIdealEqualShortcuts:
    def test_equal_generator_tuples_need_no_basis(self, rxy, monkeypatch):
        calls = _record_calls(monkeypatch, "buchberger")
        I = Ideal(rxy, [rxy.parse("x^2 - y"), rxy.parse("x*y - 1")])
        assert ideal_equal(I, I)
        assert ideal_equal(I, Ideal(rxy, I.generators))
        assert calls == []
        assert GREVLEX not in I._gb

    @pytest.mark.parametrize("texts, expected", [
        (("x + y, y", "x, y"), True),
        (("x*y, x^2", "x"), False),
        (("x", "x*y, x^2"), False),
    ])
    def test_two_cached_bases_decide_without_reduction(self, rxy, monkeypatch, texts, expected):
        I, J = (Ideal(rxy, [rxy.parse(t) for t in text.split(", ")]) for text in texts)
        assert I.generators != J.generators
        I.groebner_basis()
        J.groebner_basis()
        reduces = _record_calls(monkeypatch, "reduce")
        builds = _record_calls(monkeypatch, "buchberger")
        assert ideal_equal(I, J) is expected
        assert reduces == [] and builds == []


# ---------------------------------------------------------------------------
# The unit ideal: a nonzero constant ends Buchberger with (1)

UNIT_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "elim0": MonomialOrder.elimination({0})}


class TestUnitIdealExits:
    @pytest.mark.parametrize("order_name", sorted(UNIT_ORDERS))
    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_constant_generator_needs_no_pair(self, monkeypatch, characteristic, order_name):
        ring = PolyRing(CoefficientField(characteristic), ("x", "y", "z"))
        gens = [ring.parse("x^2*y - z"), ring.parse("y*z + x"), ring.constant(characteristic - 1 or 3)]
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        assert buchberger(ring, gens, UNIT_ORDERS[order_name]) == (ring.one(),)
        assert reduces == [] and spolys == []

    def test_unit_s_polynomial_stops_the_run(self, rxy, monkeypatch):
        # the first pair, (x*y - 1, x), has S-polynomial -1; the pairs with
        # y^3 + y are still queued when it reduces
        gens = [rxy.parse("x*y - 1"), rxy.parse("x"), rxy.parse("y^3 + y")]
        reduces = _record_calls(monkeypatch, "reduce")
        spolys = _record_calls(monkeypatch, "s_polynomial")
        assert buchberger(rxy, gens, GREVLEX) == (rxy.one(),)
        assert len(spolys) == 1 and len(reduces) == 1
        assert reduces[0][0] == rxy.constant(-1)

    def test_monomial_generator_is_not_a_unit(self, rxy):
        x, y = rxy.variable("x"), rxy.variable("y")
        assert buchberger(rxy, [x, y * y + rxy.one()], GREVLEX) == (x, y * y + rxy.one())
        assert buchberger(rxy, [x * y, y], LEX) == (y,)
        assert not ideal_member(rxy.one(), Ideal(rxy, [x]))
        assert not ideal_member(y, Ideal(rxy, [x]))

    def test_derived_unit_ideals_keep_their_basis(self, rxy):
        one = (rxy.one(),)
        unit = Ideal(rxy, [rxy.parse("x*y - 1"), rxy.parse("x")])
        results = [
            eliminate(unit, ["x"]),
            saturate(unit, rxy.variable("y")),
            saturate(Ideal(rxy, [rxy.parse("x*y")]), rxy.parse("x*y")),
            ideal_intersect(unit, Ideal(rxy, [rxy.parse("x + 1"), rxy.parse("x")])),
        ]
        for X in results:
            assert X.generators == one and X._gb[GREVLEX] == one, X
            assert X.is_unit()

    @pytest.mark.parametrize("order_name", sorted(UNIT_ORDERS))
    def test_membership_in_the_unit_ideal_needs_no_reduction(self, rxy, monkeypatch, order_name):
        order = UNIT_ORDERS[order_name]
        I = Ideal(rxy, [rxy.parse("x"), rxy.parse("x + 1")])
        assert I.groebner_basis(order) == (rxy.one(),)
        reduces = _record_calls(monkeypatch, "reduce")
        assert ideal_member(rxy.parse("y^3 + x"), I, order)
        assert reduces == []
