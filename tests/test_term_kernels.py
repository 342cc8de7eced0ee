"""The term-map builders against the formulas they replaced, which are kept
here as oracles, and the rule that over Q an integral coefficient is an int.

Each builder sums its result into one term map through add_terms; the
oracles build the same polynomial a term at a time through the ring
operations, so a difference in any coefficient, sum or dropped zero shows."""

import hashlib
import random
from fractions import Fraction

import pytest

from fitt.fitmod import minors
from fitt.groebner import Ideal, reduce, s_polynomial
from fitt.polyring import (
    FIELD_BITS,
    GREVLEX,
    LEX,
    ONE_MONOMIAL,
    CoefficientField,
    MonomialOrder,
    ParseError,
    PolyRing,
    add_terms,
    mono_from_pairs,
    mono_mul,
    mono_pairs,
)

QQ = CoefficientField(0)
FIELDS = [QQ, CoefficientField(2), CoefficientField(3), CoefficientField(5)]
ORDERS = [GREVLEX, LEX, MonomialOrder.elimination({0, 2})]


def _coeff(rng, field):
    """A nonzero field element; over Q a small fraction, integral ones ints."""
    p = field.characteristic
    if p:
        return rng.randrange(1, p)
    return field.of(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _terms(rng, field, nvars=3, size=5, max_deg=3):
    """A term map of up to size terms with nonzero field coefficients."""
    out = {}
    for _ in range(rng.randint(0, size)):
        m = mono_from_pairs((i, rng.randint(0, max_deg)) for i in range(nvars))
        out[m] = _coeff(rng, field)
    return out


def _poly(rng, ring, size=5, max_deg=3):
    return ring.from_terms(_terms(rng, ring.field, ring.nvars, size, max_deg).items())


def _assert_canonical(f):
    """Over Q an integral coefficient is an int, and any other a Fraction."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (f, c)


# ---------------------------------------------------------------------------
# add_terms


def _old_add_terms(out, a, shift, terms, field):
    """The loop add_terms replaced: every coefficient times a, then summed."""
    p = field.characteristic
    for m, c in terms.items():
        if shift:
            m = mono_mul(m, shift)
        v = out.get(m)
        v = a * c if v is None else v + a * c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("a_kind", ["one", "minus_one", "other"])
@pytest.mark.parametrize("shifted", [False, True], ids=["no_shift", "shift"])
def test_add_terms_matches_the_old_loop(field, a_kind, shifted):
    rng = random.Random(f"{field} {a_kind} {shifted}")
    for _ in range(200):
        a = {"one": 1, "minus_one": -1}.get(a_kind) or _coeff(rng, field)
        shift = mono_from_pairs((i, rng.randint(0, 2)) for i in range(3)) if shifted else ONE_MONOMIAL
        out = _terms(rng, field, size=6, max_deg=2)
        terms = _terms(rng, field, size=6, max_deg=2)
        if rng.random() < 0.3:  # a map that cancels out against its negation
            out = add_terms({}, -a, shift, terms, field)
        want = _old_add_terms(dict(out), a, shift, terms, field)
        got = add_terms(dict(out), a, shift, terms, field)
        assert got == want
        assert all(c and (not field.characteristic or 0 < c < field.characteristic) for c in got.values())
        if not field.characteristic:
            for c in got.values():
                assert type(c) is int or c.denominator != 1


# ---------------------------------------------------------------------------
# substitute


def _old_substitute(f, target, mapping):
    """The formula substitute replaced: constant(c) * img ** exp, term by
    term, each product added into the result."""
    names = f.ring.variables
    result = target.zero()
    for m, c in f.terms.items():
        term = target.constant(c)
        for idx, exp in mono_pairs(m):
            img = mapping.get(names[idx]) or target.variable(names[idx])
            term = term * img**exp
        result = result + term
    return result


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_substitute_matches_the_term_by_term_formula(field):
    rng = random.Random(f"substitute {field}")
    ring = PolyRing(field, ("x", "y", "z"))
    small = PolyRing(field, ("x", "y"))
    for _ in range(60):
        f = _poly(rng, ring, size=5, max_deg=4)
        var = rng.choice(ring.variables)
        shifted = ring.variable(var) + ring.constant(_coeff(rng, field))
        for target, mapping in (
            (ring, {var: ring.zero()}),
            (ring, {var: shifted}),
            (ring, {"x": _poly(rng, ring, size=3, max_deg=2), "z": shifted}),
            (small, {"z": _poly(rng, small, size=3, max_deg=2)}),
        ):
            got = f.substitute(target, mapping)
            assert got == _old_substitute(f, target, mapping)
            assert got.ring is target
            _assert_canonical(got)


# ---------------------------------------------------------------------------
# parse_polynomial


def _render(rng, ring):
    """Polynomial text of random terms, and their sum built term by term
    from ring.term; monomials repeat and factors repeat within a term."""
    text, oracle = [], ring.zero()
    for k in range(rng.randint(1, 6)):
        sign = rng.choice([1, -1])
        p = ring.field.characteristic
        num, den = rng.randint(0, 9), rng.choice([d for d in (None, 1, 2, 3, 4) if not (p and d and d % p == 0)])
        factors = [(rng.randrange(ring.nvars), rng.choice([None, 1, 2, 3])) for _ in range(rng.randint(0, 3))]
        pieces = [ring.variables[i] + ("" if e is None else f"^{e}") for i, e in factors]
        if den is not None or not pieces or rng.random() < 0.5:
            pieces.insert(0, str(num) if den is None else f"{num}/{den}")
            coeff = ring.field.of(num, den or 1)
        else:
            coeff = 1
        if k == 0:
            text.append(("-" if sign < 0 else rng.choice(["", "+"])) + "*".join(pieces))
        else:
            text.append((" - " if sign < 0 else " + ") + "*".join(pieces))
        mono = mono_from_pairs((i, 1 if e is None else e) for i, e in factors)
        oracle = oracle + ring.term(sign * coeff, mono)
    return "".join(text), oracle


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_parse_matches_the_sum_of_its_terms(field):
    rng = random.Random(f"parse {field}")
    ring = PolyRing(field, ("x", "y", "z1"))
    for _ in range(300):
        text, oracle = _render(rng, ring)
        got = ring.parse(text)
        assert got == oracle, text
        if not field.characteristic:
            _assert_canonical(got)


def test_parse_outcomes_are_pinned():
    """A digest of what 3,000 random texts parse to, or of the ParseError
    each raises with its message and position, over Q and F_5.  The digest
    was taken from the parser that summed a polynomial per term, so every
    error and position stays where it was."""
    alphabet = ["x", "y", "z", "x1", "0", "1", "2", "3", "+", "-", "*", "/", "^", " ", "_", "²"]
    rng = random.Random(38)
    rings = [PolyRing(field, ("x", "y", "x1")) for field in (QQ, CoefficientField(5))]
    digest = hashlib.sha256()
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        ring = rng.choice(rings)
        try:
            outcome = str(ring.parse(text))
        except ParseError as err:
            outcome = f"{err} {err.position}"
        digest.update(f"{ring!r} {text!r} {outcome}\n".encode())
    assert digest.hexdigest() == "92f774f681c716db279936ed2ffa50273988da565eb61d79d6af0afd89180412"


# ---------------------------------------------------------------------------
# Over Q an integral coefficient is an int


def test_integral_rationals_are_ints_after_every_operation():
    rng = random.Random("canonical")
    ring = PolyRing(QQ, ("x", "y", "z"))
    x = ring.variable("x")
    half = Fraction(1, 2)
    for f in (ring.from_terms([(ONE_MONOMIAL, half), (ONE_MONOMIAL, half)]),
              ring.from_terms([(1 << FIELD_BITS, half), (ONE_MONOMIAL, 1), (1 << FIELD_BITS, half)]),
              x.scale(half) + x.scale(half),
              x.scale(Fraction(3, 2)) - x.scale(half),
              x.scale(Fraction(3, 2)).scale(2),
              x.scale(Fraction(2, 3)).monic()):
        _assert_canonical(f)
        assert all(type(c) is int for c in f.terms.values()), f
    for _ in range(100):
        f, g, h = (_poly(rng, ring, size=4, max_deg=2) for _ in range(3))
        for result in (f + g, f - g, f * g, -f, f.scale(_coeff(rng, QQ)), f.scale(2)):
            _assert_canonical(result)
        if f.terms and g.terms:
            for order in ORDERS:
                _assert_canonical(f.monic(order))
                _assert_canonical(s_polynomial(f, g, order))
                _assert_canonical(reduce(f * g + h, [g.monic(order), f.monic(order)], order))
        _assert_canonical(f.substitute(ring, {"x": g, "y": h.scale(half)}))
        matrix = [[f, g], [h, f.scale(half)], [g.scale(Fraction(2, 3)), h]]
        for k in (1, 2):
            for m in minors(matrix, k):
                _assert_canonical(m)
    # bases in two variables, where lex bases stay small
    plane = PolyRing(QQ, ("x", "y"))
    for _ in range(40):
        ideal = Ideal(plane, [_poly(rng, plane, size=3, max_deg=2) for _ in range(3)])
        for order in (GREVLEX, LEX, MonomialOrder.elimination({0})):
            for b in ideal.groebner_basis(order):
                _assert_canonical(b)
