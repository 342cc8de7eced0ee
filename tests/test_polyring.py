import random
import sys
from fractions import Fraction

import pytest

from fitt.polyring import (
    GREVLEX,
    LEX,
    CoefficientField,
    ExponentOverflowError,
    FieldDivisionError,
    MonomialOrder,
    ParseError,
    PolyRing,
    RingMismatchError,
    field_inverse,
    mono_from_pairs,
    mono_mul,
    parse_polynomial,
    print_polynomial,
)

QQ = CoefficientField(0)
F2 = CoefficientField(2)
F5 = CoefficientField(5)


@pytest.fixture
def rxy():
    return PolyRing(QQ, ("x", "y"))


class TestCoefficientField:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            CoefficientField(6)

    def test_rejects_oversized_characteristic(self):
        with pytest.raises(ValueError):
            CoefficientField(2**63 + 9)

    def test_inverse_of_one_is_one(self):
        assert field_inverse(1, F5) == 1

    def test_inverse_of_two_mod_five(self):
        # oracle: exhaustive search over F_5
        expected = next(b for b in range(1, 5) if (2 * b) % 5 == 1)
        assert expected == 3
        assert field_inverse(2, F5) == expected

    def test_inverse_of_zero_errors(self):
        with pytest.raises(FieldDivisionError):
            field_inverse(0, CoefficientField(7))

    def test_rational_inverse(self):
        assert field_inverse(Fraction(3, 2), QQ) == Fraction(2, 3)

    def test_normalize_keeps_lowest_terms(self):
        c = QQ.normalize(Fraction(6, -4))
        assert c == Fraction(-3, 2) and c.denominator == 2


class TestArithmetic:
    def test_difference_of_squares(self, rxy):
        x, y = rxy.variable("x"), rxy.variable("y")
        assert (x + y) * (x - y) == rxy.parse("x^2 - y^2")

    def test_square_in_characteristic_two(self):
        # oracle: expand (x+1)^2 = x^2 + 2x + 1 and reduce coefficients mod 2
        ring = PolyRing(F2, ("x",))
        f = ring.variable("x") + ring.one()
        assert f * f == ring.parse("x^2 + 1")

    def test_additive_identity(self, rxy):
        f = rxy.parse("x^2*y - 3*x + 1/2")
        assert f + rxy.zero() == f

    def test_ring_mismatch_raises(self, rxy):
        other = PolyRing(F2, ("x", "y"))
        with pytest.raises(RingMismatchError):
            rxy.variable("x") + other.variable("x")

    def test_power_and_scale(self, rxy):
        x = rxy.variable("x")
        assert (x + rxy.one()) ** 0 == rxy.one()
        assert x.scale(Fraction(1, 2)) == rxy.parse("1/2*x")

    def test_exponent_overflow_is_an_error(self):
        big = mono_from_pairs([(0, 2**31 - 1)])
        with pytest.raises(ExponentOverflowError):
            mono_mul(big, ((0, 1),))

    @pytest.mark.parametrize("field", [QQ, F2, F5], ids=str)
    @pytest.mark.parametrize("text", ["3*x^2*y", "-2/3*x*z^4", "7", "y", "0", "x + 2*y"])
    def test_power_matches_repeated_multiplication(self, field, text):
        ring = PolyRing(field, ("x", "y", "z"))
        f = ring.parse(text)
        product = ring.one()
        for e in range(8):
            assert f**e == product, e
            product = product * f

    def test_single_term_power_past_the_cap_raises(self):
        ring = PolyRing(F5, ("x", "y"))
        f = ring.parse(f"3*x^{2**30}*y")
        assert f**1 == f
        with pytest.raises(ExponentOverflowError, match=f"exponent {2**31} exceeds cap"):
            f**2


class TestDerivative:
    def test_frobenius_power_dies(self):
        ring = PolyRing(F5, ("x",))
        assert (ring.variable("x") ** 5).derivative("x").is_zero

    def test_plain_power_rule(self, rxy):
        assert (rxy.variable("x") ** 2).derivative("x") == rxy.parse("2*x")

    def test_constant_in_other_variable(self, rxy):
        assert (rxy.variable("y") ** 3).derivative("x").is_zero

    def test_p_divisible_exponent_contributes_zero(self):
        ring = PolyRing(F2, ("x", "y"))
        f = ring.parse("x^2*y + y")
        assert f.derivative("x").is_zero
        assert f.derivative("y") == ring.parse("x^2 + 1")


class TestMonomialOrders:
    def test_lex_earlier_variables_larger(self):
        assert LEX.compare(((0, 1),), ((1, 1),), 2) == 1

    def test_grevlex_degree_tie(self):
        # x1^2 vs x1*x2: tie on degree, broken by reverse-lex on the last variable
        assert GREVLEX.compare(((0, 2),), ((0, 1), (1, 1)), 2) == 1

    def test_reflexive_equality(self):
        m = ((0, 2), (2, 1))
        for order in (LEX, GREVLEX, MonomialOrder.elimination({1})):
            assert order.compare(m, m, 3) == 0

    def test_block_order_eliminates(self):
        # any monomial touching the block beats any block-free monomial
        order = MonomialOrder.elimination({1})
        assert order.compare(((1, 1),), ((0, 9),), 2) == 1


class TestLeadingTermMemo:
    # y^4 leads under grevlex, x^2*y under lex, x*z^3 under z-elimination
    ORDERS = (GREVLEX, LEX, MonomialOrder.elimination({2}), GREVLEX)

    @pytest.fixture(params=[0, 5], ids=["QQ", "F_5"])
    def f(self, request):
        ring = PolyRing(CoefficientField(request.param), ("x", "y", "z"))
        return ring.parse("2*x*z^3 + 3*y^4 + 4*x^2*y - 3*z")

    def assert_leads(self, g):
        for order in self.ORDERS:
            lm = max(g.terms, key=g.ring.sort_key(order))
            assert g.leading_term(order) == (lm, g.terms[lm]), order

    def test_each_order_gets_its_own_lead(self, f):
        assert len({f.leading_term(order)[0] for order in self.ORDERS}) == 3
        self.assert_leads(f)

    def test_monic_output(self, f):
        for order in self.ORDERS:
            g = f.monic(order)
            assert g.leading_term(order)[1] == 1
            self.assert_leads(g)

    def test_scale_output(self, f):
        for order in self.ORDERS:
            f.leading_term(order)
            self.assert_leads(f.scale(-2))


class TestParsePrint:
    def test_rees_binomial(self):
        ring = PolyRing(QQ, ("x1", "x2", "T1", "T2"))
        f = ring.parse("x1^2*T2 - x2*T1")
        x1, x2 = ring.variable("x1"), ring.variable("x2")
        t1, t2 = ring.variable("T1"), ring.variable("T2")
        assert f == x1 * x1 * t2 - x2 * t1

    def test_zero(self, rxy):
        assert rxy.parse("0").is_zero

    def test_coefficient_reduced_into_prime_field(self):
        ring = PolyRing(F5, ("x1",))
        assert ring.parse("3/2*x1") == ring.parse("4*x1")
        assert print_polynomial(ring.parse("3/2*x1")) == "4*x1"

    def test_syntax_error_carries_position(self, rxy):
        with pytest.raises(ParseError) as err:
            rxy.parse("x + * y")
        assert err.value.position == 4

    def test_unknown_variable(self, rxy):
        with pytest.raises(ParseError):
            rxy.parse("x + z")

    def test_noninvertible_denominator(self):
        ring = PolyRing(F5, ("x",))
        with pytest.raises(ParseError):
            ring.parse("1/5*x")

    def test_round_trip_on_examples(self, rxy):
        for text in ("0", "-x", "x^2 - y^2", "1/2*x*y - 3", "x^3 + 2*x*y + y + 7"):
            f = rxy.parse(text)
            assert rxy.parse(print_polynomial(f)) == f
            assert rxy.parse(print_polynomial(f, LEX)) == f

    def test_print_orders_terms_descending(self, rxy):
        f = rxy.parse("1 + x + x^2")
        assert print_polynomial(f) == "x^2 + x + 1"

    def test_parse_polynomial_function(self, rxy):
        assert parse_polynomial("x*y", rxy) == rxy.variable("x") * rxy.variable("y")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x y", "unexpected character 'y'", 2),
            ("--x", "expected a term", 0),
            ("x^2^3", "unexpected character '^'", 3),
            ("2*3", "expected an identifier", 2),
            ("x^", "expected an integer", 2),
            ("x^-1", "expected an integer", 2),
            ("1/ 0*x", "zero denominator", 2),
            ("", "empty input", 0),
            ("   ", "empty input", 3),
            ("x_1", "unexpected character '_'", 1),
            ("x + z", "unknown variable 'z'", 4),
            ("x + ", "expected a term", 4),
        ],
    )
    def test_error_message_and_position(self, rxy, text, message, position):
        with pytest.raises(ParseError) as err:
            rxy.parse(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit here"
    )
    @pytest.mark.parametrize(
        "text, position",
        [("1" * 5000, 0), ("x^" + "9" * 5000, 2), ("1/" + "2" * 5000, 2)],
        ids=["coefficient", "exponent", "denominator"],
    )
    def test_integer_past_the_digit_limit_is_a_parse_error(self, rxy, text, position):
        assert len(text) - position > sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as err:
            rxy.parse(text)
        assert err.value.position == position
        assert str(err.value).endswith(f"(at position {position})")

    @pytest.mark.parametrize("text", ["x - -y", "x\u00a0+ y"])
    def test_accepted_forms(self, rxy, text):
        assert rxy.parse(text) == rxy.variable("x") + rxy.variable("y")

    @pytest.mark.parametrize("text", ["x^\u00b2", "\u00b2", "x^\u0663"])
    def test_non_ascii_digits_are_rejected(self, rxy, text):
        with pytest.raises(ParseError):
            rxy.parse(text)

    def test_random_text_raises_only_parse_errors(self):
        alphabet = ["x", "y", "z", "x1", "0", "1", "2", "3", "+", "-", "*", "/", "^",
                    " ", "\t", "\u00a0", "_", "(", "\u00b2", "\u0663"]
        rng = random.Random(17)
        rings = [PolyRing(field, ("x", "y", "x1")) for field in (QQ, F5)]
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            try:
                rng.choice(rings).parse(text)
            except (ParseError, ExponentOverflowError):
                pass

    @pytest.mark.parametrize("name", ["x", "T2", "xY09"])
    def test_valid_variable_names(self, name):
        assert PolyRing(QQ, (name,)).variables == (name,)

    @pytest.mark.parametrize("name", ["", "1x", "x_1", "_x", "x ", " x", "x-y", "\u00e9", "x\u00b2", "x\u0663"])
    def test_invalid_variable_names(self, name):
        with pytest.raises(ValueError, match="invalid variable name"):
            PolyRing(QQ, (name,))


# ---------------------------------------------------------------------------
# Arithmetic against sympy (test-only dependency)

def _random_dense(rng, nvars, characteristic):
    """Up to five terms of total degree at most 4, as {exponent tuple:
    coefficient}; over Q the coefficients are fractions."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(nvars)] += 1
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[tuple(exps)] = Fraction(num, rng.randint(1, 3)) if characteristic == 0 else num
    return terms


@pytest.mark.parametrize("characteristic", [0, 3, 7])
def test_arithmetic_matches_sympy(characteristic):
    sympy = pytest.importorskip("sympy")
    field = CoefficientField(characteristic)
    domain = {"modulus": characteristic} if characteristic else {"domain": "QQ"}
    rng = random.Random(20261018 + characteristic)
    cancelled = 0
    for trial in range(40):
        nvars = rng.randint(1, 3)
        names = ("x", "y", "z")[:nvars]
        ring = PolyRing(field, names)
        symbols = sympy.symbols(names)
        df, dg = _random_dense(rng, nvars, characteristic), _random_dense(rng, nvars, characteristic)
        dg.update((e, -v) for e, v in df.items() if rng.random() < 0.3)  # terms that cancel in f+g
        f, g = (ring.from_terms((mono_from_pairs(enumerate(e)), c) for e, c in d.items()) for d in (df, dg))
        F, G = (sympy.Poly.from_dict(d, *symbols, **domain) for d in (df, dg))
        c = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) if characteristic == 0 else rng.randint(1, 6)
        var = rng.randrange(nvars)
        pairs = [
            ("f+g", f + g, F + G),
            ("f-g", f - g, F - G),
            ("f*g", f * g, F * G),
            ("-f", -f, -F),
            ("c*f", f.scale(c), F * sympy.sympify(c)),
            ("df", f.derivative(var), F.diff(symbols[var])),
        ]
        for name, ours, theirs in pairs:
            expected = {
                mono_from_pairs(enumerate(e)): field.normalize(Fraction(str(v)))
                for e, v in theirs.as_dict().items()
            }
            assert ours.terms == expected, (trial, name, df, dg)
        cancelled += len((f + g).terms) < len(set(df) | set(dg))
    assert cancelled >= 3  # some sums drop a monomial, so the zero rule is exercised
