import copy
import gc
import itertools
import operator
import os
import pickle
import random
import re
import string
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from fitt.groebner import Ideal, eliminate, reduce
from fitt.polyring import (
    GREVLEX,
    KEY_TABLE_CAP,
    LEX,
    CoefficientField,
    ExponentOverflowError,
    FieldDivisionError,
    MonomialOrder,
    ParseError,
    PolyRing,
    RingMismatchError,
    UnknownVariableError,
    _KeyTable,
    field_inverse,
    mono_from_pairs,
    mono_mul,
    parse_polynomial,
    print_polynomial,
)

QQ = CoefficientField(0)
F2 = CoefficientField(2)
F3 = CoefficientField(3)
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

    @pytest.mark.parametrize(
        "characteristic, type_name",
        [(2.0, "float"), (0.0, "float"), (False, "bool"), (True, "bool"), ("2", "str"), (None, "NoneType")],
    )
    def test_characteristic_must_be_an_int(self, characteristic, type_name):
        # a float or a bool would otherwise alias F_2 or Q in the field table
        with pytest.raises(TypeError, match=f"a characteristic must be an int, not {type_name}$"):
            CoefficientField(characteristic)

    def test_refused_characteristics_store_nothing(self):
        for bad in (2.0, False, 6, -3):
            with pytest.raises((TypeError, ValueError)):
                CoefficientField(bad)
        assert CoefficientField(2) is F2 and str(F2) == "F_2"
        assert CoefficientField() is QQ and str(QQ) == "QQ"

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

    @pytest.mark.parametrize(
        "method, args, value",
        [("normalize", (3,), 3), ("normalize", (Fraction(6, 3),), 2), ("of", (6, 3), 2), ("inverse", (-1,), -1)],
        ids=["normalize(3)", "normalize(6/3)", "of(6,3)", "inverse(-1)"],
    )
    def test_integral_rationals_are_ints(self, method, args, value):
        c = getattr(QQ, method)(*args)
        assert type(c) is int and c == value

    @pytest.mark.parametrize(
        "method, args, value",
        [("of", (1, 2), Fraction(1, 2)), ("inverse", (2,), Fraction(1, 2))],
        ids=["of(1,2)", "inverse(2)"],
    )
    def test_other_rationals_are_fractions(self, method, args, value):
        c = getattr(QQ, method)(*args)
        assert type(c) is Fraction and c == value

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_normalize_makes_a_bool_an_int(self, field):
        c = field.normalize(True)
        assert type(c) is int and c == 1

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("value", [2.5, 0.1, "3", Decimal("1")], ids=repr)
    def test_normalize_rejects_non_rationals(self, field, value):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            field.normalize(value)

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("args", [(2.5,), (3, 2.0), ("3",)], ids=repr)
    def test_of_rejects_non_integers(self, field, args):
        bad = next(a for a in args if type(a) is not int)
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            field.of(*args)

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_of_makes_a_bool_an_int(self, field):
        c = field.of(True, True)
        assert type(c) is int and c == 1

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_a_float_coefficient_is_a_type_error(self, field):
        ring = PolyRing(field, ("x", "y"))
        with pytest.raises(TypeError, match="not float"):
            ring.constant(2.5)
        with pytest.raises(TypeError, match="not float"):
            ring.variable("x").scale(0.1)

    @pytest.mark.parametrize("field", [QQ, F2, F3, F5], ids=str)
    def test_unit_inverse_is_the_int_one(self, field):
        one = field.inverse(1)
        assert type(one) is int and one == 1
        with pytest.raises(FieldDivisionError):
            field.inverse(0)

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
    def test_every_nonzero_residue_times_its_inverse_is_one(self, field):
        p = field.characteristic
        for a in range(1, p):
            assert a * field.inverse(a) % p == 1
        with pytest.raises(FieldDivisionError):
            field.inverse(p)


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

    @pytest.mark.parametrize("operand", [2, Fraction(1, 2), "1"], ids=["int", "Fraction", "str"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
    def test_a_non_polynomial_operand_is_a_type_error(self, rxy, op, operand):
        with pytest.raises(TypeError, match=rf"{type(operand).__name__}; use ring\.constant"):
            op(rxy.variable("x"), operand)

    def test_power_and_scale(self, rxy):
        x = rxy.variable("x")
        assert (x + rxy.one()) ** 0 == rxy.one()
        assert x.scale(Fraction(1, 2)) == rxy.parse("1/2*x")

    def test_int_and_integral_fraction_coefficients_agree(self, rxy):
        three = rxy.parse("3*x")
        halved = rxy.parse("3/2*x").scale(2)  # 2 * Fraction(3, 2) is Fraction(3, 1)
        x = ((0, 1),)
        assert type(three.terms[x]) is int and type(halved.terms[x]) is Fraction
        assert halved == three and hash(halved) == hash(three)
        assert str(halved) == str(three) == "3*x"
        assert Ideal(rxy, [three, halved]).generators == (three,)

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

    @pytest.mark.parametrize("field, text", [(QQ, "x"), (QQ, "x + y"), (F5, "3*x")],
                             ids=["Q-term", "Q-sum", "F5-term"])
    def test_a_non_int_power_is_a_type_error(self, field, text):
        f = PolyRing(field, ("x", "y")).parse(text)
        with pytest.raises(TypeError, match="must be an int, not float"):
            f ** 2.0

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


def _block_then_rest_key(block, nvars):
    """The block order as first written: block exponents, then grevlex of the
    monomial with the block variables removed."""
    grevlex = GREVLEX.key_function(nvars)

    def key(m):
        exps = dict(m)
        rest = tuple(pair for pair in m if pair[0] not in block)
        return tuple(exps.get(v, 0) for v in sorted(block)), grevlex(rest)

    return key


def test_block_order_matches_block_then_grevlex_of_the_rest():
    # small exponents, so that equal block exponents (the ties the grevlex
    # part decides) are common
    rng = random.Random(20240915)
    for _ in range(200):
        nvars = rng.randint(1, 6)
        block = frozenset(rng.sample(range(nvars), rng.randint(0, nvars)))
        order, oracle = MonomialOrder.elimination(block), _block_then_rest_key(block, nvars)
        for _ in range(50):
            a, b = (mono_from_pairs((i, rng.randint(0, 2)) for i in range(nvars)) for _ in range(2))
            expected = (oracle(a) > oracle(b)) - (oracle(a) < oracle(b))
            assert order.compare(a, b, nvars) == expected, (block, a, b)


class TestSortKeys:
    """MonomialOrder.key_function builds one key per (order, nvars), shared by
    equal orders, by every ring with that many variables and by compare."""

    def test_equal_orders_share_one_key(self):
        assert MonomialOrder.elimination({1}).key_function(3) is MonomialOrder.elimination([1]).key_function(3)

    def test_another_variable_count_gets_another_key(self):
        assert GREVLEX.key_function(3) is not GREVLEX.key_function(4)

    def test_rings_with_as_many_variables_share_one_key(self):
        assert PolyRing(QQ, ("x", "y")).sort_key(GREVLEX) is PolyRing(F5, ("a", "b")).sort_key(GREVLEX)

    @pytest.mark.parametrize("roundtrip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_a_round_tripped_order_finds_the_same_key(self, roundtrip):
        order = MonomialOrder.elimination({0, 2})
        copied = roundtrip(order)
        assert copied == order
        assert copied.key_function(4) is order.key_function(4)

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({0, 2})], ids=["lex", "grevlex", "block"])
    def test_the_stored_hash_is_the_hash_of_kind_and_block(self, order):
        # the value the dataclass-generated __hash__ gave, so no hash moves
        assert hash(order) == hash((order.kind, order.block))
        for made in (copy.copy(order), copy.deepcopy(order), pickle.loads(pickle.dumps(order))):
            assert made == order and hash(made) == hash(order)
        other = MonomialOrder(order.kind, frozenset({1}))
        assert hash(other) == hash((order.kind, frozenset({1})))

    def test_the_stored_hash_is_not_compared_or_shown(self):
        order = MonomialOrder.elimination({0, 2})
        assert repr(order) == "MonomialOrder(kind='block', block=frozenset({0, 2}))"
        assert order == MonomialOrder("block", frozenset({2, 0}))
        assert order != MonomialOrder.elimination({0}) and order != GREVLEX
        with pytest.raises(AttributeError):
            order.kind = "lex"
        with pytest.raises(AttributeError):
            order.other = 1
        with pytest.raises(AttributeError):
            del order.kind
        assert (order.kind, order.block, hash(order)) == ("block", frozenset({0, 2}), hash(("block", frozenset({0, 2}))))

    def test_an_unpickled_order_is_hashed_under_its_own_hash_seed(self):
        # a hash pickled with the order would be stale in a process with
        # another hash seed (a worker of the process pool, say)
        src = Path(__file__).resolve().parent.parent / "src"
        data = pickle.dumps(MonomialOrder.elimination({0, 2}))
        probe = (
            "import pickle, sys; "
            "o = pickle.loads(sys.stdin.buffer.read()); "
            "print(hash(o) == hash((o.kind, o.block)), o.key_function(3) is o.elimination({2, 0}).key_function(3))"
        )
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", probe], input=data, env=env, capture_output=True, check=True
            ).stdout
            assert out == b"True True\n", seed

    def test_an_unknown_kind_raises_on_every_call(self):
        order = MonomialOrder("bogus")
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown order kind 'bogus'"):
                order.key_function(2)

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({1, 3})], ids=["lex", "grevlex", "block"])
    def test_compare_agrees_with_sort_key(self, order):
        rng = random.Random(7)
        ring = PolyRing(QQ, ("a", "b", "c", "d"))
        key = ring.sort_key(order)
        for _ in range(300):
            a, b = (mono_from_pairs((i, rng.randint(0, 3)) for i in range(4)) for _ in range(2))
            assert order.compare(a, b, 4) == (key(a) > key(b)) - (key(a) < key(b)), (a, b)


def _random_monomial(rng, nvars):
    # small exponents make ties common; large ones make more monomials than a
    # key table holds
    top = 2 if rng.random() < 0.5 else 1000
    return mono_from_pairs((i, rng.randint(0, top)) for i in range(nvars))


class TestKeyTable:
    """key_function looks each key up in a table of at most KEY_TABLE_CAP keys
    per (order, nvars), built by the order's key builder on a miss."""

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({0, 2})], ids=["lex", "grevlex", "block"])
    def test_a_memoized_key_equals_a_fresh_one(self, order):
        rng = random.Random(20240915)
        for nvars in range(1, 7):
            key, build = order.key_function(nvars), order._key_builder(nvars)
            table = key.__self__
            monomials = [_random_monomial(rng, nvars) for _ in range(3 * KEY_TABLE_CAP)]
            emptied = 0
            for m in monomials + monomials:
                before = len(table)
                assert key(m) == build(m), (nvars, m)
                assert len(table) <= KEY_TABLE_CAP
                emptied += len(table) < before
            assert emptied, nvars
            assert sorted(monomials, key=key) == sorted(monomials, key=build), nvars
            for a, b in zip(monomials, reversed(monomials)):
                assert (key(a) > key(b)) - (key(a) < key(b)) == (build(a) > build(b)) - (build(a) < build(b))
                assert order.compare(a, b, nvars) == (build(a) > build(b)) - (build(a) < build(b))

    def test_a_large_row_keeps_every_table_within_the_cap(self, monkeypatch):
        from fitt.rees import ReesParams
        from fitt.verify import evaluate_params

        emptied = []
        missing = _KeyTable.__missing__

        def counted(table, m):
            if len(table) >= KEY_TABLE_CAP:
                emptied.append(table)
            return missing(table, m)

        monkeypatch.setattr(_KeyTable, "__missing__", counted)
        # a small row first, so the memos of the most recent row hold another one
        evaluate_params(ReesParams(2, 3, 1, 2, (2, 2, 1)))
        assert evaluate_params(ReesParams(2, 24, 1, 1, (2,) + (1,) * 23)).status == "pass"
        tables = [o for o in gc.get_objects() if type(o) is _KeyTable]
        assert tables and max(map(len, tables)) <= KEY_TABLE_CAP
        assert emptied


class TestRingIndex:
    def test_name_or_position(self, rxy):
        assert [rxy.index("x"), rxy.index("y"), rxy.index(0), rxy.index(1)] == [0, 1, 0, 1]

    @pytest.mark.parametrize("var", [2, -1, "z"])
    def test_unknown_name_or_position_out_of_range_raises(self, rxy, var):
        with pytest.raises(UnknownVariableError):
            rxy.index(var)

    def test_variable_and_derivative_take_positions(self, rxy):
        f = rxy.parse("x^2*y + y")
        assert rxy.variable(1) == rxy.variable("y")
        assert f.derivative(0) == f.derivative("x")
        with pytest.raises(UnknownVariableError):
            f.derivative(2)

    @pytest.mark.parametrize("var", [False, True])
    def test_a_bool_is_not_a_position(self, rxy, var):
        with pytest.raises(UnknownVariableError, match=f"unknown variable {var}"):
            rxy.index(var)
        with pytest.raises(UnknownVariableError, match=f"unknown variable {var}"):
            rxy.variable(var)
        with pytest.raises(UnknownVariableError, match=f"unknown variable {var}"):
            eliminate(Ideal(rxy, [rxy.parse("x - y")]), [var])


class TestHashConsing:
    def test_equal_rings_are_one_object(self):
        R = PolyRing(CoefficientField(0), ["x", "y"])
        assert R is PolyRing(CoefficientField(0), ("x", "y"))
        assert R.extended(["w"]) is R.extended(["w"])
        assert R.extended(["w"]) is PolyRing(QQ, "xyw")

    @pytest.mark.parametrize(
        "field, names",
        [(F5, ("x", "y")), (QQ, ("y", "x")), (QQ, ("x",)), (QQ, ("x", "y", "z"))],
        ids=["other field", "other order", "fewer names", "more names"],
    )
    def test_other_fields_or_names_give_other_rings(self, rxy, field, names):
        other = PolyRing(field, names)
        assert other is not rxy and other != rxy

    @pytest.mark.parametrize(
        "names, message",
        [(("q", "1q"), "invalid variable name"), (("q", "q"), "duplicate variable name"), ((), "at least one")],
        ids=["invalid", "duplicate", "empty"],
    )
    def test_a_refused_ring_is_refused_every_time(self, names, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                PolyRing(QQ, names)
        assert PolyRing(QQ, ("q", "q1")).variables == ("q", "q1")

    def test_rings_and_polynomials_stay_immutable(self, rxy):
        with pytest.raises(AttributeError):
            rxy.x = 1
        with pytest.raises(AttributeError):
            rxy.parse("x").terms = {}

    def test_a_separately_built_ring_is_accepted(self, rxy):
        f = PolyRing(QQ, ["x", "y"]).parse("x^2 - y")
        I = Ideal(rxy, [f, rxy.parse("y")])
        assert I.generators[0] == f
        assert reduce(f, I.generators).is_zero

    def test_hash_is_the_hash_of_field_and_names(self, rxy):
        assert hash(rxy) == hash((rxy.field, rxy.variables))


class TestPickleAndCopy:
    @pytest.mark.parametrize("roundtrip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_ring_polynomial_and_ideal_round_trip(self, rxy, roundtrip):
        f = rxy.parse("x^2 - 3/2*y")
        I = Ideal(rxy, [f, rxy.parse("x*y + 1")])
        I.groebner_basis()
        assert roundtrip(rxy) is rxy
        g = roundtrip(f)
        assert g == f and g.ring is rxy
        J = roundtrip(I)
        assert J.ring is rxy and J.generators == I.generators
        assert J.groebner_basis() == I.groebner_basis()


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
            ("x + 2\u0663", "unexpected character '\u0663'", 5),
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

    def test_names_are_exactly_the_name_tokens(self):
        """PolyRing accepts a name exactly when the tokenizer's pattern reads
        it as one name token, on every string of up to 3 characters over
        ASCII letters and digits, "_", space and four non-ASCII characters (a
        Latin letter, a titlecase letter, an Arabic-Indic digit and a Roman
        numeral)."""
        token = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<char>\S)")
        alphabet = string.ascii_letters + string.digits + "_ \u00e9\u01c5\u0663\u216b"
        for length in range(4):
            for name in map("".join, itertools.product(alphabet, repeat=length)):
                match = token.fullmatch(name)
                expected = match is not None and match.lastgroup == "name"
                # a repeated name is refused after it is checked, so no ring
                # is stored: "duplicate" means the check accepted it
                try:
                    PolyRing(QQ, (name, name))
                except ValueError as err:
                    accepted = str(err).startswith("duplicate")
                else:
                    raise AssertionError(f"a repeated name {name!r} made a ring")
                assert accepted == expected, name


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


def _random_integral(rng, nvars):
    """Up to five terms of total degree at most 4, as {exponent tuple:
    coefficient}, with nonzero integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.choice((-7, -3, -2, -1, 1, 2, 3, 5))
    return terms


def test_integral_arithmetic_matches_sympy():
    # integer operands over Q: sums, products, powers and derivatives stay on
    # int coefficients, and scaling by a Fraction mixes int with Fraction
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    cancelled = 0
    for trial in range(40):
        nvars = rng.randint(1, 3)
        names = ("x", "y", "z")[:nvars]
        ring = PolyRing(QQ, names)
        symbols = sympy.symbols(names)
        df, dg = _random_integral(rng, nvars), _random_integral(rng, nvars)
        dg.update((e, -v) for e, v in df.items() if rng.random() < 0.3)  # terms that cancel in f+g
        f, g = (ring.from_terms((mono_from_pairs(enumerate(e)), c) for e, c in d.items()) for d in (df, dg))
        F, G = (sympy.Poly.from_dict(d, *symbols, domain="QQ") for d in (df, dg))
        n = rng.choice((-3, -1, 2, 4))
        q = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(2, 4))
        e = rng.randint(0, 3)
        var = rng.randrange(nvars)
        integral = [
            ("f+g", f + g, F + G),
            ("f-g", f - g, F - G),
            ("f*g", f * g, F * G),
            ("-f", -f, -F),
            ("n*f", f.scale(n), F * n),
            ("f^e", f**e, F**e),
            ("df", f.derivative(var), F.diff(symbols[var])),
        ]
        pairs = integral + [("q*f", f.scale(q), F * sympy.sympify(q))]
        for name, ours, theirs in pairs:
            expected = {
                mono_from_pairs(enumerate(e)): QQ.normalize(Fraction(str(v)))
                for e, v in theirs.as_dict().items()
            }
            assert ours.terms == expected, (trial, name, df, dg)
        for name, ours, _ in integral:
            assert all(type(c) is int for c in ours.terms.values()), (trial, name, df, dg)
        cancelled += len((f + g).terms) < len(set(df) | set(dg))
    assert cancelled >= 3  # some sums drop a monomial, so the zero rule is exercised
