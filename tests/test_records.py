"""The record types' contract: construction, repr, equality and hashing,
immutability, pickling and copying, and validation.

Every record is built without import-time code generation: the frozen ones
are subclasses of collections.namedtuple (tuples, so equal to and hashed as
their field tuple), and the others are __slots__ classes on one base,
polyring._Fields, whose public slots are the constructor's arguments: it
pickles and copies them through the constructor and prints those fields.
Its subclass _Frozen refuses assigning and deleting on CoefficientField
(interned like PolyRing), MonomialOrder, PolyRing, Polynomial and Ideal.
The repr strings are pinned to what the records have always printed."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import fitt
from fitt.fitmod import PresentedAlgebra, PresentedModule
from fitt.groebner import Ideal
from fitt.polyring import (
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    _Fields,
    _Frozen,
    _SlotRecord,
    mono_from_pairs,
)
from fitt.properties import SuiteResult
from fitt.rees import ChartAlgebra, ReesParams
from fitt.verify import ChartCheck, NonnormalProbe, VerificationReport

F2 = CoefficientField(2)
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def _round_trips(value):
    """value pickled under every protocol, then deep- and shallow-copied."""
    return [pickle.loads(pickle.dumps(value, protocol)) for protocol in PROTOCOLS] + [
        copy.deepcopy(value),
        copy.copy(value),
    ]


@pytest.fixture
def rxy():
    return PolyRing(F2, ("x", "y"))


@pytest.fixture
def algebra(rxy):
    return PresentedAlgebra(rxy, Ideal(rxy, [rxy.parse("x^2")]))


ALGEBRA_REPR = "PresentedAlgebra(ring=F_2[x,y], relations=ideal(x^2) of F_2[x,y])"


class TestCoefficientField:
    def test_construction_by_position_and_keyword(self):
        assert CoefficientField(2) is F2
        assert CoefficientField(characteristic=2) is F2
        assert CoefficientField() is CoefficientField(0)

    def test_repr_and_str(self):
        assert repr(F2) == "CoefficientField(characteristic=2)"
        assert repr(CoefficientField(0)) == "CoefficientField(characteristic=0)"
        assert (str(F2), str(CoefficientField(0))) == ("F_2", "QQ")

    @pytest.mark.parametrize("p", [0, 2, 3, 5, 2**61 - 1])
    def test_one_field_per_characteristic_hashed_as_before(self, p):
        field = CoefficientField(p)
        assert field is CoefficientField(p) and field == CoefficientField(p)
        assert hash(field) == hash((p,))
        assert field.characteristic == p and type(field.characteristic) is int

    def test_fields_of_other_characteristics_differ(self):
        assert F2 != CoefficientField(3) and F2 != CoefficientField(0)
        assert F2 != 2 and F2 != (2,)

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            F2.characteristic = 3
        with pytest.raises(AttributeError):
            F2.other = 1
        assert F2.characteristic == 2

    @pytest.mark.parametrize("p", [0, 2, 7])
    def test_unpickles_and_copies_to_the_interned_field(self, p):
        field = CoefficientField(p)
        for other in _round_trips(field):
            assert other is field


class TestMonomialOrder:
    def test_construction_by_position_and_keyword(self):
        order = MonomialOrder("block", frozenset({0, 2}))
        assert order == MonomialOrder(kind="block", block=frozenset({2, 0})) == MonomialOrder.elimination([0, 2])
        assert (order.kind, order.block) == ("block", frozenset({0, 2}))
        assert MonomialOrder("grevlex") == GREVLEX and GREVLEX.block == frozenset()

    def test_repr(self):
        assert repr(MonomialOrder.elimination({0, 2})) == "MonomialOrder(kind='block', block=frozenset({0, 2}))"
        assert repr(GREVLEX) == "MonomialOrder(kind='grevlex', block=frozenset())"

    def test_equality_and_hash_are_those_of_kind_and_block(self):
        assert hash(GREVLEX) == hash(("grevlex", frozenset()))
        assert GREVLEX != LEX and GREVLEX != MonomialOrder("grevlex", frozenset({0}))
        # an order is not a string or a tuple, even one that names it
        assert GREVLEX != "grevlex" and GREVLEX != ("grevlex", frozenset())
        assert GREVLEX.__eq__("grevlex") is NotImplemented

    @pytest.mark.parametrize("order", [LEX, GREVLEX, MonomialOrder.elimination({0, 2})], ids=["lex", "grevlex", "block"])
    def test_pickle_and_copy_round_trips(self, order):
        for other in _round_trips(order):
            assert type(other) is MonomialOrder and other == order and hash(other) == hash(order)
            assert other.key_function(3) is order.key_function(3)


class TestReesParams:
    def test_construction_by_position_and_keyword(self):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        assert params == ReesParams(p=2, n=3, s=1, l=2, v=(2, 2, 1))
        assert (params.p, params.n, params.s, params.l, params.v) == (2, 3, 1, 2, (2, 2, 1))

    def test_repr(self):
        assert repr(ReesParams(2, 3, 1, 2, (2, 2, 1))) == "ReesParams(p=2, n=3, s=1, l=2, v=(2, 2, 1))"

    def test_equality_and_hash_are_those_of_the_field_tuple(self):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        assert hash(params) == hash((2, 3, 1, 2, (2, 2, 1)))
        assert params == (2, 3, 1, 2, (2, 2, 1))
        assert params != ReesParams(2, 3, 1, 2, (2, 4, 1))
        assert len({params, ReesParams(2, 3, 1, 2, (2, 2, 1))}) == 1

    def test_is_immutable(self):
        params = ReesParams(2, 3, 1, 2, (2, 2, 1))
        with pytest.raises(AttributeError):
            params.p = 3
        with pytest.raises(AttributeError):
            params.other = 1

    def test_pickle_and_copy_round_trips(self):
        params = ReesParams(3, 4, 2, 3, (3, 9, 1))
        for other in _round_trips(params):
            assert type(other) is ReesParams and other == params and hash(other) == hash(params)
            assert other.field is CoefficientField(3)


class TestChartCheck:
    def test_construction_repr_equality_and_hash(self):
        check = ChartCheck(1, True, 3)
        assert check == ChartCheck(r=1, equal=True, ms=3)
        assert repr(check) == "ChartCheck(r=1, equal=True, ms=3)"
        assert hash(check) == hash((1, True, 3))
        assert check != ChartCheck(1, False, 3)

    def test_is_immutable_and_round_trips(self):
        check = ChartCheck(2, False, 0)
        with pytest.raises(AttributeError):
            check.equal = True
        for other in _round_trips(check):
            assert type(other) is ChartCheck and other == check


class TestNonnormalProbe:
    def test_construction_repr_equality_and_hash(self):
        probe = NonnormalProbe(2, True, False, True)
        assert probe == NonnormalProbe(p=2, integral_witness=True, quotient_membership=False, sanity_control=True)
        assert repr(probe) == (
            "NonnormalProbe(p=2, integral_witness=True, quotient_membership=False, sanity_control=True)"
        )
        assert hash(probe) == hash((2, True, False, True))
        assert probe.nonnormal and not NonnormalProbe(2, True, True, True).nonnormal

    def test_as_dict_keeps_the_field_order(self):
        assert NonnormalProbe(3, True, False, True)._asdict() == {
            "p": 3, "integral_witness": True, "quotient_membership": False, "sanity_control": True,
        }
        assert list(NonnormalProbe(3, True, False, True)._asdict()) == [
            "p", "integral_witness", "quotient_membership", "sanity_control",
        ]

    def test_is_immutable_and_round_trips(self):
        probe = NonnormalProbe(2, True, False, True)
        with pytest.raises(AttributeError):
            probe.p = 3
        for other in _round_trips(probe):
            assert type(other) is NonnormalProbe and other == probe


class TestPresentedAlgebra:
    def test_construction_by_position_and_keyword(self, rxy, algebra):
        same = PresentedAlgebra(ring=rxy, relations=algebra.relations)
        assert same == algebra and hash(same) == hash((rxy, algebra.relations))

    def test_repr(self, algebra):
        assert repr(algebra) == ALGEBRA_REPR

    def test_relations_from_another_ring_are_refused(self, rxy, algebra):
        other = PolyRing(F2, ("z",))
        with pytest.raises(RingMismatchError, match=r"^relations live in F_2\[z\], algebra in F_2\[x,y\]$"):
            PresentedAlgebra(rxy, Ideal(other, []))
        with pytest.raises(RingMismatchError):
            PresentedAlgebra(ring=rxy, relations=Ideal(other, []))
        with pytest.raises(RingMismatchError):
            algebra._replace(relations=Ideal(other, []))
        assert algebra._replace(relations=Ideal(rxy, [])).relations.generators == ()

    def test_is_immutable(self, algebra, rxy):
        with pytest.raises(AttributeError):
            algebra.ring = rxy
        with pytest.raises(AttributeError):
            algebra.other = 1

    def test_pickle_and_copy_round_trips(self, algebra):
        for other in _round_trips(algebra):
            assert type(other) is PresentedAlgebra and repr(other) == ALGEBRA_REPR
            assert other.ring is algebra.ring
            assert other.relations.generators == algebra.relations.generators


class TestPresentedModule:
    def test_construction_by_position_and_keyword(self, rxy, algebra):
        matrix = ((rxy.variable("x"),),)
        module = PresentedModule(algebra, matrix, ("g1",))
        assert module == PresentedModule(algebra=algebra, matrix=matrix, row_labels=("g1",))
        assert hash(module) == hash((algebra, matrix, ("g1",)))
        assert (module.generator_count, module.relation_count) == (1, 1)

    def test_repr(self, rxy, algebra):
        module = PresentedModule(algebra, ((rxy.variable("x"),),), ("g1",))
        assert repr(module) == (
            f"PresentedModule(algebra={ALGEBRA_REPR}, matrix=((<x in F_2[x,y]>,),), row_labels=('g1',))"
        )

    def test_validation_errors(self, rxy, algebra):
        x, y = rxy.variable("x"), rxy.variable("y")
        with pytest.raises(ValueError, match="^ragged matrix$"):
            PresentedModule(algebra, ((x,), (x, y)), ("a", "b"))
        with pytest.raises(ValueError, match="^one label per matrix row required$"):
            PresentedModule(algebra, ((x,),), ("a", "b"))
        z = PolyRing(F2, ("z",)).variable("z")
        with pytest.raises(RingMismatchError, match=r"^matrix entry in F_2\[z\], expected F_2\[x,y\]$"):
            PresentedModule(algebra=algebra, matrix=((z,),), row_labels=("a",))
        module = PresentedModule(algebra, ((x,),), ("a",))
        with pytest.raises(ValueError, match="^one label per matrix row required$"):
            module._replace(row_labels=("a", "b"))
        assert module._replace(row_labels=("b",)).row_labels == ("b",)

    def test_is_immutable_and_round_trips(self, rxy, algebra):
        module = PresentedModule(algebra, ((rxy.variable("x"), rxy.variable("y")),), ("g1",))
        with pytest.raises(AttributeError):
            module.row_labels = ("h1",)
        for other in _round_trips(module):
            assert type(other) is PresentedModule and repr(other) == repr(module)
            assert other.matrix == module.matrix and other.algebra.ring is rxy


class TestChartAlgebra:
    def test_construction_repr_equality_and_hash(self, algebra):
        chart = ChartAlgebra(1, algebra)
        assert chart == ChartAlgebra(r=1, algebra=algebra)
        assert repr(chart) == f"ChartAlgebra(r=1, algebra={ALGEBRA_REPR})"
        assert hash(chart) == hash((1, algebra))

    def test_is_immutable_and_round_trips(self, algebra):
        chart = ChartAlgebra(1, algebra)
        with pytest.raises(AttributeError):
            chart.r = 2
        for other in _round_trips(chart):
            assert type(other) is ChartAlgebra and repr(other) == repr(chart)


def _report(**changes):
    fields = dict(params=ReesParams(2, 2, 1, 1, (2, 1)), policy="corrected", index_used=3)
    return VerificationReport(**{**fields, **changes})


class TestVerificationReport:
    def test_constructor_defaults(self):
        report = VerificationReport(ReesParams(2, 2, 1, 1, (2, 1)), "corrected", 3)
        assert report == _report(charts=[], micali_ok=None, corollary_ok=None, image_ok=None, reason=None)
        assert report.charts == [] and report.charts is not _report().charts
        assert report.status == "pass"

    def test_repr(self):
        params = "ReesParams(p=2, n=2, s=1, l=1, v=(2, 1))"
        assert repr(_report()) == (
            f"VerificationReport(params={params}, policy='corrected', index_used=3, charts=[], "
            "micali_ok=None, corollary_ok=None, image_ok=None, reason=None)"
        )
        full = VerificationReport(ReesParams(2, 2, 1, 1, (2, 1)), "corrected", 3, [ChartCheck(1, True, 0)], True,
                                  None, False, "x")
        assert repr(full) == (
            f"VerificationReport(params={params}, policy='corrected', index_used=3, "
            "charts=[ChartCheck(r=1, equal=True, ms=0)], micali_ok=True, corollary_ok=None, image_ok=False, "
            "reason='x')"
        )

    def test_equality_compares_every_field_and_the_class(self):
        assert _report() == _report()
        assert _report(charts=[ChartCheck(1, True, 0)]) != _report()
        assert _report(reason="skip") != _report()
        assert _report() != ReesParams(2, 2, 1, 1, (2, 1))

    def test_is_mutable_but_unhashable(self):
        report = _report()
        report.micali_ok = True
        report.charts.append(ChartCheck(1, False, 0))
        assert report.status == "fail"
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(AttributeError):
            report.other = 1

    def test_pickle_and_copy_round_trips(self):
        report = _report(charts=[ChartCheck(1, True, 4)], micali_ok=True, image_ok=False, reason="x")
        for other in _round_trips(report):
            assert type(other) is VerificationReport and other == report
        assert copy.deepcopy(report).charts is not report.charts


class TestSuiteResult:
    def test_constructor_defaults_and_repr(self):
        result = SuiteResult("s")
        assert result == SuiteResult(name="s", trials=0, failures=0, notes=[])
        assert repr(result) == "SuiteResult(name='s', trials=0, failures=0, notes=[])"
        assert repr(SuiteResult("s", 2, 1, ["a"])) == "SuiteResult(name='s', trials=2, failures=1, notes=['a'])"
        assert result.notes is not SuiteResult("s").notes

    def test_check_counts_and_keeps_three_notes(self):
        result = SuiteResult("s")
        for i in range(5):
            result.check(i == 0, lambda i=i: f"trial {i}")
        assert result == SuiteResult("s", 5, 4, ["trial 1", "trial 2", "trial 3"])

    def test_is_mutable_but_unhashable(self):
        result = SuiteResult("s")
        result.trials = 3
        assert result != SuiteResult("s")
        with pytest.raises(TypeError):
            hash(result)
        with pytest.raises(AttributeError):
            result.other = 1

    def test_pickle_and_copy_round_trips(self):
        result = SuiteResult("s", 2, 1, ["a"])
        for other in _round_trips(result):
            assert type(other) is SuiteResult and other == result


def _fitt_classes():
    for info in pkgutil.iter_modules(fitt.__path__, "fitt."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_no_fitt_class_is_a_dataclass():
    """Dataclasses generate and compile their methods at every import; fitt's
    records are written out instead, so its cold start stays short."""
    classes = set(_fitt_classes())
    assert {ReesParams, VerificationReport, SuiteResult, CoefficientField, MonomialOrder} <= classes
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def _fields_subclasses():
    return {cls for cls in _fitt_classes() if issubclass(cls, _Fields)} - {_Fields, _Frozen, _SlotRecord}


def test_the_public_slots_are_the_leading_constructor_parameters():
    """_Fields rebuilds and prints a value from the slots without a leading
    underscore, so they must be the constructor's arguments, in order."""
    classes = _fields_subclasses()
    assert {cls.__name__ for cls in classes} == {
        "CoefficientField", "MonomialOrder", "PolyRing", "Polynomial", "Ideal", "VerificationReport", "SuiteResult",
    }
    for cls in classes:
        public = [name for name in cls.__slots__ if name[0] != "_"]
        assert list(inspect.signature(cls).parameters)[: len(public)] == public, cls


F7 = CoefficientField(7)
R7 = PolyRing(F7, ("x", "y"))
VALUES = [
    F7,
    MonomialOrder.elimination({0, 2}),
    R7,
    R7.parse("x^2 - 3*y"),
    Ideal(R7, [R7.parse("x^2"), R7.parse("x*y - 1")]),
    VerificationReport(ReesParams(2, 2, 1, 1, (2, 1)), "corrected", 3, [ChartCheck(1, True, 0)], True),
    SuiteResult("s", 2, 1, ["a"]),
]


def test_every_fields_subclass_has_a_value_here():
    assert {type(value) for value in VALUES} == _fields_subclasses()


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_the_constructor_rebuilds_a_value_from_its_reduce(value):
    cls, args = value.__reduce__()
    rebuilt = cls(*args)
    assert cls is type(value) and rebuilt.__reduce__() == (cls, args)
    if cls is Ideal:  # an ideal equals only itself, so compare what rebuilds it
        assert rebuilt.generators == value.generators and rebuilt.ring is value.ring
    else:
        assert rebuilt == value
    if cls in (CoefficientField, PolyRing):
        assert rebuilt is value


@pytest.mark.parametrize(
    "value", [value for value in VALUES if isinstance(value, _Frozen)], ids=lambda value: type(value).__name__
)
def test_a_value_refuses_deleting_any_attribute(value):
    for name in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, name)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    # the interned field and ring, and everything built on them, still work
    assert CoefficientField(7) is F7 and repr(F7) == "CoefficientField(characteristic=7)"
    assert PolyRing(F7, ("x", "y")) is R7 and repr(R7) == "F_7[x,y]" and R7.index("y") == 1
    f = R7.parse("x^2 - 3*y")
    assert str(f * f) == "x^4 + x^2*y + 2*y^2" and f.leading_term() == (mono_from_pairs(((0, 2),)), 1)
    assert Ideal(R7, [f]).is_unit() is False and hash(f) == hash(R7.parse("x^2 + 4*y"))
