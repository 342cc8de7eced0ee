"""Exact sparse multivariate polynomials over the rationals or a prime field.

A monomial is an int: variable i's exponent is its field of 32 bits at bit
32*i, whose top bit, the guard bit, is clear.  Two exponents at most
EXPONENT_CAP = 2^31 - 1 sum below 2^32, so a product a + b never carries into
the next field, and a sum above the cap sets a guard bit.  A quotient is
b - a, and a divides b exactly when b - a is not negative and sets no guard
bit, as a field that borrows sets its own.  The masks GUARDS and _VALUES
cover the fields of every ring and mono_from_pairs monomial made so far.
mono_from_pairs is the one constructor and mono_pairs the one reader of
(index, exponent) pairs.  Coefficients are Python ints reduced mod p.  Over
Q, CoefficientField makes an integral value a plain int and any other a
Fraction in lowest terms; sums and products then follow Python's numeric
tower, which is exact, and 3 and Fraction(3) compare, hash and print alike.
One base, _Frozen, refuses assigning or deleting any attribute of a field,
order, ring, polynomial or ideal, and its base _Fields pickles and copies
every hand-written class of fitt through its constructor.  Polynomial.terms
and an ideal's _gb and _sat caches are plain dicts, only treated as
immutable: fitt never mutates one after construction, and callers must not
(a changed terms map leaves a stale hash memo).  Every hot path reads them,
so no read-only view wraps them.

Rings and fields are hash-consed in the module tables _RINGS and _FIELDS:
building one equal to one built before returns that same object, so equality
is identity and costs no Python call.  The tables are filled by setdefault,
so concurrent builders share one object, and they never evict an entry.

MonomialOrder.key_function makes one key function per (order, nvars), kept
by functools.cache and shared by every ring and by compare.  It is the
lookup of a _KeyTable, which builds each monomial's key once, since a hit is
cheaper than even the packed grevlex key, and empties itself at
KEY_TABLE_CAP keys.  Concurrent fills are safe: equal keys are equal values.

add_terms is the one place coefficient sums are made: every sum of term maps,
here and in the Groebner layer, goes through it, so the field arithmetic and
the rule that a map holds no zero coefficient live in that function alone.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

EXPONENT_CAP = 2**31 - 1
# Variable i's exponent is the field of FIELD_BITS bits at bit FIELD_BITS*i of
# a monomial, whose top bit is the field's guard bit (see the module docstring).
FIELD_BITS = 32
_FIELD = 2**FIELD_BITS - 1
# A divisor of 2^32 - 1 below 2^30, so CPython divides by it as one digit.
_DEGREE_MODULUS = _FIELD // 5
# The most sort keys one (order, nvars) keeps (see _KeyTable); it bounds the
# memory of large rows, which build thousands of keys.
KEY_TABLE_CAP = 256
MACHINE_WORD = 2**63

Coeff = Union[int, Fraction]
Monomial = int

ONE_MONOMIAL: Monomial = 0


class PolyError(Exception):
    """Base class for errors raised by the polynomial layer."""


class RingMismatchError(PolyError):
    """Operands live in different rings."""


class UnknownVariableError(PolyError):
    """A variable name is not part of the ring."""


class ExponentOverflowError(PolyError):
    """An exponent exceeded the hard cap (no wraparound, ever)."""


class FieldDivisionError(PolyError, ZeroDivisionError):
    """Inversion of zero, or of a residue that is zero mod p."""


class ParseError(PolyError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all machine-word integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(q: Fraction) -> Coeff:
    return q.numerator if q.denominator == 1 else q


def _as_int(value: int) -> int:
    if isinstance(value, int):  # an int, a bool, or another subclass of int
        return int(value)
    raise TypeError(f"a numerator or denominator must be an int, not {type(value).__name__}")


class _Fields:
    """Base of fitt's hand-written classes.  The __slots__ without a leading
    underscore are the constructor's arguments, in order; the others hold
    what the constructor derives.  A value pickles and copies through its
    constructor, so an interned field or ring comes back as the interned one
    and a stored hash is taken again under the receiving process's hash
    seed, and it prints as Name(field=value, ...)."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"


class _Frozen(_Fields):
    """Base of the values: assigning or deleting any attribute raises
    AttributeError, so constructors store through object.__setattr__ or a
    slot's own setter."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class _SlotRecord(_Fields):
    """Base of the mutable records: equality compares a record's class and
    fields, and a record is unhashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()


# Every field ever built, keyed by characteristic.
_FIELDS: dict[int, "CoefficientField"] = {}


class CoefficientField(_Frozen):
    """The rationals (characteristic 0) or a prime field F_p.

    Over Q every element it makes that is an integer is an int, and any other
    a Fraction in lowest terms: int arithmetic is exact and much faster.
    CoefficientField(p) returns the one field of _FIELDS for p, so equality
    is identity; the characteristic must be an int, and a bool raises
    TypeError."""

    __slots__ = ("characteristic",)

    def __new__(cls, characteristic: int = 0) -> "CoefficientField":
        p = characteristic
        if not isinstance(p, int) or isinstance(p, bool):  # a bool is an int
            raise TypeError(f"a characteristic must be an int, not {type(p).__name__}")
        field = _FIELDS.get(p)
        if field is not None:
            return field
        if p >= MACHINE_WORD:
            raise ValueError(f"characteristic {p} does not fit a machine word")
        if p and not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        field = object.__new__(cls)
        object.__setattr__(field, "characteristic", int(p))
        return _FIELDS.setdefault(p, field)

    def __hash__(self) -> int:
        return hash((self.characteristic,))

    def normalize(self, value: Union[int, Fraction]) -> Coeff:
        """The field element of an int or a Fraction; any other type raises
        TypeError."""
        p = self.characteristic
        if type(value) is int:
            return value % p if p else value
        if isinstance(value, Fraction):
            return self.of(value.numerator, value.denominator) if p else _rational(value)
        if isinstance(value, int):  # a bool, or another subclass of int
            return self.normalize(int(value))
        raise TypeError(f"a coefficient must be an int or a Fraction, not {type(value).__name__}")

    def of(self, numerator: int, denominator: int = 1) -> Coeff:
        """Build a field element from an integer fraction.  A bool counts as
        an int; any other type raises TypeError."""
        if type(numerator) is not int or type(denominator) is not int:
            numerator, denominator = _as_int(numerator), _as_int(denominator)
        p = self.characteristic
        if p:
            den = denominator % p
            if den == 0:
                raise FieldDivisionError(
                    f"denominator {denominator} is not invertible mod {p}"
                )
            return numerator * pow(den, -1, p) % p
        if denominator == 0:
            raise FieldDivisionError("zero denominator")
        return _rational(Fraction(numerator, denominator))

    def inverse(self, a: Coeff) -> Coeff:
        """The inverse of a nonzero element; 1, the monic divisors' leading
        coefficient, is its own inverse and costs one comparison."""
        p = self.characteristic
        if p:
            a = a % p
        if a == 1:
            return 1
        if a == 0:
            raise FieldDivisionError(f"0 has no inverse in F_{p}" if p else "0 has no inverse in Q")
        return pow(a, -1, p) if p else _rational(1 / Fraction(a))

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"F_{self.characteristic}"


def field_inverse(a: Coeff, field: CoefficientField) -> Coeff:
    """Multiplicative inverse of a nonzero field element."""
    return field.inverse(a)


# ---------------------------------------------------------------------------
# Monomials


def _cover(n: int) -> None:
    """Widen GUARDS, _VALUES and _LARGE_EXPONENTS to n fields."""
    global _covered, GUARDS, _VALUES, _LARGE_EXPONENTS
    GUARDS = int.from_bytes(b"\0\0\0\x80" * n, "little")
    _VALUES = GUARDS - (GUARDS >> (FIELD_BITS - 1))
    # with every exponent below 2^k, a degree is below _DEGREE_MODULUS
    k = max(0, (_DEGREE_MODULUS // n).bit_length() - 1)
    _LARGE_EXPONENTS = GUARDS - (GUARDS >> (FIELD_BITS - 1 - k))
    _covered = n


_cover(8)


def _overflow(m: Monomial):
    """Raise the overflow of a sum with a guard bit set, naming its first
    exponent above the cap."""
    exp = next(e for _, e in mono_pairs(m) if e > EXPONENT_CAP)
    raise ExponentOverflowError(f"exponent {exp} exceeds cap {EXPONENT_CAP}")


def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """The monomial of (index, exponent) pairs; the exponents of a repeated
    index add up."""
    acc: dict[int, int] = {}
    for idx, exp in pairs:
        if exp < 0 or idx < 0:
            raise ValueError(f"negative exponent {exp} or variable index {idx}")
        acc[idx] = acc.get(idx, 0) + exp
    m = 0
    for idx, exp in sorted(acc.items()):
        if exp > EXPONENT_CAP:
            raise ExponentOverflowError(f"exponent {exp} exceeds cap {EXPONENT_CAP}")
        m |= exp << (FIELD_BITS * idx)
    if m >> (FIELD_BITS * _covered):
        _cover(max(acc) + 1)
    return m


def mono_pairs(m: Monomial) -> list[tuple[int, int]]:
    """The (index, exponent) pairs of m's nonzero exponents, by index."""
    pairs, idx = [], 0
    while m:
        exp = m & _FIELD
        if exp:
            pairs.append((idx, exp))
            m >>= FIELD_BITS
            idx += 1
        else:  # one shift past the zero fields below the lowest set bit
            skip = ((m & -m).bit_length() - 1) // FIELD_BITS
            m >>= FIELD_BITS * skip
            idx += skip
    return pairs


def mono_degree(m: Monomial) -> int:
    """The sum of m's fields, which is m mod a divisor of 2^32 - 1 while no
    exponent is large."""
    if m & _LARGE_EXPONENTS:
        return sum(e for _, e in mono_pairs(m))
    return m % _DEGREE_MODULUS


def mono_exponent(m: Monomial, var: int) -> int:
    return m >> (FIELD_BITS * var) & _FIELD


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    m = a + b
    if m & GUARDS:
        _overflow(m)
    return m


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b."""
    d = b - a
    return d >= 0 and not d & GUARDS


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """Quotient b / a; requires a | b."""
    return b - a


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    # a field of (a | GUARDS) - b keeps its guard bit exactly when a's exponent
    # is at least b's, and ge - (ge >> 31) is then that field's value bits
    ge = ((a | GUARDS) - b) & GUARDS
    return b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))


def mono_support(m: Monomial) -> int:
    """The guard bits of m's nonzero fields, as adding 2^31 - 1 sets them:
    coprime monomials have disjoint supports, and a divisor's support lies in
    its multiple's."""
    return (m + _VALUES) & GUARDS


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder(_Frozen):
    """A multiplicative well-order on monomials (1 minimal).

    kind is "lex" (earlier variables larger), "grevlex", or "block": the
    elimination block is compared first (lex among the block variables), ties
    broken by grevlex on the remaining variables.  Orders are immutable,
    equal when kind and block are, and hashed as (kind, block).
    """

    # _hash is taken once: every key_function lookup hashes the order
    __slots__ = ("kind", "block", "_hash")

    def __init__(self, kind: str, block: frozenset[int] = frozenset()) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "_hash", hash((kind, block)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.block == other.block

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def elimination(block: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("block", frozenset(block))

    @functools.cache
    def key_function(self, nvars: int):
        """The sort key of a monomial in nvars variables; bigger key = bigger
        monomial.  Made once per (order, nvars): the bound lookup of a
        _KeyTable, so a key already built costs one dict lookup in C."""
        return _KeyTable(self._key_builder(nvars)).__getitem__

    def _key_builder(self, nvars: int):
        """A function that builds a monomial's sort key afresh."""
        if self.kind == "lex":
            return _fields_reversed(range(nvars))
        if self.kind == "grevlex":
            # on equal degrees the smaller m, compared from the last
            # variable's field down, is the larger monomial
            shift = FIELD_BITS * nvars
            return lambda m: (mono_degree(m) << shift) - m
        if self.kind == "block":
            # on equal block exponents, grevlex on whole monomials orders as on
            # their non-block parts: both degrees shift alike, block entries tie
            block, grevlex = _fields_reversed(sorted(self.block)), GREVLEX.key_function(nvars)
            return lambda m: (block(m), grevlex(m))
        raise ValueError(f"unknown order kind {self.kind!r}")

    def compare(self, a: Monomial, b: Monomial, nvars: int) -> int:
        ka = self.key_function(nvars)
        x, y = ka(a), ka(b)
        return (x > y) - (x < y)


def _fields_reversed(variables: Sequence[int]):
    """A key that compares the exponents of variables, ascending, in lex
    order: their fields packed in reverse, the first variable's on top."""
    top = FIELD_BITS * (len(variables) - 1)
    shifts = {v: top - FIELD_BITS * i for i, v in enumerate(variables)}

    def key(m: Monomial) -> int:
        k = 0
        for idx, exp in mono_pairs(m):
            if idx in shifts:
                k |= exp << shifts[idx]
        return k
    return key


class _KeyTable(dict):
    """The sort keys of one (order, nvars), by monomial.  A missing key is
    built and stored; a table that holds KEY_TABLE_CAP keys is emptied
    first, so it never holds more."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, m: Monomial):
        if len(self) >= KEY_TABLE_CAP:
            self.clear()
        key = self[m] = self.build(m)
        return key


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# Term maps


def add_terms(
    out: dict[Monomial, Coeff],
    a: Coeff,
    shift: Monomial,
    terms: Mapping[Monomial, Coeff],
    field: CoefficientField,
) -> dict[Monomial, Coeff]:
    """out += a * x^shift * terms, in place, and return out.  a and the
    coefficients are field elements, a nonzero.  Sums and products are reduced
    mod p, or exact over Q with an integral one an int (_rational); a zero sum
    is removed.  a = 1 multiplies nothing, and a new monomial takes c as is."""
    p = field.characteristic
    get = out.get
    guards = GUARDS
    scaled = a != 1
    for m, c in terms.items():
        if shift:
            m += shift
            if m & guards:
                _overflow(m)
        if scaled:
            c = a * c
        v = get(m)
        if v is not None:
            c += v
        elif not scaled:
            out[m] = c
            continue
        if p:
            c %= p
        elif c.__class__ is Fraction and c.denominator == 1:
            c = c.numerator
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


# ---------------------------------------------------------------------------
# Rings and polynomials

# The tokens of polynomial text: an ASCII integer, a name, or any other single
# non-space character; finditer skips whitespace.  re compiles it at first use.
_TOKEN = r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<char>\S)"


# Every ring ever built, keyed by (characteristic, variable names).
_RINGS: dict[tuple[int, tuple[str, ...]], "PolyRing"] = {}


class PolyRing(_Frozen):
    """A polynomial ring: a coefficient field plus an ordered variable list.

    PolyRing(field, variables) returns the one ring of _RINGS for that
    characteristic and those names (see the module docstring).  Names are
    validated only when a ring is first made, and a refused construction
    stores nothing.  No entry is evicted, since dropping a live ring would
    break identity equality."""

    # _outside: the bits no monomial of the ring sets, all above its fields too
    __slots__ = ("field", "variables", "_index", "_hash", "_outside")

    def __new__(cls, field: CoefficientField, variables: Iterable[str]) -> "PolyRing":
        names = tuple(variables)
        key = (field.characteristic, names)
        ring = _RINGS.get(key)
        if ring is not None:
            return ring
        if not names:
            raise ValueError("a ring needs at least one variable")
        seen = set()
        for name in names:
            # exactly the strings that are one "name" token of _TOKEN
            if not (name.isascii() and name.isalnum() and name[:1].isalpha()):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        ring = object.__new__(cls)
        object.__setattr__(ring, "field", field)
        object.__setattr__(ring, "variables", names)
        object.__setattr__(ring, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(ring, "_hash", hash((field, names)))
        if len(names) > _covered:
            _cover(len(names))
        width = 1 << (FIELD_BITS * len(names))
        object.__setattr__(ring, "_outside", (GUARDS & (width - 1)) - width)
        return _RINGS.setdefault(key, ring)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, var: Union[str, int]) -> int:
        """The position of a variable given by name or by position; an unknown
        name, a position out of range or a bool raises UnknownVariableError."""
        if isinstance(var, int) and not isinstance(var, bool):
            if 0 <= var < self.nvars:
                return var
            raise UnknownVariableError(f"variable index {var} out of range in {self}")
        try:
            return self._index[var]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {var!r} in {self}") from None

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.field}[{','.join(self.variables)}]"

    def sort_key(self, order: MonomialOrder):
        return order.key_function(len(self.variables))

    # construction helpers

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Union[int, Fraction]) -> "Polynomial":
        c = self.field.normalize(c)
        return Polynomial(self, {ONE_MONOMIAL: c} if c else {})

    def variable(self, var: Union[str, int]) -> "Polynomial":
        return Polynomial(self, {1 << (FIELD_BITS * self.index(var)): self.field.normalize(1)})

    def term(self, coeff: Union[int, Fraction], mono: Monomial) -> "Polynomial":
        return self.from_terms(((mono, coeff),))

    def from_terms(self, pairs: Iterable[tuple[Monomial, Union[int, Fraction]]]) -> "Polynomial":
        acc: dict[Monomial, Coeff] = {}
        f = self.field
        for mono, coeff in pairs:
            if type(mono) is not int or mono & self._outside:
                if type(mono) is not int:
                    raise TypeError(f"a monomial is an int, not {type(mono).__name__}; see mono_from_pairs")
                if mono < 0 or mono >> (FIELD_BITS * self.nvars):
                    raise ValueError(f"{mono} is not a monomial in the {self.nvars} variables of {self}")
                _overflow(mono)
            c = f.normalize(coeff)
            if mono in acc:  # a repeated monomial's sum is made by add_terms
                add_terms(acc, 1, ONE_MONOMIAL, {mono: c}, f)
            elif c:
                acc[mono] = c
        return Polynomial(self, acc)

    def extended(self, extra: Iterable[str]) -> "PolyRing":
        return PolyRing(self.field, self.variables + tuple(extra))

    def fresh_name(self, base: str) -> str:
        if base not in self._index:
            return base
        k = 1
        while f"{base}{k}" in self._index:
            k += 1
        return f"{base}{k}"

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)


class Polynomial(_Frozen):
    """Immutable sparse polynomial: a map from monomials to nonzero coefficients.

    The leading monomial of the last order asked for is memoized as
    (order, monomial); a query under another order rescans the terms.  scale,
    and so monic, hands the memo on: a unit multiple keeps every monomial."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Coeff]):
        _set_ring(self, ring)
        _set_terms(self, terms)
        _set_hash(self, None)
        _set_lead(self, None)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_constant(self) -> bool:
        return len(self.terms) == 1 and ONE_MONOMIAL in self.terms

    def _check(self, other: "Polynomial") -> None:
        try:
            if self.ring is other.ring:
                return
        except AttributeError:
            raise TypeError(
                f"a polynomial cannot be combined with {type(other).__name__}; use ring.constant(...)"
            ) from None
        raise RingMismatchError(f"operands in {self.ring} and {other.ring}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.ring is other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, add_terms(dict(self.terms), 1, ONE_MONOMIAL, other.terms, self.ring.field))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, add_terms(dict(self.terms), -1, ONE_MONOMIAL, other.terms, self.ring.field))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, add_terms({}, -1, ONE_MONOMIAL, self.terms, self.ring.field))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        field = self.ring.field
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            add_terms(out, c, m, other.terms, field)
        return Polynomial(self.ring, out)

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or isinstance(e, bool):  # a bool is an int
            raise TypeError(f"a polynomial power must be an int, not {type(e).__name__}")
        if e < 0:
            raise ValueError("negative polynomial power")
        if not e:
            return self.ring.one()
        if len(self.terms) == 1:
            # a single term: (c*m)^e = c^e * m^e, with no repeated squaring
            ((m, c),) = self.terms.items()
            p = self.ring.field.characteristic
            mono = mono_from_pairs((idx, exp * e) for idx, exp in mono_pairs(m))
            return Polynomial(self.ring, {mono: pow(c, e, p) if p else c**e})
        result = None  # square and multiply, starting at the lowest power taken
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def scale(self, c: Union[int, Fraction]) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if not c:
            return self.ring.zero()
        out = Polynomial(self.ring, add_terms({}, c, ONE_MONOMIAL, self.terms, field))
        _set_lead(out, self._lead)  # a unit multiple keeps every monomial
        return out

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, Coeff]:
        lead = self._lead
        if lead is not None and (lead[0] is order or lead[0] == order):
            m = lead[1]
        else:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = max(self.terms, key=order.key_function(len(self.ring.variables)))
            _set_lead(self, (order, m))
        return m, self.terms[m]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        if c == 1:
            return self
        return self.scale(self.ring.field.inverse(c))

    def derivative(self, var: Union[str, int]) -> "Polynomial":
        """Formal partial derivative; exponents divisible by p contribute 0."""
        ring = self.ring
        idx = ring.index(var)
        fld = ring.field
        x = 1 << (FIELD_BITS * idx)
        out: dict[Monomial, Coeff] = {}
        # m -> m/x is one-to-one on the terms kept, so nothing accumulates
        for m, c in self.terms.items():
            e = mono_exponent(m, idx)
            if e:
                coeff = fld.normalize(c * e)
                if coeff:
                    out[m - x] = coeff
        return Polynomial(ring, out)

    def transport(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in another ring, matching variables by name; a variable
        the target lacks raises UnknownVariableError."""
        if target is self.ring:
            return self
        if target.field != self.ring.field:
            raise RingMismatchError(f"cannot transport between {self.ring.field} and {target.field}")
        names = self.ring.variables
        common = min(len(names), target.nvars)
        if names[:common] == target.variables[:common] and not any(map(target._outside.__and__, self.terms)):
            # every variable used keeps its index, so every monomial its int
            return Polynomial(target, self.terms)
        shifts = {}
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            moved = 0
            for idx, exp in mono_pairs(m):
                shift = shifts.get(idx)
                if shift is None:
                    shift = shifts[idx] = FIELD_BITS * target.index(names[idx])
                moved |= exp << shift
            out[moved] = c
        return Polynomial(target, out)

    def substitute(self, target: PolyRing, mapping: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism: each variable goes to its image (identity by name
        for unmapped variables, which must exist in the target)."""
        if target.field != self.ring.field:
            raise RingMismatchError(f"cannot substitute between {self.ring.field} and {target.field}")
        for name, img in mapping.items():
            if img.ring is not target:
                raise RingMismatchError(f"image of {name!r} lives in {img.ring}, not {target}")
        names = self.ring.variables
        field = target.field
        # each image power, by (index, exponent)
        powers: dict[tuple[int, int], Polynomial] = {}
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            term = None
            for idx, exp in mono_pairs(m):
                power = powers.get((idx, exp))
                if power is None:
                    img = mapping.get(names[idx]) or target.variable(names[idx])
                    power = powers[idx, exp] = img ** exp
                term = power if term is None else term * power
            add_terms(out, c, ONE_MONOMIAL, {ONE_MONOMIAL: 1} if term is None else term.terms, field)
        return Polynomial(target, out)

    def __str__(self) -> str:
        return print_polynomial(self)

    def __repr__(self) -> str:
        return f"<{print_polynomial(self)} in {self.ring}>"


# The slots' own setters, which store past the __setattr__ that refuses
# writes from outside; cheaper than object.__setattr__ on every polynomial.
_set_ring = Polynomial.ring.__set__
_set_terms = Polynomial.terms.__set__
_set_hash = Polynomial._hash.__set__
_set_lead = Polynomial._lead.__set__


# ---------------------------------------------------------------------------
# Printing

def print_polynomial(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Terms in descending monomial order; output re-parses to the same polynomial."""
    if f.is_zero:
        return "0"
    names = f.ring.variables
    pieces: list[str] = []
    for m in sorted(f.terms, key=f.ring.sort_key(order), reverse=True):
        c = f.terms[m]  # prime-field residues are never negative
        neg, mag = c < 0, str(abs(c))
        monom = "*".join(names[idx] if exp == 1 else f"{names[idx]}^{exp}" for idx, exp in mono_pairs(m))
        body = mag if not monom else monom if mag == "1" else f"{mag}*{monom}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Parsing

def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar::

        poly  := term (("+"|"-") term)*
        term  := ["+"|"-"] (coeff ["*" monom] | monom)
        coeff := uint ["/" uint]
        monom := factor ("*" factor)*
        factor:= name ["^" uint]

    A name is an ASCII letter followed by ASCII letters or digits, and an
    integer is a run of ASCII digits.  Whitespace is insignificant;
    coefficients are reduced into the field.  A ParseError carries the
    position in text where reading failed, len(text) if the input ended.
    """
    tokens = [(m.start(), m.lastgroup, m.group()) for m in re.finditer(_TOKEN, text)]
    tokens.append((len(text), None, ""))
    fld = ring.field
    at = 0

    def take(ch: str) -> bool:
        nonlocal at
        if tokens[at][2] != ch:
            return False
        at += 1
        return True

    def expect(kind: str, message: str) -> tuple[int, str]:
        nonlocal at
        pos, got, tok = tokens[at]
        if got != kind:
            raise ParseError(message, pos)
        at += 1
        return pos, tok

    def integer() -> int:
        pos, tok = expect("int", "expected an integer")
        try:
            return int(tok)
        except ValueError as err:  # a token past the interpreter's digit limit
            raise ParseError(str(err), pos) from None

    def parse_monomial() -> Monomial:
        mono = ONE_MONOMIAL
        while True:
            pos, name = expect("name", "expected an identifier")
            try:
                idx = ring.index(name)
            except UnknownVariableError:
                raise ParseError(f"unknown variable {name!r}", pos) from None
            exp = integer() if take("^") else 1
            mono = mono_mul(mono, mono_from_pairs(((idx, exp),)))
            if not take("*"):
                return mono

    def parse_term(sign: int) -> tuple[Monomial, Coeff]:
        nonlocal at
        pos, _, tok = tokens[at]
        if tok in ("+", "-"):
            at += 1
            sign = -sign if tok == "-" else sign
        _, kind, tok = tokens[at]
        if kind == "int":
            num = integer()
            if take("/"):
                den_pos = tokens[at - 1][0] + 1
                den = integer()
                try:
                    coeff = fld.of(num, den)
                except FieldDivisionError as err:
                    raise ParseError(str(err), den_pos) from None
            else:
                coeff = fld.normalize(num)
            mono = parse_monomial() if take("*") else ONE_MONOMIAL
            return mono, coeff if sign > 0 else -coeff
        if kind == "name":
            return parse_monomial(), sign
        raise ParseError("expected a term", pos)

    if len(tokens) == 1:
        raise ParseError("empty input", len(text))
    # the terms' (monomial, coefficient) pairs, summed by one from_terms
    pairs = [parse_term(1)]
    while True:
        pos, kind, tok = tokens[at]
        if kind is None:
            return ring.from_terms(pairs)
        if tok not in ("+", "-"):
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
        at += 1
        pairs.append(parse_term(1 if tok == "+" else -1))
