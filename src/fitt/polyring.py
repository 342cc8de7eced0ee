"""Exact sparse multivariate polynomials over the rationals or a prime field.

Monomials are canonical tuples of (variable-index, exponent) pairs, sorted by
index and free of zero exponents, so they hash and compare at C speed.
Coefficients are Python ints reduced mod p.  Over Q, CoefficientField makes an
integral value a plain int and any other a Fraction in lowest terms; sums and
products then follow Python's numeric tower, which is exact, and 3 and
Fraction(3) compare, hash and print alike.  Everything is immutable after
construction.

Rings and fields are hash-consed in the module tables _RINGS and _FIELDS:
building one equal to one built before returns that same object, so equality
is identity and costs no Python call.  The tables are filled by setdefault,
so concurrent builders share one object, and they never evict an entry; the
ring table grows with the number of distinct rings a process builds.

MonomialOrder.key_function builds each sort key once per (order, nvars), in a
functools.cache table shared by every ring and by compare; concurrent fills
are safe, since equal keys are equal functions, and no entry is evicted.

add_terms is the one place coefficient sums are made: every sum of term maps,
here and in the Groebner layer, goes through it, so the field arithmetic and
the rule that a map holds no zero coefficient live in that function alone.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

EXPONENT_CAP = 2**31 - 1
MACHINE_WORD = 2**63

Coeff = Union[int, Fraction]
Monomial = tuple[tuple[int, int], ...]

ONE_MONOMIAL: Monomial = ()


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


# Every field ever built, keyed by characteristic.
_FIELDS: dict[int, "CoefficientField"] = {}


class CoefficientField:
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

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientField is immutable")

    def __hash__(self) -> int:
        return hash((self.characteristic,))

    def __reduce__(self):
        return CoefficientField, (self.characteristic,)

    def __repr__(self) -> str:
        return f"CoefficientField(characteristic={self.characteristic})"

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
                raise FieldDivisionError(f"0 has no inverse in F_{p}")
            return pow(a, -1, p)
        if a == 1:
            return 1
        if a == 0:
            raise FieldDivisionError("0 has no inverse in Q")
        return _rational(1 / Fraction(a))

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"F_{self.characteristic}"


class _SlotRecord:
    """Base of the mutable records: the fields are the __slots__, equality
    compares a record's class and fields, a record is unhashable, and it
    pickles and copies through its constructor."""

    __slots__ = ()
    __hash__ = None

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def field_inverse(a: Coeff, field: CoefficientField) -> Coeff:
    """Multiplicative inverse of a nonzero field element."""
    return field.inverse(a)


# ---------------------------------------------------------------------------
# Monomials


def mono_from_pairs(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """Canonicalize (index, exponent) pairs: sort, merge, drop zeros."""
    acc: dict[int, int] = {}
    for idx, exp in pairs:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for variable index {idx}")
        if exp:
            acc[idx] = acc.get(idx, 0) + exp
    out = tuple(sorted(acc.items()))
    for _, exp in out:
        if exp > EXPONENT_CAP:
            raise ExponentOverflowError(f"exponent {exp} exceeds cap {EXPONENT_CAP}")
    return out


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_exponent(m: Monomial, var: int) -> int:
    for idx, exp in m:
        if idx == var:
            return exp
        if idx > var:
            return 0
    return 0


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ai, ae = a[i]
        bj, be = b[j]
        if ai == bj:
            e = ae + be
            if e > EXPONENT_CAP:
                raise ExponentOverflowError(f"exponent {e} exceeds cap {EXPONENT_CAP}")
            out.append((ai, e))
            i += 1
            j += 1
        elif ai < bj:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b."""
    i = 0
    for idx, exp in a:
        while i < len(b) and b[i][0] < idx:
            i += 1
        if i == len(b) or b[i][0] != idx or b[i][1] < exp:
            return False
        i += 1
    return True


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """Quotient b / a; requires a | b."""
    out = []
    i = 0
    for idx, exp in b:
        if i < len(a) and a[i][0] == idx:
            e = exp - a[i][1]
            if e < 0:
                raise ValueError("monomial does not divide")
            if e:
                out.append((idx, e))
            i += 1
        else:
            out.append((idx, exp))
    if i != len(a):
        raise ValueError("monomial does not divide")
    return tuple(out)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ai, ae = a[i]
        bj, be = b[j]
        if ai == bj:
            out.append((ai, ae if ae >= be else be))
            i += 1
            j += 1
        elif ai < bj:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] == b[j][0]:
            return False
        if a[i][0] < b[j][0]:
            i += 1
        else:
            j += 1
    return True


# ---------------------------------------------------------------------------
# Monomial orders


class MonomialOrder:
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

    def __setattr__(self, name, value=None):
        raise AttributeError("MonomialOrder is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.block == other.block

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MonomialOrder(kind={self.kind!r}, block={self.block!r})"

    def __reduce__(self):
        # rebuilt through the constructor, so the hash is taken again under
        # the receiving process's hash seed
        return MonomialOrder, (self.kind, self.block)

    @staticmethod
    def elimination(block: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("block", frozenset(block))

    @functools.cache
    def key_function(self, nvars: int):
        """Sort key builder, run once per (order, nvars); bigger key = bigger monomial."""
        if self.kind == "lex":
            def key(m: Monomial) -> tuple:
                dense = [0] * nvars
                for idx, exp in m:
                    dense[idx] = exp
                return tuple(dense)
            return key
        if self.kind == "grevlex":
            def key(m: Monomial) -> tuple:
                dense = [0] * nvars
                deg = 0
                for idx, exp in m:
                    dense[idx] = -exp
                    deg += exp
                dense.reverse()
                return (deg, tuple(dense))
            return key
        if self.kind == "block":
            blockvars = sorted(self.block)
            pos = {v: i for i, v in enumerate(blockvars)}
            # on equal block exponents, grevlex on whole monomials orders as on
            # their non-block parts: both degrees shift alike, block entries tie
            grevlex = GREVLEX.key_function(nvars)
            def key(m: Monomial) -> tuple:
                bdense = [0] * len(blockvars)
                for idx, exp in m:
                    p = pos.get(idx)
                    if p is not None:
                        bdense[p] = exp
                return (tuple(bdense), grevlex(m))
            return key
        raise ValueError(f"unknown order kind {self.kind!r}")

    def compare(self, a: Monomial, b: Monomial, nvars: int) -> int:
        ka = self.key_function(nvars)
        x, y = ka(a), ka(b)
        return (x > y) - (x < y)


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
    coefficients are field elements, a nonzero.  Sums are reduced mod p, or
    kept exact over Q, and a monomial whose sum is zero is removed from out."""
    p = field.characteristic
    get = out.get
    for m, c in terms.items():
        if shift:
            m = mono_mul(m, shift)
        v = get(m)
        v = a * c if v is None else v + a * c
        if p:
            v %= p
        if v:
            out[m] = v
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


class PolyRing:
    """A polynomial ring: a coefficient field plus an ordered variable list.

    PolyRing(field, variables) returns the one ring of _RINGS for that
    characteristic and those names (see the module docstring).  Names are
    validated only when a ring is first made, and a refused construction
    stores nothing.  No entry is evicted, since dropping a live ring would
    break identity equality."""

    __slots__ = ("field", "variables", "_index", "_hash")

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
        return _RINGS.setdefault(key, ring)

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    def __reduce__(self):
        return PolyRing, (self.field, self.variables)

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
        return order.key_function(self.nvars)

    # construction helpers

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Union[int, Fraction]) -> "Polynomial":
        return self.term(c, ONE_MONOMIAL)

    def variable(self, var: Union[str, int]) -> "Polynomial":
        return Polynomial(self, {((self.index(var), 1),): self.field.normalize(1)})

    def term(self, coeff: Union[int, Fraction], mono: Monomial) -> "Polynomial":
        c = self.field.normalize(coeff)
        return Polynomial(self, {mono: c} if c else {})

    def from_terms(self, pairs: Iterable[tuple[Monomial, Union[int, Fraction]]]) -> "Polynomial":
        acc: dict[Monomial, Coeff] = {}
        f = self.field
        for mono, coeff in pairs:
            acc[mono] = acc.get(mono, 0) + f.normalize(coeff)
        # one normalization of each sum, which also drops the zeros
        return Polynomial(self, add_terms({}, 1, ONE_MONOMIAL, acc, f))

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


class Polynomial:
    """Immutable sparse polynomial: a map from monomials to nonzero coefficients.

    The leading monomial of the last order asked for is memoized as
    (order, monomial); a query under another order rescans the terms."""

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Coeff]):
        _set_ring(self, ring)
        _set_terms(self, terms)
        _set_hash(self, None)
        _set_lead(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.ring, dict(self.terms))

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
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

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
        if e < 0:
            raise ValueError("negative polynomial power")
        if e and len(self.terms) == 1:
            # a single term: (c*m)^e = c^e * m^e, with no repeated squaring
            ((m, c),) = self.terms.items()
            p = self.ring.field.characteristic
            mono = mono_from_pairs((idx, exp * e) for idx, exp in m)
            return Polynomial(self.ring, {mono: pow(c, e, p) if p else c**e})
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c: Union[int, Fraction]) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, add_terms({}, c, ONE_MONOMIAL, self.terms, field))

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, Coeff]:
        lead = self._lead
        if lead is not None and (lead[0] is order or lead[0] == order):
            m = lead[1]
        else:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = max(self.terms, key=self.ring.sort_key(order))
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
        x = ((idx, 1),)
        out: dict[Monomial, Coeff] = {}
        # m -> m/x is one-to-one on the terms kept, so nothing accumulates
        for m, c in self.terms.items():
            e = mono_exponent(m, idx)
            if e:
                coeff = fld.normalize(c * e)
                if coeff:
                    out[mono_div(m, x)] = coeff
        return Polynomial(ring, out)

    def transport(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in another ring, matching variables by name."""
        if target is self.ring:
            return self
        if target.field != self.ring.field:
            raise RingMismatchError(f"cannot transport between {self.ring.field} and {target.field}")
        names = self.ring.variables
        remap = {}
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            pairs = []
            for idx, exp in m:
                to = remap.get(idx)
                if to is None:
                    to = target.index(names[idx])
                    remap[idx] = to
                pairs.append((to, exp))
            out[mono_from_pairs(pairs)] = c
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
        images: dict[int, Polynomial] = {}

        def image(idx: int) -> Polynomial:
            img = images.get(idx)
            if img is None:
                img = mapping.get(names[idx])
                if img is None:
                    img = target.variable(names[idx])
                images[idx] = img
            return img

        result = target.zero()
        for m, c in self.terms.items():
            term = target.constant(c)
            for idx, exp in m:
                term = term * image(idx) ** exp
            result = result + term
        return result

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
    ring = f.ring
    key = ring.sort_key(order)
    pieces: list[str] = []
    for m in sorted(f.terms, key=key, reverse=True):
        c = f.terms[m]  # prime-field residues are never negative
        neg, mag = c < 0, str(abs(c))
        if m == ONE_MONOMIAL:
            body = mag
        else:
            factors = []
            for idx, exp in m:
                name = ring.variables[idx]
                factors.append(name if exp == 1 else f"{name}^{exp}")
            monom = "*".join(factors)
            body = monom if mag == "1" else f"{mag}*{monom}"
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

    def parse_term(sign: int) -> Polynomial:
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
            return ring.term(coeff if sign > 0 else -coeff, mono)
        if kind == "name":
            return ring.term(sign, parse_monomial())
        raise ParseError("expected a term", pos)

    if len(tokens) == 1:
        raise ParseError("empty input", len(text))
    result = parse_term(1)
    while True:
        pos, kind, tok = tokens[at]
        if kind is None:
            return result
        if tok not in ("+", "-"):
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
        at += 1
        result = result + parse_term(1 if tok == "+" else -1)
