"""Exact sparse multivariate polynomials over the rationals or a prime field.

Monomials are canonical tuples of (variable-index, exponent) pairs, sorted by
index and free of zero exponents, so they hash and compare at C speed.
Coefficients are Python ints reduced mod p, or Fractions (always in lowest
terms with positive denominator).  Everything is immutable after construction.

add_terms is the one place coefficient sums are made: every sum of term maps,
here and in the Groebner layer, goes through it, so the field arithmetic and
the rule that a map holds no zero coefficient live in that function alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CoefficientField:
    """The rationals (characteristic 0) or a prime field F_p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        p = self.characteristic
        if p == 0:
            return
        if p >= MACHINE_WORD:
            raise ValueError(f"characteristic {p} does not fit a machine word")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime-field"

    def normalize(self, value: Union[int, Fraction]) -> Coeff:
        p = self.characteristic
        if p:
            if isinstance(value, Fraction):
                return self.of(value.numerator, value.denominator)
            return value % p
        return Fraction(value)

    def of(self, numerator: int, denominator: int = 1) -> Coeff:
        """Build a field element from an integer fraction."""
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
        return Fraction(numerator, denominator)

    def inverse(self, a: Coeff) -> Coeff:
        p = self.characteristic
        if p:
            a = a % p
            if a == 0:
                raise FieldDivisionError(f"0 has no inverse in F_{p}")
            return pow(a, -1, p)
        if a == 0:
            raise FieldDivisionError("0 has no inverse in Q")
        return 1 / Fraction(a)

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"F_{self.characteristic}"


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


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-order on monomials (1 minimal).

    kind is "lex" (earlier variables larger), "grevlex", or "block": the
    elimination block is compared first (lex among the block variables), ties
    broken by grevlex on the remaining variables.
    """

    kind: str
    block: frozenset[int] = field(default_factory=frozenset)

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elimination(block: Iterable[int]) -> "MonomialOrder":
        return MonomialOrder("block", frozenset(block))

    def key_function(self, nvars: int):
        """Sort key builder; bigger key = bigger monomial."""
        rng = range(nvars)
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
            inner_key = MonomialOrder.grevlex().key_function(nvars)
            def key(m: Monomial) -> tuple:
                bdense = [0] * len(blockvars)
                rest = []
                for idx, exp in m:
                    p = pos.get(idx)
                    if p is None:
                        rest.append((idx, exp))
                    else:
                        bdense[p] = exp
                return (tuple(bdense), inner_key(tuple(rest)))
            return key
        raise ValueError(f"unknown order kind {self.kind!r}")

    def compare(self, a: Monomial, b: Monomial, nvars: int) -> int:
        ka = self.key_function(nvars)
        x, y = ka(a), ka(b)
        return (x > y) - (x < y)


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


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

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


class PolyRing:
    """A polynomial ring: a coefficient field plus an ordered variable list."""

    __slots__ = ("field", "variables", "_index", "_keycache", "_hash")

    def __init__(self, field: CoefficientField, variables: Iterable[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        seen = set()
        for name in names:
            if not name or name[0] not in _IDENT_FIRST or any(c not in _IDENT_REST for c in name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_keycache", {})
        object.__setattr__(self, "_hash", hash((field, names)))

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r} in {self}") from None

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.field}[{','.join(self.variables)}]"

    def sort_key(self, order: MonomialOrder):
        fn = self._keycache.get(order)
        if fn is None:
            fn = order.key_function(self.nvars)
            self._keycache[order] = fn
        return fn

    # construction helpers

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Union[int, Fraction]) -> "Polynomial":
        c = self.field.normalize(c)
        return Polynomial(self, {ONE_MONOMIAL: c} if c else {})

    def variable(self, var: Union[str, int]) -> "Polynomial":
        idx = var if isinstance(var, int) else self.index(var)
        if not 0 <= idx < self.nvars:
            raise UnknownVariableError(f"variable index {idx} out of range")
        return Polynomial(self, {((idx, 1),): self.field.normalize(1)})

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONOMIAL in self.terms)

    def is_unit_constant(self) -> bool:
        return len(self.terms) == 1 and ONE_MONOMIAL in self.terms

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"operands in {self.ring} and {other.ring}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
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
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def scale(self, c: Union[int, Fraction]) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if not c:
            return self.ring.zero()
        out = Polynomial(self.ring, add_terms({}, c, ONE_MONOMIAL, self.terms, field))
        # a unit multiple has the same monomials, hence the same lead
        object.__setattr__(out, "_lead", self._lead)
        return out

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, Coeff]:
        lead = self._lead
        if lead is not None and (lead[0] is order or lead[0] == order):
            m = lead[1]
        else:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = max(self.terms, key=self.ring.sort_key(order))
            object.__setattr__(self, "_lead", (order, m))
        return m, self.terms[m]

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        if c == 1:
            return self
        return self.scale(self.ring.field.inverse(c))

    def variables_used(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            for idx, _ in m:
                used.add(idx)
        return used

    def derivative(self, var: Union[str, int]) -> "Polynomial":
        """Formal partial derivative; exponents divisible by p contribute 0."""
        ring = self.ring
        idx = var if isinstance(var, int) else ring.index(var)
        if not 0 <= idx < ring.nvars:
            raise UnknownVariableError(f"variable index {idx} out of range")
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
        if target == self.ring:
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
            if img.ring != target:
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


# ---------------------------------------------------------------------------
# Printing

def _coeff_parts(c: Coeff) -> tuple[bool, str]:
    """(is_negative, absolute-value string); prime-field residues are never negative."""
    return c < 0, str(abs(c))


def print_polynomial(f: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Terms in descending monomial order; output re-parses to the same polynomial."""
    if f.is_zero:
        return "0"
    ring = f.ring
    key = ring.sort_key(order)
    pieces: list[str] = []
    for m in sorted(f.terms, key=key, reverse=True):
        neg, mag = _coeff_parts(f.terms[m])
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

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def take_ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_FIRST:
            raise ParseError("expected an identifier", start)
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_REST:
            self.pos += 1
        return self.text[start:self.pos]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar::

        poly  := ["+"|"-"] term (("+"|"-") term)*
        term  := coeff ("*" monom)? | monom
        monom := factor ("*" factor)*
        factor:= ident ("^" uint)?
        coeff := ["+"|"-"] int | int "/" uint

    Whitespace is insignificant; coefficients are reduced into the field.
    """
    tz = _Tokenizer(text)
    fld = ring.field
    result = ring.zero()

    def parse_factor() -> Monomial:
        tz.skip_ws()
        pos = tz.pos
        name = tz.take_ident()
        try:
            idx = ring.index(name)
        except UnknownVariableError:
            raise ParseError(f"unknown variable {name!r}", pos) from None
        exp = 1
        if tz.take("^"):
            exp = tz.take_int()
            if exp > EXPONENT_CAP:
                raise ExponentOverflowError(f"exponent {exp} exceeds cap {EXPONENT_CAP}")
        return ((idx, exp),) if exp else ONE_MONOMIAL

    def parse_term(sign: int) -> Polynomial:
        tz.skip_ws()
        pos = tz.pos
        ch = tz.peek()
        if ch in "+-":
            tz.take(ch)
            sign *= -1 if ch == "-" else 1
            ch = tz.peek()
        if ch.isdigit():
            num = tz.take_int()
            if tz.take("/"):
                den_pos = tz.pos
                den = tz.take_int()
                try:
                    coeff = fld.of(num, den)
                except FieldDivisionError as err:
                    raise ParseError(str(err), den_pos) from None
            else:
                coeff = fld.normalize(num)
            mono = ONE_MONOMIAL
            if tz.take("*"):
                mono = parse_factor()
                while tz.take("*"):
                    mono = mono_mul(mono, parse_factor())
            return ring.term(coeff if sign > 0 else -coeff, mono)
        if ch in _IDENT_FIRST:
            mono = parse_factor()
            while tz.take("*"):
                mono = mono_mul(mono, parse_factor())
            return ring.term(sign, mono)
        raise ParseError("expected a term", pos)

    first = True
    while True:
        tz.skip_ws()
        if tz.pos >= len(tz.text):
            if first:
                raise ParseError("empty input", tz.pos)
            break
        if first:
            result = result + parse_term(1)
            first = False
            continue
        ch = tz.peek()
        if ch == "+":
            tz.take("+")
            result = result + parse_term(1)
        elif ch == "-":
            tz.take("-")
            result = result + parse_term(-1)
        else:
            raise ParseError(f"unexpected character {ch!r}", tz.pos)
    return result
