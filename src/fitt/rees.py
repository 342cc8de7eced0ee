"""Rees-ring presentations for monomial complete intersections, blow-up
charts, the exceptional divisor, and the symmetric-algebra kernel check.

The standard parameter shape (p, n, s, l, v) has p dividing the exponents
v_s..v_l and a tail of exponent-1 generators v_{l+1} = ... = v_n = 1.  The
underlying constructions work for any monomial complete intersection
(x_{i1}^{e1}, ..., x_{ik}^{ek}), which the non-normality probe needs; the
parameter type is a validated wrapper around that general machinery.  Chart
relations are the closed-form binomials, unreduced; their reduced basis is
computed on request.  The Rees relations J, the exchange binomials, are
their own reduced Groebner basis, cached in closed form, so the Micali
check runs no Buchberger on J.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from itertools import combinations

from .fitmod import PresentedAlgebra
from .groebner import Ideal, _cache_basis, saturate
from .polyring import EXPONENT_CAP, CoefficientField, PolyRing, is_prime, mono_from_pairs

Powers = tuple[tuple[int, int], ...]  # ((x-index, exponent), ...), 1-based indices


class ReesParamsError(ValueError):
    """Parameter tuple violates an invariant; the message names it."""


def _parse_int(text: str) -> int:
    """An optional '-' and a run of ASCII digits, as an integer in polynomial text."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


class ReesParams(namedtuple("ReesParams", "p n s l v")):
    """Shape (p, n, s, l, v): ideal (x_s^{v_s}, ..., x_n^{v_n}) in n variables
    over F_p, with p | v_i for s <= i <= l and v_i = 1 for i > l."""

    __slots__ = ()

    def validate(self) -> None:
        fields = [("p", self.p), ("n", self.n), ("s", self.s), ("l", self.l)] + [("v", vi) for vi in self.v]
        for name, value in fields:
            if not isinstance(value, int) or isinstance(value, bool):  # a bool is an int
                raise TypeError(f"{name}={value!r} must be an int, not {type(value).__name__}")
        if not is_prime(self.p):
            raise ReesParamsError(f"p={self.p} is not prime")
        if self.n < 1:
            raise ReesParamsError(f"n={self.n} must be at least 1")
        if not 1 <= self.s:
            raise ReesParamsError(f"s={self.s} must be at least 1")
        if not self.s <= self.l:
            raise ReesParamsError(f"need s <= l, got s={self.s}, l={self.l}")
        if not self.l < self.n:
            raise ReesParamsError(f"need l < n, got l={self.l}, n={self.n}")
        if len(self.v) != self.n - self.s + 1:
            raise ReesParamsError(
                f"v must list exponents v_{self.s}..v_{self.n} "
                f"({self.n - self.s + 1} values, got {len(self.v)})"
            )
        for i, vi in zip(range(self.s, self.n + 1), self.v):
            if vi < 1:
                raise ReesParamsError(f"v_{i}={vi} must be at least 1")
            if vi > EXPONENT_CAP:
                raise ReesParamsError(f"v_{i}={vi} exceeds the exponent cap {EXPONENT_CAP}")
            if i <= self.l:
                if vi % self.p != 0:
                    raise ReesParamsError(f"p={self.p} must divide v_{i}={vi}")
            elif vi != 1:
                raise ReesParamsError(f"v_{i}={vi} must equal 1 for i > l={self.l}")

    @property
    def field(self) -> CoefficientField:
        return CoefficientField(self.p)

    def exponent(self, i: int) -> int:
        """v_i for s <= i <= n."""
        return self.v[i - self.s]

    def powers(self) -> Powers:
        return tuple((i, self.exponent(i)) for i in range(self.s, self.n + 1))

    def flag_string(self) -> str:
        return f"p={self.p} n={self.n} s={self.s} l={self.l} v={','.join(map(str, self.v))}"

    @classmethod
    def parse(cls, text: str) -> "ReesParams":
        """Parse flag syntax `p=2 n=3 s=1 l=2 v=2,2,1`."""
        fields: dict[str, str] = {}
        for chunk in text.split():
            if "=" not in chunk:
                raise ReesParamsError(f"expected key=value, got {chunk!r}")
            key, _, value = chunk.partition("=")
            if key in fields:
                raise ReesParamsError(f"duplicate key {key!r}")
            fields[key] = value
        missing = {"p", "n", "s", "l", "v"} - fields.keys()
        if missing:
            raise ReesParamsError(f"missing keys: {', '.join(sorted(missing))}")
        extra = fields.keys() - {"p", "n", "s", "l", "v"}
        if extra:
            raise ReesParamsError(f"unknown keys: {', '.join(sorted(extra))}")
        try:
            return cls(*(_parse_int(fields[k]) for k in "pnsl"), tuple(map(_parse_int, fields["v"].split(","))))
        except ValueError as err:
            raise ReesParamsError(f"malformed integer in {text!r}") from err


class ChartAlgebra(namedtuple("ChartAlgebra", "r algebra")):
    """Affine chart of the blow-up at the degree-one element x_r^{v_r}T:
    the degree-zero localization, presented in the x and U variables."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# General monomial complete intersections

def _check_powers(n: int, powers: Powers) -> None:
    seen = set()
    for i, e in powers:
        if not 1 <= i <= n:
            raise ReesParamsError(f"generator index {i} outside 1..{n}")
        if i in seen:
            raise ReesParamsError(f"repeated generator index {i}")
        if e < 1:
            raise ReesParamsError(f"exponent {e} for x{i} must be at least 1")
        seen.add(i)


def ci_rees_presentation(field: CoefficientField, n: int, powers: Powers) -> PresentedAlgebra:
    """Rees ring of (x_i^{e_i} : (i, e_i) in powers): T_i stands for x_i^{e_i}T,
    relations are the exchange binomials x_i^{e_i}*T_j - x_j^{e_j}*T_i, in
    pair order and unreduced.  The ambient ring has x_1..x_n and then one
    T_i per generator.  The relation ideal J comes with its reduced grevlex
    basis cached, in closed form: the binomials, each made monic, ascending
    by leading monomial.  They are the 2x2 minors of the matrix with rows
    (x_i^{e_i}) and (T_i), whose minors are a universal Groebner basis, and
    no binomial's leading term divides a term of another, so no Buchberger
    run is needed (docs/chart_fitting.md).  The most recent presentation is
    memoized, so a row's Micali kernel and its comparison share one J;
    powers may be given as lists."""
    return _rees_presentation(field, n, tuple((i, e) for i, e in powers))


@functools.lru_cache(maxsize=1)
def _rees_presentation(field: CoefficientField, n: int, powers: Powers) -> PresentedAlgebra:
    _check_powers(n, powers)
    names = [f"x{i}" for i in range(1, n + 1)]
    names.extend(f"T{i}" for i, _ in powers)
    ring = PolyRing(field, names)
    factors = [(ring.variable(f"x{i}") ** e, ring.variable(f"T{i}")) for i, e in powers]
    relations = Ideal(ring, [xi * tj - xj * ti for (xi, ti), (xj, tj) in combinations(factors, 2)])
    return PresentedAlgebra(ring, _cache_basis(relations, relations.generators))


def _chart(field: CoefficientField, n: int, powers: Powers, r: int, dropped: frozenset[int]) -> ChartAlgebra:
    """Chart r with the unit pivots x_i, i in dropped, substituted out; the
    one builder of both chart presentations below."""
    _check_powers(n, powers)
    exponents = dict(powers)
    if r not in exponents:
        raise ReesParamsError(f"chart index {r} is not a generator index")
    names = [f"x{i}" for i in range(1, n + 1) if i not in dropped]
    names.extend(f"U{i}" for i, _ in powers if i != r)
    ring = PolyRing(field, names)
    xr = (ring.index(f"x{r}"), exponents[r])
    gens = [
        ring.from_terms((
            (mono_from_pairs(((ring.index(f"x{i}"), e),)), 1),
            (mono_from_pairs((xr, (ring.index(f"U{i}"), 1))), -1),
        ))
        for i, e in powers
        if i != r and i not in dropped
    ]
    return ChartAlgebra(r, PresentedAlgebra(ring, Ideal(ring, gens)))


def ci_chart_presentation(field: CoefficientField, n: int, powers: Powers, r: int) -> ChartAlgebra:
    """Degree-zero localization at g = x_r^{e_r}T, from its closed form.  The
    Rees ring A = k[x, T]/J is graded with T_r of degree one, so A[1/T_r]_0 is
    A/(T_r - 1), and U_i is the image of T_i: the fraction x_i^{e_i}T / g.
    Setting T_r = 1 and T_i = U_i turns the exchange binomials of J that
    involve r into x_i^{e_i} - U_i*x_r^{e_r} (i != r), and these generate
    the images of the others:
    x_i^{e_i}U_j - x_j^{e_j}U_i = U_j(x_i^{e_i} - U_i x_r^{e_r}) - U_i(x_j^{e_j} - U_j x_r^{e_r}).
    The relations are these binomials, unreduced, in generator order; their
    reduced basis is computed when a caller asks for it."""
    return _chart(field, n, powers, r, frozenset())


def ci_pruned_chart_presentation(field: CoefficientField, n: int, powers: Powers, r: int) -> ChartAlgebra:
    """The chart of ci_chart_presentation with its unit pivots substituted
    out.  For a generator index i != r with e_i = 1 the relation
    x_i - U_i*x_r^{e_r} solves for x_i, so dropping x_i and that relation
    gives an isomorphic algebra: every x_i except those, then the U block as
    before, modulo x_i^{e_i} - U_i*x_r^{e_r} for i != r with e_i > 1, left
    unreduced.  The differentials are the same module, only presented with
    one generator and one relation fewer per dropped x_i (the column of that
    relation has the unit entry 1 in the row of dx_i), and Fitting ideals do
    not depend on the presentation (Eisenbud, Commutative Algebra, 20.2).
    So Fitt_i is the same ideal, transported, at the same index i.  This is
    not the free-summand shift Fitt_{i+1}(M + free) = Fitt_i(M): no free
    summand is split off, and the module is unchanged."""
    return _chart(field, n, powers, r, frozenset(i for i, e in powers if i != r and e == 1))


def ci_micali_kernel(field: CoefficientField, n: int, powers: Powers) -> Ideal:
    """Kernel of k[x, T-block] -> R[t], T_i -> x_i^{e_i} * t, as J : x_v^infinity
    for the exchange-binomial ideal J and any generator index v: J presents
    Sym(I) (a regular sequence has only Koszul syzygies), Sym(I) and the
    Rees ring agree once x_v^{e_v} is inverted, and the Rees ring is a
    domain (docs/chart_fitting.md).  v is the first listed generator of
    least exponent: x_v occurs in no leading monomial of J's reduced grevlex
    basis (docs/chart_fitting.md), so saturate certifies J : x_v^infinity = J
    from that basis, which ci_rees_presentation caches in closed form.  So
    this check runs no Buchberger.  Micali's theorem says this kernel
    equals J, and here that verdict follows from the proved closed form:
    the kernel is J's cached basis.  The tests, not this function, check
    that basis against Buchberger."""
    relations = ci_rees_presentation(field, n, powers).relations
    if not powers:
        return relations
    v = min(powers, key=lambda power: power[1])[0]
    return saturate(relations, relations.ring.variable(f"x{v}"))


# ---------------------------------------------------------------------------
# The parameterized (Theorem-shaped) constructions

def rees_presentation(params: ReesParams) -> PresentedAlgebra:
    """Rees ring presentation for the parameter shape; the relation ideal has
    one exchange binomial per pair s <= i < j <= n."""
    params.validate()
    return ci_rees_presentation(params.field, params.n, params.powers())


def target_ideal(params: ReesParams) -> Ideal:
    """The comparison ideal (x_s^{v_s}, ..., x_n^{v_n}, T_s, ..., T_l) plus
    the Rees relations, in the Rees ambient ring."""
    exceptional = exceptional_ideal(params)
    tail = [exceptional.ring.variable(f"T{i}") for i in range(params.s, params.l + 1)]
    return Ideal(exceptional.ring, list(exceptional.generators) + tail)


def exceptional_ideal(params: ReesParams) -> Ideal:
    """Ideal of the exceptional divisor: the center's generators plus relations."""
    algebra = rees_presentation(params)
    center = [algebra.ring.variable(f"x{i}") ** e for i, e in params.powers()]
    return Ideal(algebra.ring, center + list(algebra.relations.generators))


def chart_presentation(params: ReesParams, r: int) -> ChartAlgebra:
    """Chart of the blow-up at x_r^{v_r}T for a generator index r (s <= r <= n)."""
    params.validate()
    return ci_chart_presentation(params.field, params.n, params.powers(), r)


def micali_kernel(params: ReesParams) -> Ideal:
    """Relation kernel in the Rees ambient ring, computed by saturation."""
    params.validate()
    return ci_micali_kernel(params.field, params.n, params.powers())
