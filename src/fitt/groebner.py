"""Buchberger's algorithm and the ideal toolkit built on it.

Reduction, membership, equality, elimination via block orders, contraction
to leading variables, saturation by a nonzerodivisor certificate or else the
Rabinowitsch trick, intersection via the t-trick, and comparison of ideals
after inverting an element.  Reduced Groebner bases are cached per (ideal,
order), and saturations per (ideal, element).  Determinism comes from the
normal selection strategy with index tie-breaks and from the uniqueness of
the reduced basis, which also decides equality.  The strategy runs on a heap
of pairs ranked (deg lcm, i, j): each rank and lcm is computed once, when
the pair is formed, and a pair whose leading monomials are coprime is never
queued (Buchberger's first criterion).

Known answers skip the work: Buchberger stops with (1) as soon as a
generator or a reduced S-polynomial is a nonzero constant, and returns a
zero or principal ideal's basis, () or the generator made monic, before any
pair; everything is a member of an ideal whose basis is (1); equal generator
tuples are equal; and saturating at a single term none of whose variables
occurs in a leading monomial of the ideal's grevlex basis, a nonzero
constant included, returns the ideal, since such a term is a nonzerodivisor
modulo it (docs/chart_fitting.md).  A basis known in closed form, such as
that of the exchange binomials (see rees), is cached through
_with_grevlex_basis and never computed.  Most other bases arrive already
reduced (chart relations, eliminations), so the final interreduction reduces
only an element with a tail term that another kept leading monomial divides.

This module never sees how coefficients are stored or how monomials are
packed.  Every coefficient sum, in reduce and s_polynomial alike, is made
by polyring.add_terms: it asks the field for inverses and leaves sums and
zeros to that kernel.  Every monomial question goes to polyring's mono_*
functions, a set of variables is the support mask of a monomial
(mono_support), and a basis changes ring through Polynomial.transport.

Leading terms are memoized per polynomial and order (see
Polynomial.leading_term); a monic multiple keeps its input's, so buchberger
scans each pushed element's terms once.  reduce computes a divisor's inverse
only when that divisor divides.  An Ideal's slots are stored through their
own setters, and its repeated generators dropped by comparing term maps once
each has passed the ring check.  Every ideal that eliminate, contract, saturate or
ideal_intersect returns has its reduced grevlex basis as its generators,
already cached, and each is built by _with_grevlex_basis: by the Elimination
Theorem (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section 3.1)
the block-free part of the reduced block-order basis, whose ties break by
grevlex, is the reduced grevlex basis of the elimination ideal.  contract is
the one place that moves it to a smaller ring, by transport, which needs the
eliminated block last.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence, Union

from .polyring import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    _Frozen,
    add_terms,
    mono_degree,
    mono_div,
    mono_divides,
    mono_from_pairs,
    mono_lcm,
    mono_support,
)


class Ideal(_Frozen):
    """A finitely generated ideal with a per-order cache of reduced bases and
    a per-element cache of saturations."""

    __slots__ = ("ring", "generators", "_gb", "_sat")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial] = ()):
        gens = []
        seen = []  # the term maps of gens: all in ring, so equal maps are equal polynomials
        for g in generators:
            try:
                g_ring = g.ring
            except AttributeError:
                raise TypeError(f"a generator must be a polynomial, not {type(g).__name__}; use ring.constant(...)") from None
            if g_ring != ring:
                raise RingMismatchError(f"generator in {g_ring}, ideal in {ring}")
            t = g.terms
            if t and t not in seen:
                seen.append(t)
                gens.append(g)
        _set_ring(self, ring)
        _set_generators(self, tuple(gens))
        _set_gb(self, {})
        _set_sat(self, {})

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
        gb = self._gb.get(order)
        if gb is None:
            gb = buchberger(self.ring, self.generators, order)
            self._gb[order] = gb
        return gb

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_unit_constant()

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"ideal({gens}) of {self.ring}"


# The slots' own setters, as for Polynomial (see polyring).
_set_ring, _set_generators, _set_gb, _set_sat = (s.__set__ for s in (Ideal.ring, Ideal.generators, Ideal._gb, Ideal._sat))


# ---------------------------------------------------------------------------
# Division

def reduce(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of f against basis: no remainder term is divisible by any
    basis leading term, and f minus the result lies in the ideal the basis
    generates."""
    ring = f.ring
    field = ring.field
    divisors = []
    for g in basis:
        try:
            g_ring = g.ring
        except AttributeError:
            raise TypeError(f"a reducer must be a polynomial, not {type(g).__name__}; use ring.constant(...)") from None
        if g_ring != ring:
            raise RingMismatchError(f"reducer in {g_ring}, dividend in {ring}")
        if g.terms:
            lm, lc = g.leading_term(order)
            divisors.append((lm, lc, g.terms))
    work = dict(f.terms)
    key = ring.sort_key(order)
    remainder: dict[Monomial, object] = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lm, lc, gterms in divisors:
            if mono_divides(lm, m):
                add_terms(work, -c * field.inverse(lc), mono_div(m, lm), gterms, field)
                break
        else:
            remainder[m] = c
            del work[m]
    return Polynomial(ring, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """The S-polynomial (lcm/lt(f))*f - (lcm/lt(g))*g, with both leading terms
    cancelled, built in one pass over the two term maps."""
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError(f"operands in {ring} and {g.ring}")
    field = ring.field
    lcm = mono_lcm(lmf, lmg)
    out = add_terms({}, field.inverse(lcf), mono_div(lcm, lmf), f.terms, field)
    return Polynomial(ring, add_terms(out, -field.inverse(lcg), mono_div(lcm, lmg), g.terms, field))


# ---------------------------------------------------------------------------
# Buchberger

def buchberger(ring: PolyRing, generators: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis: monic, pairwise interreduced, sorted ascending
    by leading monomial.  Normal selection strategy (minimal lcm total degree,
    ties by index pair), kept as a heap-ordered pair queue ranked
    (deg lcm, i, j); Buchberger's coprimality and chain criteria.  A pair
    with coprime leading monomials is dropped when it is formed, never
    queued, and counts as treated for the chain criterion.  A generator or
    reduced S-polynomial that is a nonzero constant ends the run at once
    with (1), the reduced basis of the unit ideal under every order; at most
    one nonzero generator returns at once, as () or that generator made
    monic, the reduced basis of the zero or principal ideal.  The
    final interreduction skips an element none of whose tail terms a kept
    leading monomial divides: it is already monic and reduced."""
    G: list[Polynomial] = []
    lts: list[Monomial] = []
    sups: list[int] = []  # the support of each leading monomial
    # queue holds one (deg lcm, i, j, lcm) entry per pair in pending; (i, j)
    # is unique, so the lcm rides along without ever being compared.  The set
    # answers the chain criterion's "still pending?" question; a coprime pair
    # never enters either, so it counts as treated
    queue: list[tuple[int, int, int, Monomial]] = []
    pending: set[tuple[int, int]] = set()

    def push(f: Polynomial) -> None:
        f = f.monic(order)  # finds the leading term, which the monic f keeps
        j = len(G)
        G.append(f)
        lt = f.leading_term(order)[0]
        lts.append(lt)
        sups.append(mono_support(lt))
        for i in range(j):
            if not sups[i] & sups[j]:  # coprime
                continue
            lcm = mono_lcm(lts[i], lt)
            heapq.heappush(queue, (mono_degree(lcm), i, j, lcm))
            pending.add((i, j))

    for g in generators:
        if g.is_unit_constant():
            return (ring.one(),)
        if g.terms:
            push(g)
    if len(G) <= 1:
        return tuple(G)

    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        pending.discard((i, j))
        sup = sups[i] | sups[j]  # the support of lcm_ij
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if sups[k] | sup == sup and mono_divides(lts[k], lcm_ij):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    break  # the chain criterion skips the pair
        else:
            r = reduce(s_polynomial(G[i], G[j], order), G, order)
            if r.is_unit_constant():
                return (ring.one(),)
            if r.terms:
                push(r)

    # minimal basis: drop elements whose leading term another one divides
    keys = list(map(ring.sort_key(order), lts))
    kept: list[int] = []
    for i in sorted(range(len(G)), key=keys.__getitem__):
        lt, sup = lts[i], sups[i]
        for k in kept:
            if sups[k] | sup == sup and mono_divides(lts[k], lt):
                break
        else:
            kept.append(i)
    minimal = [G[i] for i in kept]
    kept_lts = [lts[i] for i in kept]
    # interreduce tails; an element's own leading term divides none of its
    # tail terms, which are smaller, so testing every kept one is safe
    reduced = []
    for i, g in enumerate(minimal):
        lt = kept_lts[i]
        for m in g.terms:
            if m == lt:
                continue
            for d in kept_lts:
                if mono_divides(d, m):
                    g = reduce(g, minimal[:i] + minimal[i + 1:], order).monic(order)
                    break
            else:
                continue
            break
        reduced.append(g)
    # still ascending: no kept leading term divides another, so reduce keeps each one
    return tuple(reduced)


# ---------------------------------------------------------------------------
# Ideal operations

def ideal_member(f: Polynomial, I: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    """f reduces to zero against I's basis under order; when that basis is
    (1), f is a member without a reduction."""
    if f.ring != I.ring:
        raise RingMismatchError(f"element in {f.ring}, ideal in {I.ring}")
    if not f.terms:
        return True
    gb = I.groebner_basis(order)
    if len(gb) == 1 and gb[0].is_unit_constant():
        return True
    return not reduce(f, gb, order).terms


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """Every generator of J lies in I."""
    return all(ideal_member(g, I) for g in J.generators)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equal generator tuples, or else equal reduced grevlex bases: a reduced
    basis is unique (Cox-Little-O'Shea, section 2.7), and every basis here is
    listed monic and ascending."""
    if I.ring != J.ring:
        raise RingMismatchError(f"ideals in {I.ring} and {J.ring}")
    return I.generators == J.generators or I.groebner_basis() == J.groebner_basis()


def eliminate(I: Ideal, block: Iterable[Union[str, int]]) -> Ideal:
    """Generators of I intersected with the subring on the non-block variables,
    via a block order with the block largest, which is grevlex for an empty
    block.  The result stays in the ambient ring; its generators are the
    elements of the reduced block-order basis whose leading monomial's
    support misses the block's.  Under this order those are the block-free
    ones, so by the Elimination Theorem they are the reduced grevlex basis
    of the result, which is cached."""
    ring = I.ring
    indices = frozenset(ring.index(v) for v in block)
    order = MonomialOrder.elimination(indices)
    block_support = mono_support(mono_from_pairs((i, 1) for i in indices))
    basis = I.groebner_basis(order)
    kept = [g for g in basis if not mono_support(g.leading_term(order)[0]) & block_support]
    return _with_grevlex_basis(ring, kept)


def _with_grevlex_basis(ring: PolyRing, basis: Sequence[Polynomial]) -> Ideal:
    """The ideal of ring generated by basis, with its reduced grevlex basis
    cached as buchberger lists one: each element of basis made monic,
    ascending by leading monomial.  Those must be that reduced basis, known
    without a run; when basis already lists it, it is also the generators."""
    ideal = Ideal(ring, basis)
    key = ring.sort_key(GREVLEX)
    monic = [g.monic() for g in ideal.generators]
    ideal._gb[GREVLEX] = tuple(sorted(monic, key=lambda g: key(g.leading_term()[0])))
    return ideal


def contract(I: Ideal, ring: PolyRing) -> Ideal:
    """I intersected with ring, which must be I.ring's leading variables over
    the same field.  The trailing block, empty when ring is I.ring, is
    eliminated; as it comes last, each surviving index and the grevlex order
    mean the same in ring, so the elimination's reduced grevlex basis is
    cached on the result."""
    big = I.ring
    if ring.field != big.field or big.variables[:ring.nvars] != ring.variables:
        raise RingMismatchError(f"{ring} is not the leading variables of {big}")
    basis = eliminate(I, range(ring.nvars, big.nvars)).generators
    return _with_grevlex_basis(ring, [g.transport(ring) for g in basis])


def saturate(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g^infinity).  For a single-term g whose support meets the support
    of no leading monomial of I's reduced grevlex basis, no variable of g
    occurs in one, and g is a nonzerodivisor modulo I: for such a variable x
    and a nonzero f in normal form, x*f in I would make some leading
    monomial divide x*lm(f), hence lm(f), as it has no x.  The saturation is
    then I itself, returned with that basis as its generators (see
    docs/chart_fitting.md); a nonzero constant has empty support, so the
    certificate covers it.  Otherwise adjoin a fresh
    variable w, form I + (w*g - 1), and contract back to the ring of I; when
    the certificate was tried, I enters through the basis it just read.
    Either way the generators are the reduced grevlex basis, which is
    unique, so the route leaves no trace in the result.  The result is
    cached on I per g, so each saturation of an ideal is computed once; the
    result's own cache starts empty."""
    ring = I.ring
    if g.ring != ring:
        raise RingMismatchError(f"element in {g.ring}, ideal in {ring}")
    if not g.terms:
        raise ValueError("cannot saturate at 0")
    cached = I._sat.get(g)
    if cached is not None:
        return cached
    basis = I.generators
    if len(g.terms) == 1:
        (m,) = g.terms
        basis = I.groebner_basis()
        lead_support = 0
        for h in basis:
            lead_support |= mono_support(h.leading_term()[0])
        if not lead_support & mono_support(m):
            sat = I._sat[g] = _with_grevlex_basis(ring, basis)
            return sat
    aux = ring.fresh_name("w")
    ext = ring.extended([aux])
    w = ext.variable(aux)
    gens = [h.transport(ext) for h in basis]
    gens.append(w * g.transport(ext) - ext.one())
    sat = contract(Ideal(ext, gens), ring)
    I._sat[g] = sat
    return sat


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I intersect J: t*I + (1-t)*J contracted back to their ring."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatchError(f"ideals in {ring} and {J.ring}")
    aux = ring.fresh_name("t")
    ext = ring.extended([aux])
    t = ext.variable(aux)
    one_minus_t = ext.one() - t
    gens = [t * h.transport(ext) for h in I.generators]
    gens.extend(one_minus_t * h.transport(ext) for h in J.generators)
    return contract(Ideal(ext, gens), ring)


def localized_equal(I: Ideal, J: Ideal, g: Polynomial) -> bool:
    """Whether I and J induce the same ideal after inverting g, rendered as
    equality of the g-saturations in the ambient ring."""
    return ideal_equal(saturate(I, g), saturate(J, g))
