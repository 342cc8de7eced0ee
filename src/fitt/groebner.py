"""Buchberger's algorithm and the ideal toolkit built on it.

Reduction, membership, equality, elimination via block orders, contraction
to leading variables, saturation by the Rabinowitsch trick, intersection via
the t-trick, and comparison of ideals after inverting an element.  Reduced
Groebner bases are cached per (ideal, order), and saturations per (ideal,
element).  Determinism comes from the normal selection strategy with index
tie-breaks and from the uniqueness of the reduced basis, which also decides
equality.  The strategy runs on a heap of pairs ranked (deg lcm, i, j): each
rank and lcm is computed once, when the pair is formed.

Known answers skip the work: Buchberger stops with (1) as soon as a
generator or a reduced S-polynomial is a nonzero constant; everything is a
member of an ideal whose basis is (1); equal generator tuples are equal.

Every coefficient sum, in reduce and s_polynomial alike, is made by
polyring.add_terms, so this module never sees how coefficients are stored:
it asks the field for inverses and leaves sums and zeros to that kernel.

Leading terms are memoized per polynomial and order (see
Polynomial.leading_term).  reduce computes each monomial's order key once per
call, and a divisor's inverse only when that divisor divides.  An
elimination, contraction, saturation or intersection arrives with its
grevlex basis cached: by the Elimination Theorem (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, section 3.1) the block-free part of the reduced
block-order basis, whose ties break by grevlex, is the reduced grevlex basis
of the elimination ideal.  contract is the one place that moves it to a
smaller ring, which needs the eliminated block last.
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
    add_terms,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
)


class Ideal:
    """A finitely generated ideal with a per-order cache of reduced bases and
    a per-element cache of saturations."""

    __slots__ = ("ring", "generators", "_gb", "_sat")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial] = ()):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError(f"generator in {g.ring}, ideal in {ring}")
            if g.is_zero:
                continue
            if g not in gens:
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_gb", {})
        object.__setattr__(self, "_sat", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable (the GB and saturation caches fill write-once)")

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


# ---------------------------------------------------------------------------
# Division

class _OrderKeys(dict):
    """Each monomial's order key, computed on its first lookup."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __missing__(self, m: Monomial):
        k = self[m] = self.key(m)
        return k


def reduce(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> Polynomial:
    """Normal form of f against basis: no remainder term is divisible by any
    basis leading term, and f minus the result lies in the ideal the basis
    generates."""
    ring = f.ring
    field = ring.field
    divisors = []
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError(f"reducer in {g.ring}, dividend in {ring}")
        if not g.is_zero:
            lm, lc = g.leading_term(order)
            divisors.append((lm, lc, g.terms))
    work = dict(f.terms)
    keys = _OrderKeys(ring.sort_key(order))
    remainder: dict[Monomial, object] = {}
    while work:
        m = max(work, key=keys.__getitem__)
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
    (deg lcm, i, j); Buchberger's coprimality and chain criteria.  A
    generator or reduced S-polynomial that is a nonzero constant ends the
    run at once with (1), the reduced basis of the unit ideal under every
    order."""
    key = ring.sort_key(order)
    G: list[Polynomial] = []
    lts: list[Monomial] = []
    # queue holds one (deg lcm, i, j, lcm) entry per pair in pending; (i, j)
    # is unique, so the lcm rides along without ever being compared.  The set
    # answers the chain criterion's "still pending?" question
    queue: list[tuple[int, int, int, Monomial]] = []
    pending: set[tuple[int, int]] = set()

    def push(f: Polynomial) -> None:
        f = f.monic(order)
        j = len(G)
        G.append(f)
        lt = f.leading_term(order)[0]
        lts.append(lt)
        for i in range(j):
            lcm = mono_lcm(lts[i], lt)
            heapq.heappush(queue, (mono_degree(lcm), i, j, lcm))
            pending.add((i, j))

    for g in generators:
        if g.is_unit_constant():
            return (ring.one(),)
        if not g.is_zero:
            push(g)

    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        pending.discard((i, j))
        if mono_coprime(lts[i], lts[j]):
            continue
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if mono_divides(lts[k], lcm_ij):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = reduce(s_polynomial(G[i], G[j], order), G, order)
        if r.is_unit_constant():
            return (ring.one(),)
        if not r.is_zero:
            push(r)

    # minimal basis: drop elements whose leading term another one divides
    order_idx = sorted(range(len(G)), key=lambda i: key(lts[i]))
    kept: list[int] = []
    for i in order_idx:
        if not any(mono_divides(lts[k], lts[i]) for k in kept):
            kept.append(i)
    minimal = [G[i] for i in kept]
    # interreduce tails
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(reduce(g, others, order).monic(order))
    reduced.sort(key=lambda g: key(g.leading_term(order)[0]))
    return tuple(reduced)


# ---------------------------------------------------------------------------
# Ideal operations

def ideal_member(f: Polynomial, I: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    """f reduces to zero against I's basis under order; when that basis is
    (1), f is a member without a reduction."""
    if f.ring != I.ring:
        raise RingMismatchError(f"element in {f.ring}, ideal in {I.ring}")
    if f.is_zero:
        return True
    gb = I.groebner_basis(order)
    if len(gb) == 1 and gb[0].is_unit_constant():
        return True
    return reduce(f, gb, order).is_zero


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
    via a block order with the block largest.  The result stays in the ambient
    ring; its generators are free of block variables.  They are the block-free
    elements of the reduced block-order basis, so by the Elimination Theorem
    they are the reduced grevlex basis of the result, which is cached."""
    ring = I.ring
    indices = frozenset(v if isinstance(v, int) else ring.index(v) for v in block)
    if not indices:
        return Ideal(ring, I.generators)
    order = MonomialOrder.elimination(indices)
    kept = []
    for g in I.groebner_basis(order):
        lm, _ = g.leading_term(order)
        if all(idx not in indices for idx, _ in lm):
            kept.append(g)
    return _with_grevlex_basis(ring, kept)


def _with_grevlex_basis(ring: PolyRing, basis: Sequence[Polynomial]) -> Ideal:
    """The ideal of ring generated by basis, a reduced grevlex basis listed
    ascending, with that basis cached.  contract may pass elements of a
    larger ring; they are carried over by their terms."""
    gens = [g if g.ring == ring else Polynomial(ring, g.terms) for g in basis]
    ideal = Ideal(ring, gens)
    ideal._gb[GREVLEX] = ideal.generators
    return ideal


def contract(I: Ideal, ring: PolyRing) -> Ideal:
    """I intersected with ring, which must be I.ring's leading variables over
    the same field.  The trailing block is eliminated; as it comes last, each
    surviving index and the grevlex order mean the same in ring, so the
    elimination's reduced grevlex basis is cached on the result."""
    big = I.ring
    if ring.field != big.field or big.variables[:ring.nvars] != ring.variables:
        raise RingMismatchError(f"{ring} is not the leading variables of {big}")
    block = range(ring.nvars, big.nvars)
    basis = eliminate(I, block).generators if block else I.groebner_basis()
    return _with_grevlex_basis(ring, basis)


def saturate(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g^infinity), by adjoining a fresh variable w, forming I + (w*g - 1),
    and contracting back to the ring of I.  The result is cached on I per g,
    so each saturation of an ideal is computed once; the result's own cache
    starts empty."""
    ring = I.ring
    if g.ring != ring:
        raise RingMismatchError(f"element in {g.ring}, ideal in {ring}")
    if g.is_zero:
        raise ValueError("cannot saturate at 0")
    if g.is_unit_constant():
        return Ideal(ring, I.generators)
    cached = I._sat.get(g)
    if cached is not None:
        return cached
    aux = ring.fresh_name("w")
    ext = ring.extended([aux])
    w = ext.variable(aux)
    gens = [h.transport(ext) for h in I.generators]
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
