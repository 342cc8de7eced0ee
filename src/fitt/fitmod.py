"""Finitely presented modules over quotient rings and their Fitting ideals.

A module is a presentation matrix over a PresentedAlgebra (ambient polynomial
ring modulo a relation ideal J); rows index module generators, columns index
relations.  Fitting ideals are materialized as ambient ideals containing J, so
all comparisons happen in one polynomial ring.

minors expands along the first row (Eisenbud, Commutative Algebra, ch. 20),
memoizing each sub-minor by its rows and columns.  Each k x k minor with
k >= 2 is summed into one term map with add_terms, entry term by entry term,
and wrapped as a Polynomial once; a 1 x 1 minor is the matrix entry itself.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, NamedTuple, Optional, Sequence

from .groebner import Ideal
from .polyring import Coeff, Monomial, PolyRing, Polynomial, RingMismatchError, add_terms

Matrix = tuple[tuple[Polynomial, ...], ...]


class PresentedAlgebra(NamedTuple("PresentedAlgebra", [("ring", PolyRing), ("relations", Ideal)])):
    """A quotient ring: ambient polynomial ring modulo the relation ideal."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, ring: PolyRing, relations: Ideal) -> "PresentedAlgebra":
        if relations.ring != ring:
            raise RingMismatchError(f"relations live in {relations.ring}, algebra in {ring}")
        return super().__new__(cls, ring, relations)


def _check_matrix(matrix: Sequence[Sequence[Polynomial]], ring: PolyRing) -> None:
    """A ragged matrix raises ValueError, an entry from another ring
    RingMismatchError."""
    if len({len(row) for row in matrix}) > 1:
        raise ValueError("ragged matrix")
    for row in matrix:
        for entry in row:
            if entry.ring != ring:
                raise RingMismatchError(f"matrix entry in {entry.ring}, expected {ring}")


class PresentedModule(NamedTuple(
    "PresentedModule", [("algebra", PresentedAlgebra), ("matrix", Matrix), ("row_labels", tuple[str, ...])]
)):
    """Module presented by a matrix over the algebra's ambient ring."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, algebra: PresentedAlgebra, matrix: Matrix, row_labels: tuple[str, ...]) -> "PresentedModule":
        _check_matrix(matrix, algebra.ring)
        if len(row_labels) != len(matrix):
            raise ValueError("one label per matrix row required")
        return super().__new__(cls, algebra, matrix, row_labels)

    @property
    def generator_count(self) -> int:
        return len(self.matrix)

    @property
    def relation_count(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def free_module(algebra: PresentedAlgebra, rank: int, labels: Optional[Sequence[str]] = None) -> PresentedModule:
    """Free module of the given rank: rank rows, no columns."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(rank))
    return PresentedModule(algebra, tuple(() for _ in range(rank)), tuple(labels))


def minors(matrix: Sequence[Sequence[Polynomial]], k: int, ring: Optional[PolyRing] = None) -> list[Polynomial]:
    """All k x k minors, rows then columns in lexicographic index order.
    k = 0 yields [1]; k exceeding either dimension yields [].  A ragged
    matrix raises ValueError, an entry from another ring RingMismatchError."""
    if k < 0:
        raise ValueError("minor size must be nonnegative")
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ring is None:
        if not nrows or not ncols:
            raise ValueError("ring required for minors of an empty matrix")
        ring = matrix[0][0].ring
    _check_matrix(matrix, ring)
    if k == 0:
        return [ring.one()]
    if k > nrows or k > ncols:
        return []

    field = ring.field
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        r0 = rows[0]
        if len(rows) == 1:
            return matrix[r0][cols[0]]
        cached = memo.get((rows, cols))
        if cached is not None:
            return cached
        rest = rows[1:]
        total: dict[Monomial, Coeff] = {}
        for j, c in enumerate(cols):
            entry = matrix[r0][c].terms
            if not entry:
                continue
            sub = det(rest, cols[:j] + cols[j + 1:]).terms
            for m, a in entry.items():
                add_terms(total, a if j % 2 == 0 else -a, m, sub, field)
        result = memo[(rows, cols)] = Polynomial(ring, total)
        return result

    out = []
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            out.append(det(rows, cols))
    return out


def fitting_ideal(module: PresentedModule, i: int) -> Ideal:
    """Fitt_i of the module, as the ambient ideal J + ((m - i)-minors).

    For i >= m the result is the unit ideal; when m - i exceeds the matrix the
    minor list is empty and the result is J alone (the zero Fitting ideal of
    the quotient)."""
    ring = module.algebra.ring
    m = module.generator_count
    if i >= m:
        return Ideal(ring, (ring.one(),))
    # Ideal drops the zero and repeated minors, keeping first occurrences
    return Ideal(ring, module.algebra.relations.generators + tuple(minors(module.matrix, m - i, ring)))


def direct_sum_free(module: PresentedModule, rank: int) -> PresentedModule:
    """Direct sum with a free module: appends rank zero rows."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if rank == 0:
        return module
    width = module.relation_count
    ring = module.algebra.ring
    zero_row = tuple(ring.zero() for _ in range(width))
    new_rows = module.matrix + tuple(zero_row for _ in range(rank))
    new_labels = module.row_labels + tuple(
        f"e{module.generator_count + j + 1}" for j in range(rank)
    )
    return PresentedModule(module.algebra, new_rows, new_labels)


def base_change(
    module: PresentedModule,
    mapping: Mapping[str, Polynomial],
    target: Optional[PolyRing] = None,
) -> PresentedModule:
    """Apply a ring map (variable substitution): entrywise on the matrix,
    generator-wise on the relation ideal.  Unmapped variables go to their
    namesakes in the target ring."""
    ring = module.algebra.ring
    if target is None:
        target = next(iter(mapping.values())).ring if mapping else ring
    new_matrix = tuple(
        tuple(entry.substitute(target, mapping) for entry in row) for row in module.matrix
    )
    new_relations = Ideal(
        target,
        (g.substitute(target, mapping) for g in module.algebra.relations.generators),
    )
    return PresentedModule(PresentedAlgebra(target, new_relations), new_matrix, module.row_labels)
