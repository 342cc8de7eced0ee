"""Finitely presented modules over quotient rings and their Fitting ideals.

A module is a presentation matrix over a PresentedAlgebra (ambient polynomial
ring modulo a relation ideal J); rows index module generators, columns index
relations.  Fitting ideals are materialized as ambient ideals containing J, so
all comparisons happen in one polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .groebner import Ideal
from .polyring import PolyRing, Polynomial, RingMismatchError

Matrix = tuple[tuple[Polynomial, ...], ...]


@dataclass(frozen=True)
class PresentedAlgebra:
    """A quotient ring: ambient polynomial ring modulo the relation ideal."""

    ring: PolyRing
    relations: Ideal

    def __post_init__(self) -> None:
        if self.relations.ring != self.ring:
            raise RingMismatchError(
                f"relations live in {self.relations.ring}, algebra in {self.ring}"
            )


@dataclass(frozen=True)
class PresentedModule:
    """Module presented by a matrix over the algebra's ambient ring."""

    algebra: PresentedAlgebra
    matrix: Matrix
    row_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        ring = self.algebra.ring
        width = {len(row) for row in self.matrix}
        if len(width) > 1:
            raise ValueError("ragged presentation matrix")
        for row in self.matrix:
            for entry in row:
                if entry.ring != ring:
                    raise RingMismatchError(f"matrix entry in {entry.ring}, module over {ring}")
        if len(self.row_labels) != len(self.matrix):
            raise ValueError("one label per matrix row required")

    @property
    def generator_count(self) -> int:
        return len(self.matrix)

    @property
    def relation_count(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def free_module(algebra: PresentedAlgebra, rank: int, labels: Optional[Sequence[str]] = None) -> PresentedModule:
    """Free module of the given rank: rank rows, no columns."""
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(rank))
    return PresentedModule(algebra, tuple(() for _ in range(rank)), tuple(labels))


def minors(matrix: Sequence[Sequence[Polynomial]], k: int, ring: Optional[PolyRing] = None) -> list[Polynomial]:
    """All k x k minors, rows then columns in lexicographic index order.
    k = 0 yields [1]; k exceeding either dimension yields []."""
    if k < 0:
        raise ValueError("minor size must be nonnegative")
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ring is None:
        if not nrows or not ncols:
            raise ValueError("ring required for minors of an empty matrix")
        ring = matrix[0][0].ring
    if k == 0:
        return [ring.one()]
    if k > nrows or k > ncols:
        return []

    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if not rows:
            return ring.one()
        cached = memo.get((rows, cols))
        if cached is not None:
            return cached
        r0 = rows[0]
        rest = rows[1:]
        total = ring.zero()
        for j, c in enumerate(cols):
            entry = matrix[r0][c]
            if entry.is_zero:
                continue
            sub = det(rest, cols[:j] + cols[j + 1:])
            piece = entry * sub
            total = total + piece if j % 2 == 0 else total - piece
        memo[(rows, cols)] = total
        return total

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
