"""Jacobian (conormal) presentation of the Kaehler differentials of a
finitely presented algebra.

The module generators are the differentials of the ambient variables; each
relation generator f contributes the column of partial derivatives df.  In
characteristic p the derivative rule kills p-divisible exponents, which is
what drives all the interesting Fitting ideals downstream.

Fitt_i for i >= nvars is the unit ideal by the rank rule (the matrix has one
row per variable), and kaehler_fitting returns it without building the
matrix.  verify decides its charts r <= l by the same rule before it builds
them (docs/chart_fitting.md); this guard serves every other caller, such as
verify's charts r > l under the paper index with s >= 2.
"""

from __future__ import annotations

from .fitmod import PresentedAlgebra, PresentedModule, fitting_ideal
from .groebner import Ideal


def kaehler_presentation(algebra: PresentedAlgebra) -> PresentedModule:
    """Presentation of the differentials: one row d(var) per ambient variable,
    one column per relation generator, entry (v, f) = df/dv."""
    ring = algebra.ring
    gens = algebra.relations.generators
    matrix = tuple(
        tuple(g.derivative(v) for g in gens) for v in range(ring.nvars)
    )
    labels = tuple(f"d{name}" for name in ring.variables)
    return PresentedModule(algebra, matrix, labels)


def kaehler_fitting(algebra: PresentedAlgebra, i: int) -> Ideal:
    """Fitt_i of the differentials, as an ambient ideal containing the relations.
    For i >= nvars it is the unit ideal, returned before any matrix is built."""
    ring = algebra.ring
    if i >= ring.nvars:
        return Ideal(ring, (ring.one(),))
    return fitting_ideal(kaehler_presentation(algebra), i)
