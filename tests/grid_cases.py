"""Parameter tuples shared by the oracle tests: the shipped default grid,
read from grids/default.txt, the shipped stretch grid of larger tuples,
read from grids/stretch.txt, and the large grid, grids/large.txt.  Also the
ring transport the oracles use to move an ideal they computed in a larger
ring into the ring they compare in."""

from __future__ import annotations

from pathlib import Path

from fitt.cli import _read_lines
from fitt.groebner import Ideal
from fitt.polyring import PolyRing
from fitt.rees import ReesParams

GRID_DIR = Path(__file__).resolve().parent.parent / "grids"
GRID_FILE = GRID_DIR / "default.txt"
STRETCH_FILE = GRID_DIR / "stretch.txt"
LARGE_FILE = GRID_DIR / "large.txt"


def read_grid(path: Path) -> list[ReesParams]:
    """The tuples of a grid file, read with the CLI's comment rule."""
    return [ReesParams.parse(line) for line in _read_lines(path)]


def shipped_grid() -> list[ReesParams]:
    return read_grid(GRID_FILE)


def transport_ideal(I: Ideal, target: PolyRing) -> Ideal:
    """Move an ideal to another ring, matching variables by name."""
    return Ideal(target, (g.transport(target) for g in I.generators))


# the stretch rows with one tail variable (l = n - 1; n = 5..7, p = 5, 7),
# cheap enough for the unpruned and elimination oracles
STRETCH_GRID = [params for params in read_grid(STRETCH_FILE) if params.l == params.n - 1]
