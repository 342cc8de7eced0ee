"""Parameter tuples shared by the oracle tests: the shipped default grid,
read from grids/default.txt, and a stretch grid of larger tuples."""

from __future__ import annotations

from pathlib import Path

from fitt.rees import ReesParams

GRID_FILE = Path(__file__).resolve().parent.parent / "grids" / "default.txt"


def shipped_grid() -> list[ReesParams]:
    lines = (raw.split("#", 1)[0].strip() for raw in GRID_FILE.read_text(encoding="utf-8").splitlines())
    return [ReesParams.parse(line) for line in lines if line]


# larger tuples, n = 5..7 and p = 5, 7, with l = n - 1
STRETCH_GRID = [
    ReesParams.parse(text)
    for text in (
        "p=5 n=5 s=1 l=4 v=5,5,5,5,1",
        "p=7 n=5 s=1 l=4 v=7,7,7,7,1",
        "p=5 n=5 s=2 l=4 v=25,5,5,1",
        "p=5 n=6 s=2 l=5 v=5,5,5,5,1",
        "p=7 n=6 s=2 l=5 v=7,7,7,7,1",
        "p=5 n=7 s=3 l=6 v=5,5,5,5,1",
        "p=7 n=7 s=4 l=6 v=7,7,7,1",
    )
]
