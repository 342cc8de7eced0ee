"""Workload inputs, the expected-verdict oracle and the row runner.

A workload is a list of rows.  Each row is one call into fitt's public API
and carries the verdict it must produce.  The benchmark seed chooses only the
row order; the rows themselves never change with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from fitt import properties, verify
from fitt.rees import ReesParams

ROOT = Path(__file__).resolve().parent.parent
GRID_FILE = ROOT / "grids" / "default.txt"

WORKLOADS = ("grid", "charts", "props")

# Negative controls of acceptance criteria 2 and 3, with the per-chart
# `equal` vectors and micali/cor42/image booleans the seed commit produces.
GRID_CONTROLS = (
    ("p=2 n=3 s=2 l=2 v=2,1", "paper", ("fail", (True, False), True, False, False)),
    ("p=2 n=3 s=1 l=2 v=2,2,1", 4, ("fail", (False, False, False), True, False, False)),
    ("p=2 n=3 s=1 l=2 v=2,2,1", 6, ("fail", (True, True, False), True, False, False)),
)
NONNORMAL_PRIMES = (2, 3)

# Stretch grid: n = 5..7, p = 5 and 7, one tail variable (l = n - 1).
CHARTS = (
    "p=5 n=5 s=1 l=4 v=5,5,5,5,1",
    "p=7 n=5 s=1 l=4 v=7,7,7,7,1",
    "p=5 n=5 s=2 l=4 v=25,5,5,1",
    "p=5 n=6 s=2 l=5 v=5,5,5,5,1",
    "p=7 n=6 s=2 l=5 v=7,7,7,7,1",
    "p=5 n=7 s=3 l=6 v=5,5,5,5,1",
    "p=7 n=7 s=4 l=6 v=7,7,7,1",
)

# run_properties seeds of the props workload: the acceptance suite's seed and
# the three after it.  The set is fixed and the benchmark seed orders it, as on
# grid and charts: per-seed cost is heavy-tailed (1.4 to 7 s at the seed
# commit), so seed windows would make wall_s and row_max_s differ from run to
# run by the inputs alone, and some seeds take minutes (README.md).
PROPS_SEEDS = tuple(range(properties.DEFAULT_SEED, properties.DEFAULT_SEED + 4))


@dataclass(frozen=True)
class Row:
    """One call and the verdict it must return.  Calls go through fitt's
    module attributes, so that the traced run sees them."""

    label: str
    layer: str  # the fitt module the call enters: the row's root span
    call: Callable[[], object]
    verdict: Callable[[object], object]
    expected: Optional[object]  # None: compared by the props rule instead
    items: Callable[[object], tuple[int, int]]  # result -> (attempted, failed)


def _verify_verdict(report) -> tuple:
    return (
        report.status,
        tuple(c.equal for c in report.charts),
        report.micali_ok,
        report.corollary_ok,
        report.image_ok,
    )


def _passing(params: ReesParams) -> tuple:
    return ("pass", (True,) * (params.n - params.s + 1), True, True, True)


def verify_row(text: str, policy, expected: Optional[tuple] = None) -> Row:
    params = ReesParams.parse(text)
    params.validate()
    if expected is None:
        expected = _passing(params)
    return Row(
        f"{text} policy={policy}",
        "verify",
        lambda: verify.evaluate_params(params, policy),
        _verify_verdict,
        expected,
        lambda _: (1, 0),
    )


def nonnormal_row(p: int) -> Row:
    return Row(
        f"nonnormal p={p}",
        "verify",
        lambda: (verify.check_nonnormal(p), verify.nonnormality_probe(p, 4, 3, 4).sanity_control),
        tuple,
        (True, True),
        lambda _: (1, 0),
    )


def props_row(seed: int) -> Row:
    return Row(
        f"properties seed={seed}",
        "properties",
        lambda: properties.run_properties(seed),
        lambda results: tuple((r.name, r.failures) for r in results),
        None,
        lambda results: (sum(r.trials for r in results), sum(r.failures for r in results)),
    )


def grid_lines(path: Path = GRID_FILE) -> list[str]:
    lines = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def build(workload: str, seed: int) -> list[Row]:
    """The workload's rows, in the order this seed gives them."""
    if workload == "grid":
        rows = [verify_row(line, "corrected") for line in grid_lines()]
        rows += [verify_row(text, policy, expected) for text, policy, expected in GRID_CONTROLS]
        rows += [nonnormal_row(p) for p in NONNORMAL_PRIMES]
    elif workload == "charts":
        rows = [verify_row(text, "corrected") for text in CHARTS]
    elif workload == "props":
        rows = [props_row(s) for s in PROPS_SEEDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(rows)
    return rows


@dataclass
class RowResult:
    label: str
    attempted: int
    failed: int
    verdict: object  # the error text if the call raised


def run_row(row: Row, recorder=None) -> RowResult:
    """Run one row; a row that raises counts as failed and does not abort."""
    try:
        if recorder is None:
            result = row.call()
        else:
            result = recorder.call(f"{row.layer}.row", row.call, (), {})
    except Exception as err:  # one bad row must not stop the workload
        return RowResult(row.label, 1, 1, f"raised {err!r}")
    verdict = row.verdict(result)
    attempted, failed = row.items(result)
    if row.expected is not None and verdict != row.expected:
        failed = attempted
    return RowResult(row.label, attempted, failed, verdict)
