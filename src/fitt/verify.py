"""The verification harness: chart-by-chart Fitting-ideal comparisons for the
Rees rings, the blow-up corollary in chart form, schematic image = center,
the non-normality probe, and grid runs over parameter tuples.

Two index policies ship.  "paper" uses n+s+l-1 for the global Fitting index;
"corrected" uses n+l-s+1, which is what the reduction to s=1 combined with
the shift law Fitt_{i+1}(M + free) = Fitt_i(M) actually forces.  They agree
exactly when s=1.  Chart indices are one lower (the localization splits off a
free rank-one summand).  An explicit integer index is accepted for negative
controls.

Theorem 4.1 is checked on the blow-up charts.  The Rees ring A = k[x, T]/J is
graded with T_r in degree one, so A[1/T_r] = C[T_r^{+-1}] for the chart
C = A/(T_r - 1), whose differentials gain one free summand dT_r; by the shift
law, Fitt_i of A localized is Fitt_{i-1} of C.  On C the target ideal is the
unit ideal for r <= l and (x_r, U_s..U_l) plus relations for r > l.  Both
ideals contain J and C -> C[T_r^{+-1}] is faithfully flat, so the localized
equality holds exactly when the chart equality does.

Every chart Fitting ideal comes from one route, _chart_fittings, on the pruned
presentation (rees.ci_pruned_chart_presentation): every x_j with e_j = 1, j != r,
equals U_j*x_r^{v_r} there, so dropping it and its relation gives an
isomorphic algebra with the same differentials, and the Fitting index does
not change.  thm41 and cor42 compare on the pruned ring.  image works in
the full chart ring R, where the pruned Fitting ideal F' pulls back to
F'R + J for the chart relations J: J contains each x_j - U_j*x_r^{v_r}.  R
lists x_1..x_n before the U block, so groebner.contract takes F'R + J to
k[x] directly.

_chart_fittings keeps a memo of the most recent row, keyed by the tuple and
the chart index: each chart's pruned presentation and Fitting ideal are
computed once, and each chart's verdict once, however many of thm41, cor42
and image ask for them.  A new row replaces the memo, so it holds one row at
most.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .groebner import (
    Ideal,
    contract,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_member,
)
from .kaehler import kaehler_fitting
from .polyring import CoefficientField, ExponentOverflowError, PolyRing, is_prime
from .rees import (
    ChartAlgebra,
    ReesParams,
    ReesParamsError,
    chart_presentation,
    ci_chart_presentation,
    ci_pruned_chart_presentation,
    micali_kernel,
    rees_presentation,
)

Policy = Union[str, int]

POLICY_PAPER = "paper"
POLICY_CORRECTED = "corrected"


def fitting_index(params: ReesParams, policy: Policy) -> int:
    """Global Fitting index for the differentials of the Rees ring."""
    if policy == POLICY_PAPER:
        return params.n + params.s + params.l - 1
    if policy == POLICY_CORRECTED:
        return params.n + params.l - params.s + 1
    if isinstance(policy, int):
        return policy
    raise ValueError(f"unknown policy {policy!r}")


def chart_fitting_index(params: ReesParams, policy: Policy) -> int:
    """Chart index: one lower, since localizing splits off a free rank-one summand."""
    return fitting_index(params, policy) - 1


def policy_label(policy: Policy) -> str:
    if policy in (POLICY_PAPER, POLICY_CORRECTED):
        return policy
    if isinstance(policy, int):
        return "explicit"
    raise ValueError(f"unknown policy {policy!r}")


def _ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


@dataclass(frozen=True)
class ChartCheck:
    """One chart's verdict.  For thm41 and cor42 (one shared verdict), ms covers
    building the chart when that pass builds it, plus the comparison; for
    image, only image's own pull-back, contraction and containment test."""

    r: int
    equal: bool
    ms: int


@dataclass
class VerificationReport:
    """One verification row.  Booleans are tri-state: None means the check was
    not requested, and does not count against the status."""

    params: ReesParams
    policy: str
    index_used: int
    charts: list[ChartCheck] = field(default_factory=list)
    micali_ok: Optional[bool] = None
    corollary_ok: Optional[bool] = None
    image_ok: Optional[bool] = None
    reason: Optional[str] = None

    @property
    def status(self) -> str:
        if self.reason is not None:
            return "skipped"
        checks = [self.micali_ok, self.corollary_ok, self.image_ok]
        if any(c is False for c in checks) or any(not c.equal for c in self.charts):
            return "fail"
        return "pass"

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "params": {
                "p": self.params.p,
                "n": self.params.n,
                "s": self.params.s,
                "l": self.params.l,
                "v": list(self.params.v),
            },
            "index_used": self.index_used,
            "policy": self.policy,
            "charts": [
                {"r": c.r, "equal": c.equal, "ms": c.ms if include_timing else 0}
                for c in self.charts
            ],
            "micali_ok": self.micali_ok,
            "corollary_ok": self.corollary_ok,
            "image_ok": self.image_ok,
            "status": self.status,
        }
        if self.reason is not None:
            d["reason"] = self.reason
        return d


# ---------------------------------------------------------------------------
# Theorem: the Fitting ideal and the target ideal agree in every chart localization

def check_theorem41(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> VerificationReport:
    """For each r in s..n, compare the Fitting ideal of the differentials with
    the target ideal after inverting x_r^{v_r}T (the variable T_r), and check
    that the exchange binomials are the full relation kernel.  The comparison
    is the corollary's check on chart r (see the module docstring)."""
    params.validate()
    report = VerificationReport(params, policy_label(policy), fitting_index(params, policy))
    report.charts.extend(corollary42_details(params, policy))
    report.micali_ok = ideal_equal(micali_kernel(params), rees_presentation(params).relations)
    return report


# ---------------------------------------------------------------------------
# Corollary: chart form of the blow-up statement

def _chart_expected(params: ReesParams, chart: ChartAlgebra) -> Ideal:
    ring = chart.algebra.ring
    if chart.r <= params.l:
        return Ideal(ring, (ring.one(),))
    gens = [ring.variable(f"x{chart.r}")]
    gens.extend(ring.variable(f"U{i}") for i in range(params.s, params.l + 1))
    gens.extend(chart.algebra.relations.generators)
    return Ideal(ring, gens)


class _ChartEntry:
    """One chart of the memoized row: the pruned chart, its Fitting ideal at
    the chart index and, once computed, cor42's verdict.  (A plain class: a
    dataclass adds to import time.)"""

    __slots__ = ("chart", "fitting", "check")

    def __init__(self, chart: ChartAlgebra, fitting: Ideal):
        self.chart, self.fitting = chart, fitting
        self.check: Optional[ChartCheck] = None


@functools.lru_cache(maxsize=1)
def _row_memo(p: int, n: int, s: int, l: int, v: tuple[int, ...], index: int) -> dict[int, _ChartEntry]:
    """Chart r -> entry for the most recent row; a new key replaces it.  The
    key is the tuple's fields, so a v given as a list is accepted too."""
    return {}


def _chart_fittings(params: ReesParams, policy: Policy, first: int) -> Iterator[tuple[int, _ChartEntry]]:
    """The one route to chart Fitting ideals: for r = first..n, yield r and the
    memo entry holding the pruned chart and its Fitt at chart_fitting_index.
    A chart missing from the row's memo is built and stored when reached, so
    a caller computes only the charts it iterates over."""
    params.validate()
    index = chart_fitting_index(params, policy)
    memo = _row_memo(params.p, params.n, params.s, params.l, tuple(params.v), index)
    for r in range(first, params.n + 1):
        entry = memo.get(r)
        if entry is None:
            chart = ci_pruned_chart_presentation(params.field, params.n, params.powers(), r)
            entry = memo[r] = _ChartEntry(chart, kaehler_fitting(chart.algebra, index))
        yield r, entry


def corollary42_details(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> list[ChartCheck]:
    """Per chart: the Fitting ideal of the chart algebra equals the unit ideal
    (r <= l) or (x_r, U_s..U_l) plus the chart relations (r > l), both on
    the chart's pruned presentation."""
    checks = []
    start = time.perf_counter()  # before the generator builds each chart
    for r, entry in _chart_fittings(params, policy, params.s):
        if entry.check is None:
            equal = ideal_equal(entry.fitting, _chart_expected(params, entry.chart))
            entry.check = ChartCheck(r, equal, _ms(start))
        checks.append(entry.check)
        start = time.perf_counter()
    return checks


def check_corollary42(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> bool:
    return all(c.equal for c in corollary42_details(params, policy))


# ---------------------------------------------------------------------------
# Schematic image of the Fitting subscheme equals the blow-up center

def image_details(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> tuple[bool, list[ChartCheck]]:
    """Contract each chart Fitting ideal (r > l) to k[x], the leading
    variables of the chart ring, intersect the contractions, and compare with
    the center's ideal.  Per-chart entries record containment of the center.
    The Fitting ideal is computed on the pruned chart (or read from the row's
    memo) and pulled back to the full chart ring as its generators plus the
    chart relations."""
    params.validate()
    xring = PolyRing(params.field, [f"x{i}" for i in range(1, params.n + 1)])
    center = Ideal(xring, [xring.variable(f"x{i}") ** e for i, e in params.powers()])
    details = []
    combined: Optional[Ideal] = None
    for r, entry in _chart_fittings(params, policy, params.l + 1):
        start = time.perf_counter()
        full = chart_presentation(params, r).algebra
        ring = full.ring
        fitt = Ideal(ring, [g.transport(ring) for g in entry.fitting.generators] + list(full.relations.generators))
        contraction = contract(fitt, xring)
        combined = contraction if combined is None else ideal_intersect(combined, contraction)
        details.append(ChartCheck(r, ideal_contains(contraction, center), _ms(start)))
    return ideal_equal(combined, center), details


def check_image_equals_center(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> bool:
    return image_details(params, policy)[0]


# ---------------------------------------------------------------------------
# Non-normality of the degree-zero localization (two p-divisible exponents)

@dataclass(frozen=True)
class NonnormalProbe:
    p: int
    integral_witness: bool
    quotient_membership: bool
    sanity_control: bool

    @property
    def nonnormal(self) -> bool:
        return self.integral_witness and not self.quotient_membership


def nonnormality_probe(p: int, n: int, base: int, top: int) -> NonnormalProbe:
    """Chart of the blow-up of (x_base^p, x_top^{p^2}) at x_base^p T.  The
    fraction x_top^p / x_base satisfies Z^p = U (integral over the chart), yet
    x_top^p is not a multiple of x_base there, so the chart is non-normal."""
    if not is_prime(p):
        raise ReesParamsError(f"p={p} is not prime")
    field = CoefficientField(p)
    powers = ((base, p), (top, p * p))
    chart = ci_chart_presentation(field, n, powers, base)
    ring = chart.algebra.ring
    rel = chart.algebra.relations
    u = ring.variable(f"U{top}")
    xb = ring.variable(f"x{base}")
    xt = ring.variable(f"x{top}")
    witness = ideal_member(xt ** (p * p) - u * xb ** p, rel)
    member = ideal_member(xt ** p, Ideal(ring, [xb] + list(rel.generators)))
    sanity = ideal_member(xt ** (p * p), Ideal(ring, [xb ** p] + list(rel.generators)))
    return NonnormalProbe(p, witness, member, sanity)


def check_nonnormal(p: int) -> bool:
    """The paper's four-variable example: blow up the origin-orbit ideal
    (x3^p, x4^{p^2}) in affine 4-space and probe the chart at x3^p T."""
    return nonnormality_probe(p, 4, 3, 4).nonnormal


# ---------------------------------------------------------------------------
# Grid runs

def evaluate_params(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> VerificationReport:
    """Full verification row: theorem charts, relation kernel, corollary
    charts, and image = center.  An invalid tuple, or one whose computation
    needs an exponent above the cap, is reported as skipped."""
    try:
        report = check_theorem41(params, policy)
        report.corollary_ok = check_corollary42(params, policy)
        report.image_ok = check_image_equals_center(params, policy)
    except (ReesParamsError, ExponentOverflowError) as err:
        return VerificationReport(
            params, policy_label(policy), 0, reason=str(err)
        )
    return report


def run_grid(
    grid: Sequence[ReesParams],
    policy: Policy = POLICY_CORRECTED,
    workers: int = 1,
) -> list[VerificationReport]:
    """Evaluate each tuple independently; report order follows input order.
    Invalid tuples and exponent overflows are reported as skipped, never
    aborting the run."""
    policies = itertools.repeat(policy)
    size = min(workers, len(grid), os.cpu_count() or 1)
    if size <= 1:
        return list(map(evaluate_params, grid, policies))
    # the pool machinery is loaded only when a run asks for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(evaluate_params, grid, policies))


def default_grid() -> list[ReesParams]:
    """The shipped verification grid, for p in {2, 3}."""
    grid = []
    for p in (2, 3):
        grid.extend(
            [
                ReesParams(p, 2, 1, 1, (p, 1)),
                ReesParams(p, 3, 1, 1, (p, 1, 1)),
                ReesParams(p, 3, 1, 2, (p, p, 1)),
                ReesParams(p, 3, 1, 2, (p, p * p, 1)),
                ReesParams(p, 4, 1, 2, (p, p, 1, 1)),
                ReesParams(p, 4, 1, 3, (p, p, p, 1)),
                ReesParams(p, 3, 2, 2, (p, 1)),
                ReesParams(p, 4, 2, 3, (p, p, 1)),
            ]
        )
    return grid
