"""The verification harness: chart-by-chart Fitting-ideal comparisons for the
Rees rings, the blow-up corollary in chart form, schematic image = center,
the non-normality probe, and grid runs over parameter tuples.

Two index policies ship.  "paper" uses n+s+l-1 for the global Fitting index;
"corrected" uses n+l-s+1, which is what the reduction to s=1 combined with
the shift law Fitt_{i+1}(M + free) = Fitt_i(M) actually forces.  They agree
exactly when s=1.  Chart indices are one lower (the localization splits off a
free rank-one summand).  An explicit integer index, but not a bool, is
accepted for negative controls.

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
not change.  thm41 and cor42 compare on the pruned ring, built first
(rees.ci_pruned_chart_ring), with rees.ci_chart_on placing the relations on
it.  A chart r <= l whose chart index reaches that ring's variable count is
decided by rank before its relations are built: its Fitting ideal is the
unit ideal by the rank rule (Eisenbud, Commutative Algebra, ch. 20), and so
is its target, by definition.  That is every chart r <= l under the
corrected index (docs/chart_fitting.md).  Any other chart takes
kaehler_fitting, where fitmod.fitting_ideal applies the same rule.  image
works in the full chart ring R, where the pruned Fitting ideal F' pulls
back to F'R + J for the chart relations J: J contains each
x_j - U_j*x_r^{v_r}.  R lists x_1..x_n before the U block, so
groebner.contract takes F'R + J to k[x] directly.

image compares each chart's contraction with the center before it
intersects any.  Under the corrected index every contraction is the center
(docs/chart_fitting.md), and then so is their intersection, which image
returns without forming it.  Only when some contraction differs does image
intersect them all, as the fallback: contractions that differ from the
center can still intersect to it.  Under the paper index with s >= 2 every
contraction is the unit ideal, so the fallback runs there.

_chart_fittings keeps a memo of the most recent row, keyed by the tuple and
the chart index: each chart's Fitting ideal and cor42's target ideal are
built once, however many of thm41, cor42 and image ask for them.  An ideal
caches its reduced basis, so a repeat cor42 comparison runs no Buchberger.
A new row replaces the memo, so it holds one row at most.  A chart's ms is
the time that call spent on the chart, counting the build when it builds it.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import namedtuple
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
from .polyring import CoefficientField, ExponentOverflowError, PolyRing, _SlotRecord, is_prime
from .rees import (
    ChartAlgebra,
    ReesParams,
    ReesParamsError,
    chart_presentation,
    ci_chart_on,
    ci_chart_presentation,
    ci_pruned_chart_ring,
    micali_kernel,
    rees_presentation,
)

Policy = Union[str, int]

POLICY_PAPER = "paper"
POLICY_CORRECTED = "corrected"


def fitting_index(params: ReesParams, policy: Policy) -> int:
    """Global Fitting index for the differentials of the Rees ring."""
    label = policy_label(policy)
    if label == POLICY_PAPER:
        return params.n + params.s + params.l - 1
    if label == POLICY_CORRECTED:
        return params.n + params.l - params.s + 1
    return policy


def chart_fitting_index(params: ReesParams, policy: Policy) -> int:
    """Chart index: one lower, since localizing splits off a free rank-one summand."""
    return fitting_index(params, policy) - 1


def policy_label(policy: Policy) -> str:
    if policy in (POLICY_PAPER, POLICY_CORRECTED):
        return policy
    if isinstance(policy, int) and not isinstance(policy, bool):
        return "explicit"
    raise ValueError(f"unknown policy {policy!r}")


def _ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


class ChartCheck(namedtuple("ChartCheck", "r equal ms")):
    """One chart's verdict.  ms is the time that call spent on the chart,
    counting the build when that call builds it.  An image chart's equal
    means the contraction contains the center."""

    __slots__ = ()


class VerificationReport(_SlotRecord):
    """One verification row.  Booleans are tri-state: None means the check was
    not requested, and does not count against the status.  A row with a
    reason was skipped, or, when _error is set, ended in an error."""

    __slots__ = ("params", "policy", "index_used", "charts", "micali_ok", "corollary_ok", "image_ok", "reason", "_error")

    def __init__(self, params: ReesParams, policy: str, index_used: int, charts: Optional[list[ChartCheck]] = None,
                 micali_ok: Optional[bool] = None, corollary_ok: Optional[bool] = None,
                 image_ok: Optional[bool] = None, reason: Optional[str] = None) -> None:
        self.params, self.policy, self.index_used = params, policy, index_used
        self.charts = [] if charts is None else charts
        self.micali_ok, self.corollary_ok, self.image_ok, self.reason = micali_ok, corollary_ok, image_ok, reason
        self._error = False

    def __reduce__(self):
        # the error mark is no constructor argument, so it travels as state
        reduced = super().__reduce__()
        return reduced + ((None, {"_error": True}),) if self._error else reduced

    @property
    def status(self) -> str:
        if self.reason is not None:
            return "error" if self._error else "skipped"
        checks = [self.micali_ok, self.corollary_ok, self.image_ok]
        if any(c is False for c in checks) or any(not c.equal for c in self.charts):
            return "fail"
        return "pass"

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "params": {**self.params._asdict(), "v": list(self.params.v)},
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
    is the corollary's check on chart r (see the module docstring).  The
    kernel and the relations come from one memoized Rees presentation, so
    the kernel check reuses J's cached reduced basis."""
    charts = corollary42_details(params, policy)  # validates params first
    micali_ok = ideal_equal(micali_kernel(params), rees_presentation(params).relations)
    return _chart_report(params, policy, charts, micali_ok=micali_ok)


def _chart_report(params: ReesParams, policy: Policy, charts: Sequence[ChartCheck], **checks) -> VerificationReport:
    """The report of a thm41, cor42 or image check: its charts and the
    checks it ran, under the index the policy gives."""
    return VerificationReport(params, policy_label(policy), fitting_index(params, policy), list(charts), **checks)


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


@functools.lru_cache(maxsize=1)
def _row_memo(p: int, n: int, s: int, l: int, v: tuple[int, ...], index: int) -> dict[int, tuple[Ideal, Ideal]]:
    """Chart r -> (Fitting ideal, cor42's target ideal) for the most recent
    row; a new key replaces it.  The key is the tuple's fields, so a v given
    as a list is accepted too."""
    return {}


def _chart_fittings(params: ReesParams, policy: Policy, first: int) -> Iterator[tuple[int, Ideal, Ideal]]:
    """The one route to chart Fitting ideals: for r = first..n, yield r, the
    pruned chart's Fitt at chart_fitting_index and cor42's target ideal.  A
    chart missing from the row's memo is built and stored when reached, so a
    caller computes only the charts it reaches, and its ms for a chart
    counts the build when it builds it.  A build starts with the chart's
    ring.  When r <= l and the index reaches the ring's variable count, both
    ideals are the unit ideal, and one unit Ideal is stored as both, so
    ideal_equal returns at its generator test: no relations, Jacobian or
    target are built.  Otherwise ci_chart_on places the relations on that
    ring, and kaehler_fitting and _chart_expected give the pair.  Callers
    validate params."""
    index = chart_fitting_index(params, policy)
    memo = _row_memo(params.p, params.n, params.s, params.l, tuple(params.v), index)
    field, n, powers = params.field, params.n, params.powers()
    for r in range(first, n + 1):
        pair = memo.get(r)
        if pair is None:
            ring = ci_pruned_chart_ring(field, n, powers, r)
            if r <= params.l and index >= ring.nvars:
                unit = Ideal(ring, (ring.one(),))
                pair = memo[r] = (unit, unit)
            else:
                chart = ci_chart_on(ring, powers, r)
                pair = memo[r] = (kaehler_fitting(chart.algebra, index), _chart_expected(params, chart))
        yield r, *pair


def corollary42_details(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> list[ChartCheck]:
    """Per chart: the Fitting ideal of the chart algebra equals the unit ideal
    (r <= l) or (x_r, U_s..U_l) plus the chart relations (r > l), both on
    the chart's pruned presentation."""
    params.validate()
    checks = []
    start = time.perf_counter()  # before the generator builds each chart
    for r, fitting, target in _chart_fittings(params, policy, params.s):
        checks.append(ChartCheck(r, ideal_equal(fitting, target), _ms(start)))
        start = time.perf_counter()
    return checks


def check_corollary42(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> bool:
    return all(c.equal for c in corollary42_details(params, policy))


# ---------------------------------------------------------------------------
# Schematic image of the Fitting subscheme equals the blow-up center

def image_details(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> tuple[bool, list[ChartCheck]]:
    """Contract each chart Fitting ideal (r > l) to k[x], the leading
    variables of the chart ring, and compare the intersection of the
    contractions with the center's ideal.  Each contraction is first compared
    with the center on its own; when every one equals it, so does their
    intersection, and none is formed.  Otherwise the contractions are
    intersected in chart order and the result compared, since contractions
    that differ from the center can still intersect to it.  Per-chart entries
    record containment of the center.  The Fitting ideal is computed on the
    pruned chart (or read from the row's memo) and pulled back to the full
    chart ring as its generators plus the chart relations."""
    params.validate()
    xring = PolyRing(params.field, [f"x{i}" for i in range(1, params.n + 1)])
    center = Ideal(xring, [xring.variable(f"x{i}") ** e for i, e in params.powers()])
    details, contractions, every_equal = [], [], True
    start = time.perf_counter()  # before the generator builds each chart
    for r, fitting, _ in _chart_fittings(params, policy, params.l + 1):
        full = chart_presentation(params, r).algebra
        ring = full.ring
        fitt = Ideal(ring, [g.transport(ring) for g in fitting.generators] + list(full.relations.generators))
        contraction = contract(fitt, xring)
        contractions.append(contraction)
        equal = ideal_equal(contraction, center)
        every_equal = every_equal and equal
        details.append(ChartCheck(r, equal or ideal_contains(contraction, center), _ms(start)))
        start = time.perf_counter()
    if every_equal:
        return True, details
    return ideal_equal(functools.reduce(ideal_intersect, contractions), center), details


def check_image_equals_center(params: ReesParams, policy: Policy = POLICY_CORRECTED) -> bool:
    return image_details(params, policy)[0]


# ---------------------------------------------------------------------------
# Non-normality of the degree-zero localization (two p-divisible exponents)

class NonnormalProbe(namedtuple("NonnormalProbe", "p integral_witness quotient_membership sanity_control")):
    __slots__ = ()

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
    charts, and image = center.  An invalid tuple, a field that is not an
    int included, or one whose computation needs an exponent above the cap,
    is reported as skipped."""
    try:
        try:
            params.validate()
        except TypeError as err:  # only validate's: a TypeError in a check is a fault
            raise ReesParamsError(str(err)) from err
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
    Invalid tuples, a non-int field included, and exponent overflows are
    reported as skipped, and any other exception a tuple raises as its
    error; neither aborts the run."""
    policies = itertools.repeat(policy)
    size = min(workers, len(grid), os.cpu_count() or 1)
    if size <= 1:
        return list(map(_grid_row, grid, policies))
    # the pool machinery is loaded only when a run asks for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(_grid_row, grid, policies))


def _grid_row(params: ReesParams, policy: Policy) -> VerificationReport:
    """evaluate_params, with an exception it raises made the row's error."""
    try:
        return evaluate_params(params, policy)
    except Exception as err:
        report = VerificationReport(params, policy_label(policy), 0, reason=f"{type(err).__name__}: {err}")
        report._error = True
        return report


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
