"""Seeded randomized property suites over the algebraic core.

Each suite is one row of `_SUITES`: its name, the number of checks to make,
and a trial function that draws one instance from the suite's private Random
and yields an `(ok, describe)` pair per law it checks.  `run_properties` seeds
each suite off one run seed, so a run is reproducible end to end.  Suites
return trial/failure counts; the CLI and the test suite both consume them.

Every integer draw goes through the module's own getrandbits helper _below,
with _randint and _choice on top of it.  They read the same bits as
Random.randint, choice and randrange and return the same numbers, so the
instances are fixed by fitt's code rather than by the interpreter's randint;
tests/test_properties.py checks the helpers against Random and pins the
instance stream with a digest.  Random.random is called as it is.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Optional

from .fitmod import (
    PresentedAlgebra,
    PresentedModule,
    base_change,
    direct_sum_free,
    fitting_ideal,
)
from .groebner import (
    Ideal,
    ideal_contains,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    localized_equal,
    reduce,
    s_polynomial,
    saturate,
)
from .kaehler import kaehler_fitting
from .polyring import (
    FIELD_BITS,
    GREVLEX,
    LEX,
    ONE_MONOMIAL,
    CoefficientField,
    MonomialOrder,
    Monomial,
    PolyRing,
    Polynomial,
    _SlotRecord,
    mono_divides,
    mono_mul,
    mono_pairs,
    parse_polynomial,
    print_polynomial,
)

DEFAULT_SEED = 20240915

# A suite whose trials can make no check still ends after this many trials.
_MAX_TRIALS = 400


class SuiteResult(_SlotRecord):
    __slots__ = ("name", "trials", "failures", "notes")

    def __init__(self, name: str, trials: int = 0, failures: int = 0, notes: Optional[list[str]] = None) -> None:
        self.name, self.trials, self.failures = name, trials, failures
        self.notes = [] if notes is None else notes

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.trials += 1
        if not ok:
            self.failures += 1
            if len(self.notes) < 3:
                self.notes.append(describe())


Checks = Iterator[tuple[bool, Callable[[], str]]]

_FIELDS = (CoefficientField(0), CoefficientField(2), CoefficientField(3), CoefficientField(5))
_PRIME_FIELDS = (CoefficientField(2), CoefficientField(3), CoefficientField(5))


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n): getrandbits(n.bit_length()), redrawn
    until below n; n = 1 still consumes bits.  This is the loop of CPython's
    Random._randbelow_with_getrandbits (the same in 3.10 to 3.13), where
    randint, choice and randrange(n) all end, at one Python frame a draw
    instead of three."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _randint(rng: random.Random, a: int, b: int) -> int:
    """rng.randint(a, b), drawing the same bits."""
    return a + _below(rng, b - a + 1)


def _choice(rng: random.Random, seq):
    """rng.choice(seq), drawing the same bits; an empty seq raises
    ValueError (Random.choice raises IndexError)."""
    return seq[_below(rng, len(seq))]


def _rand_monomial(rng: random.Random, nvars: int, max_deg: int, min_deg: int = 0) -> Monomial:
    """A budget drawn from min_deg..max_deg, spent on the variables in index
    order; redrawn until at least min_deg of it is spent."""
    if min_deg > max_deg or (nvars <= 0 and min_deg > 0):
        raise ValueError(
            f"no monomial in {nvars} variables has degree {min_deg}..{max_deg}"
        )
    while True:
        mono = 0
        total = budget = min_deg + _below(rng, max_deg - min_deg + 1)
        for idx in range(nvars):
            if budget <= 0:
                break
            e = _below(rng, budget + 1)
            if e:
                # packed as mono_from_pairs packs it; e is at most max_deg
                mono |= e << (FIELD_BITS * idx)
                budget -= e
        if total - budget >= min_deg:
            return mono


def _rand_poly(
    rng: random.Random,
    ring: PolyRing,
    max_terms: int = 4,
    max_deg: int = 3,
    min_deg: int = 0,
) -> Polynomial:
    nvars = ring.nvars
    terms = []
    for _ in range(_randint(rng, 1, max_terms)):
        c = _randint(rng, -4, 4)
        terms.append((_rand_monomial(rng, nvars, max_deg, min_deg), c))
    return ring.from_terms(terms)


def _rand_ring(rng: random.Random, fields=_FIELDS, max_vars: int = 3, min_vars: int = 1) -> PolyRing:
    fld = _choice(rng, fields)
    nvars = _randint(rng, min_vars, max_vars)
    return PolyRing(fld, [f"x{i}" for i in range(1, nvars + 1)])


def _ring_axioms(rng: random.Random, k: int) -> Checks:
    """Associativity, commutativity, and distributivity on random triples."""
    ring = _rand_ring(rng)
    f, g, h = (_rand_poly(rng, ring) for _ in range(3))
    ok = (
        (f + g) + h == f + (g + h)
        and f * g == g * f
        and (f * g) * h == f * (g * h)
        and f * (g + h) == f * g + f * h
        and f + ring.zero() == f
    )
    yield ok, lambda: f"ring axioms broke for f={f}, g={g}, h={h} over {ring}"


def _leibniz(rng: random.Random, k: int) -> Checks:
    """derivative(f*g) = derivative(f)*g + f*derivative(g): the first 100
    trials over Q, the rest over F_p."""
    if k < 100:
        nvars = _randint(rng, 1, 3)
        ring = PolyRing(CoefficientField(0), [f"x{i}" for i in range(1, nvars + 1)])
    else:
        ring = _rand_ring(rng, _PRIME_FIELDS)
    f, g = _rand_poly(rng, ring), _rand_poly(rng, ring)
    v = _below(rng, ring.nvars)
    ok = (f * g).derivative(v) == f.derivative(v) * g + f * g.derivative(v)
    yield ok, lambda: f"Leibniz broke for f={f}, g={g}, v={v} over {ring}"


def _frobenius_kill(rng: random.Random, k: int) -> Checks:
    """derivative(f^p, v) = 0 for every variable v, over F_p."""
    ring = _rand_ring(rng, _PRIME_FIELDS)
    f = _rand_poly(rng, ring, max_terms=3, max_deg=2)
    fp = f ** ring.field.characteristic
    ok = all(fp.derivative(v).is_zero for v in range(ring.nvars))
    yield ok, lambda: f"d(f^p) != 0 for f={f} over {ring}"


def _monomial_orders(rng: random.Random, k: int) -> Checks:
    """Multiplicativity and 1-minimality for lex, grevlex, and a block order."""
    nvars = 4
    order = _choice(rng, (LEX, GREVLEX, MonomialOrder.elimination({0, 2})))
    a = _rand_monomial(rng, nvars, 5)
    b = _rand_monomial(rng, nvars, 5)
    c = _rand_monomial(rng, nvars, 5)
    cmp_ab = order.compare(a, b, nvars)
    ok = order.compare(ONE_MONOMIAL, a, nvars) <= 0
    ok = ok and ((a == b) == (cmp_ab == 0))
    if cmp_ab < 0:
        ok = ok and order.compare(mono_mul(a, c), mono_mul(b, c), nvars) < 0
    yield ok, lambda: f"order law broke for {mono_pairs(a)}, {mono_pairs(b)}, {mono_pairs(c)} under {order.kind}"


def _parser_roundtrip(rng: random.Random, k: int) -> Checks:
    """parse(print(f)) = f, printing under grevlex and lex."""
    ring = _rand_ring(rng, max_vars=4)
    f = _rand_poly(rng, ring, max_terms=5, max_deg=4)
    ok = parse_polynomial(print_polynomial(f), ring) == f
    ok = ok and parse_polynomial(print_polynomial(f, LEX), ring) == f
    yield ok, lambda: f"round trip broke for {f} over {ring}"


def _rand_ideal(rng: random.Random, ring: PolyRing, max_gens: int = 3, min_deg: int = 0) -> Ideal:
    return Ideal(
        ring,
        [
            _rand_poly(rng, ring, max_terms=3, max_deg=3, min_deg=min_deg)
            for _ in range(_randint(rng, 1, max_gens))
        ],
    )


def _groebner_reduced(rng: random.Random, k: int) -> Checks:
    """The cached basis is reduced: monic leading terms, and no term of any
    element divisible by the leading term of another."""
    ring = _rand_ring(rng)
    order = _choice(rng, (GREVLEX, LEX))
    I = _rand_ideal(rng, ring, min_deg=1)
    gb = I.groebner_basis(order)
    ok = True
    for i, g in enumerate(gb):
        ok = ok and g.leading_term(order)[1] == 1
        for j, h in enumerate(gb):
            if j == i:
                continue
            lm_j = h.leading_term(order)[0]
            ok = ok and not any(mono_divides(lm_j, m) for m in g.terms)
    yield ok, lambda: f"basis not reduced for {I} under {order.kind}"


def _groebner_spolys(rng: random.Random, k: int) -> Checks:
    """Every S-polynomial of a reduced basis reduces to zero against it, one
    check per S-pair."""
    ring = _rand_ring(rng, max_vars=4, min_vars=2)
    order = _choice(rng, (GREVLEX, LEX))
    gens = [
        _rand_poly(rng, ring, max_terms=3, max_deg=3, min_deg=1)
        for _ in range(_randint(rng, 2, 4))
    ]
    I = Ideal(ring, gens)
    gb = I.groebner_basis(order)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            r = reduce(s_polynomial(gb[i], gb[j], order), gb, order)
            yield r.is_zero, lambda: f"S-poly ({i},{j}) of {I} did not reduce to 0"


def _member_order_invariance(rng: random.Random, k: int) -> Checks:
    """Ideal membership does not depend on the monomial order."""
    ring = _rand_ring(rng)
    I = _rand_ideal(rng, ring)
    if rng.random() < 0.5 and I.generators:
        f = _rand_poly(rng, ring) * _choice(rng, I.generators)
    else:
        f = _rand_poly(rng, ring)
    ok = ideal_member(f, I, GREVLEX) == ideal_member(f, I, LEX)
    yield ok, lambda: f"membership of {f} in {I} differs by order"


def _saturation_laws(rng: random.Random, k: int) -> Checks:
    """Idempotence of saturation, and I contained in (I : g^inf)."""
    ring = _rand_ring(rng)
    I = _rand_ideal(rng, ring, max_gens=2)
    g = _rand_poly(rng, ring, max_terms=2, max_deg=2)
    if g.is_zero:
        g = ring.variable(0)
    S1 = saturate(I, g)
    ok = ideal_contains(S1, I) and ideal_equal(saturate(S1, g), S1)
    yield ok, lambda: f"saturation law broke for {I} at {g}"


def _localized_equivalence(rng: random.Random, k: int) -> Checks:
    """localized_equal is reflexive, symmetric, and transitive for a fixed g."""
    ring = _rand_ring(rng, max_vars=2)
    g = ring.variable(0)
    base = _rand_ideal(rng, ring, max_gens=2)
    if not base.generators:
        base = Ideal(ring, [ring.variable(0)])
    # J multiplies a generator by g, K adds a redundant element: both chosen
    # to make coincidences likely enough that transitivity gets exercised
    J = Ideal(ring, [h * g for h in base.generators])
    K = Ideal(ring, list(base.generators) + [base.generators[0] * _rand_poly(rng, ring)])
    trio = (base, J, K)
    ok = all(localized_equal(I, I, g) for I in trio)
    for a in trio:
        for b in trio:
            ok = ok and localized_equal(a, b, g) == localized_equal(b, a, g)
    for a in trio:
        for b in trio:
            for c in trio:
                if localized_equal(a, b, g) and localized_equal(b, c, g):
                    ok = ok and localized_equal(a, c, g)
    yield ok, lambda: f"equivalence broke for {base} at {g}"


def _rand_module(rng: random.Random, max_rows: int = 3, max_cols: int = 3) -> PresentedModule:
    ring = _rand_ring(rng, max_vars=2)
    relations = Ideal(ring, [_rand_poly(rng, ring, max_terms=2, max_deg=2)]) if rng.random() < 0.4 else Ideal(ring)
    algebra = PresentedAlgebra(ring, relations)
    m = _randint(rng, 1, max_rows)
    c = _randint(rng, 1, max_cols)
    matrix = tuple(
        tuple(_rand_poly(rng, ring, max_terms=2, max_deg=2) for _ in range(c)) for _ in range(m)
    )
    return PresentedModule(algebra, matrix, tuple(f"g{i + 1}" for i in range(m)))


def _fitting_chain(rng: random.Random, k: int) -> Checks:
    """Fitt_i contained in Fitt_{i+1} (Laplace expansion)."""
    M = _rand_module(rng)
    ok = all(
        ideal_contains(fitting_ideal(M, i + 1), fitting_ideal(M, i))
        for i in range(0, M.generator_count)
    )
    yield ok, lambda: f"chain broke for module over {M.algebra.ring}"


def _fitting_shift(rng: random.Random, k: int) -> Checks:
    """Fitt_{i+1}(M + free rank 1) = Fitt_i(M)."""
    M = _rand_module(rng)
    Ms = direct_sum_free(M, 1)
    ok = all(
        ideal_equal(fitting_ideal(Ms, i + 1), fitting_ideal(M, i))
        for i in range(0, M.generator_count + 1)
    )
    yield ok, lambda: f"shift broke for module over {M.algebra.ring}"


def _fitting_presentation_independence(rng: random.Random, k: int) -> Checks:
    """Appending a column that is a combination of existing columns changes nothing."""
    M = _rand_module(rng)
    ring = M.algebra.ring
    coeffs = [_rand_poly(rng, ring, max_terms=2, max_deg=1) for _ in range(M.relation_count)]
    new_col = []
    for row in M.matrix:
        entry = ring.zero()
        for a, e in zip(coeffs, row):
            entry = entry + a * e
        new_col.append(entry)
    M2 = PresentedModule(
        M.algebra,
        tuple(row + (new_col[i],) for i, row in enumerate(M.matrix)),
        M.row_labels,
    )
    ok = all(
        ideal_equal(fitting_ideal(M2, i), fitting_ideal(M, i))
        for i in range(0, M.generator_count + 1)
    )
    yield ok, lambda: f"presentation independence broke over {ring}"


def _fitting_base_change(rng: random.Random, k: int) -> Checks:
    """Fitting ideals commute with the substitutions x_j -> 0 and x_j -> x_j + c."""
    M = _rand_module(rng, max_rows=2, max_cols=2)
    ring = M.algebra.ring
    name = _choice(rng, ring.variables)
    if rng.random() < 0.5:
        image = ring.zero()
    else:
        image = ring.variable(name) + ring.constant(_randint(rng, 1, 3))
    mapping = {name: image}
    M2 = base_change(M, mapping, ring)
    ok = True
    for i in range(0, M.generator_count + 1):
        pushed = Ideal(
            ring,
            [g.substitute(ring, mapping) for g in fitting_ideal(M, i).generators]
            + list(M2.algebra.relations.generators),
        )
        ok = ok and ideal_equal(fitting_ideal(M2, i), pushed)
    yield ok, lambda: f"base change along {name} broke over {ring}"


def _annihilator_diagonal(rng: random.Random, k: int) -> Checks:
    """For diagonal presentations diag(a_1..a_m): with b = Ann(M) computed as
    the intersection of the (a_i), check b*Fitt_{i+1} inside Fitt_i, and the
    standard containments Fitt_0 inside b and b^m inside Fitt_0."""
    ring = _rand_ring(rng)
    m = _randint(rng, 1, 3)
    diag = []
    for _ in range(m):
        f = _rand_poly(rng, ring, max_terms=2, max_deg=2)
        while f.is_zero:
            f = _rand_poly(rng, ring, max_terms=2, max_deg=2)
        diag.append(f)
    algebra = PresentedAlgebra(ring, Ideal(ring))
    matrix = tuple(
        tuple(diag[i] if i == j else ring.zero() for j in range(m)) for i in range(m)
    )
    M = PresentedModule(algebra, matrix, tuple(f"g{i + 1}" for i in range(m)))
    ann = Ideal(ring, [diag[0]])
    for a in diag[1:]:
        ann = ideal_intersect(ann, Ideal(ring, [a]))
    fitt = [fitting_ideal(M, i) for i in range(m + 1)]
    ok = True
    for i in range(0, m):
        prod = Ideal(ring, [b * f for b in ann.generators for f in fitt[i + 1].generators])
        ok = ok and ideal_contains(fitt[i], prod)
    ok = ok and ideal_contains(ann, fitt[0])
    ann_power = Ideal(ring, [ring.one()])
    for _ in range(m):
        ann_power = Ideal(
            ring, [a * b for a in ann_power.generators for b in ann.generators]
        )
    ok = ok and ideal_contains(fitt[0], ann_power)
    yield ok, lambda: f"annihilator law broke for diag {[str(d) for d in diag]}"


def _kaehler_redundant_generator(rng: random.Random, k: int) -> Checks:
    """Adding an ambient multiple of an existing relation generator leaves
    every Fitting ideal of the differentials unchanged."""
    ring = _rand_ring(rng)
    f = _rand_poly(rng, ring, max_terms=2, max_deg=3)
    while f.is_zero:
        f = _rand_poly(rng, ring, max_terms=2, max_deg=3)
    g = _rand_poly(rng, ring, max_terms=2, max_deg=2)
    A = PresentedAlgebra(ring, Ideal(ring, [f]))
    B = PresentedAlgebra(ring, Ideal(ring, [f, g * f]))
    ok = all(
        ideal_equal(kaehler_fitting(A, i), kaehler_fitting(B, i))
        for i in range(0, ring.nvars + 1)
    )
    yield ok, lambda: f"redundant generator changed a Fitting ideal for f={f}, g={g}"


# (name, checks to make, trial).  Every trial but groebner-spolys's makes
# exactly one check, so for those suites `checks` is the trial count.
_SUITES: tuple[tuple[str, int, Callable[[random.Random, int], Checks]], ...] = (
    ("ring-axioms", 120, _ring_axioms),
    ("leibniz", 200, _leibniz),
    ("frobenius-kill", 200, _frobenius_kill),
    ("monomial-orders", 200, _monomial_orders),
    ("parser-roundtrip", 200, _parser_roundtrip),
    ("groebner-reduced-basis", 40, _groebner_reduced),
    ("groebner-spolys", 250, _groebner_spolys),
    ("member-order-invariance", 60, _member_order_invariance),
    ("saturation-laws", 40, _saturation_laws),
    ("localized-equivalence", 20, _localized_equivalence),
    ("fitting-chain", 40, _fitting_chain),
    ("fitting-shift", 40, _fitting_shift),
    ("fitting-presentation-independence", 40, _fitting_presentation_independence),
    ("fitting-base-change", 100, _fitting_base_change),
    ("annihilator-diagonal", 20, _annihilator_diagonal),
    ("kaehler-redundant-generator", 25, _kaehler_redundant_generator),
)


def run_properties(seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite with per-suite seeds derived from the run seed: trial
    k = 0, 1, ... until the suite's checks are made or _MAX_TRIALS is reached."""
    results = []
    for i, (name, checks, trial) in enumerate(_SUITES):
        rng = random.Random(seed + 1000 * i)
        result = SuiteResult(name)
        k = 0
        while result.trials < checks and k < _MAX_TRIALS:
            for ok, describe in trial(rng, k):
                result.check(ok, describe)
            k += 1
        results.append(result)
    return results


def properties_ok(results: Iterable[SuiteResult]) -> bool:
    return all(r.failures == 0 for r in results)
