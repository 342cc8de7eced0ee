"""The seeded randomized suites: zero failures at the repo seed, with the
trial-count floors the acceptance criteria require."""

import hashlib
import random

import pytest

from fitt import groebner, properties
from fitt.polyring import GREVLEX, ONE_MONOMIAL, CoefficientField, PolyRing, Polynomial, mono_from_pairs, mono_pairs
from fitt.properties import DEFAULT_SEED, properties_ok, run_properties


def _by_name(results):
    return {r.name: r for r in results}


@pytest.fixture(scope="module")
def repo_seed_results():
    """One pass at the repo seed, read by every test that only inspects it."""
    return run_properties(DEFAULT_SEED)


def test_all_suites_pass_at_repo_seed(repo_seed_results):
    failing = [(r.name, r.notes) for r in repo_seed_results if r.failures]
    assert properties_ok(repo_seed_results), f"property failures: {failing}"


def test_trial_count_floors(repo_seed_results):
    suites = _by_name(repo_seed_results)
    assert suites["groebner-spolys"].trials >= 200
    derivative_checks = suites["leibniz"].trials + suites["frobenius-kill"].trials
    assert derivative_checks >= 200
    fitting_instances = sum(
        suites[name].trials
        for name in (
            "fitting-chain",
            "fitting-shift",
            "fitting-presentation-independence",
            "fitting-base-change",
        )
    )
    assert fitting_instances >= 100


def test_suite_table_names_and_trial_counts(repo_seed_results):
    # every suite but groebner-spolys makes one check per trial, so its trial
    # count is fixed whatever the Random stream draws
    fixed = {
        "ring-axioms": 120,
        "leibniz": 200,
        "frobenius-kill": 200,
        "monomial-orders": 200,
        "parser-roundtrip": 200,
        "groebner-reduced-basis": 40,
        "groebner-spolys": None,
        "member-order-invariance": 60,
        "saturation-laws": 40,
        "localized-equivalence": 20,
        "fitting-chain": 40,
        "fitting-shift": 40,
        "fitting-presentation-independence": 40,
        "fitting-base-change": 100,
        "annihilator-diagonal": 20,
        "kaehler-redundant-generator": 25,
    }
    assert [r.name for r in repo_seed_results] == list(fixed)
    for r in repo_seed_results:
        if fixed[r.name] is None:
            assert r.trials >= 250, r.name
        else:
            assert r.trials == fixed[r.name], r.name


def test_runs_are_reproducible():
    a = [(r.name, r.trials, r.failures) for r in run_properties(DEFAULT_SEED)]
    b = [(r.name, r.trials, r.failures) for r in run_properties(DEFAULT_SEED)]
    assert a == b


def test_other_seeds_also_pass():
    for seed in (1, 42):
        assert properties_ok(run_properties(seed))


def test_annihilator_suite_builds_each_fitting_ideal_once(monkeypatch):
    real = properties.fitting_ideal
    calls = []

    def recording(module, i):
        calls.append((id(module), i))
        return real(module, i)

    monkeypatch.setattr(properties, "fitting_ideal", recording)
    for k in range(5):
        calls.clear()
        for ok, describe in properties._annihilator_diagonal(random.Random(k), k):
            assert ok, describe()
        assert calls and len(calls) == len(set(calls)), calls


# Widths of the draws the stream tests make: every width up to 17, then each
# power of two from 2^5 to 2^64 with its neighbours.  A width just above a
# power of two rejects almost half its draws.
_WIDTHS = sorted(set(range(1, 18)) | {2**k + d for k in range(5, 65) for d in (-1, 0, 1)})


def _twins(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", range(40))
def test_randint_draws_what_random_draws(seed):
    """Same value and same generator state after every draw: a width-1 range
    still consumes bits, and -4..4 (9 values, 4 bits) rejects."""
    ours, theirs = _twins(seed)
    bounds = [(0, 0), (5, 5), (-4, 4), (1, 3), (-7, 0), (-(2**40), 2**40)]
    bounds += [(lo, lo + w - 1) for w in _WIDTHS for lo in (0, -(w // 2))]
    for a, b in bounds:
        assert properties._randint(ours, a, b) == theirs.randint(a, b), (a, b)
        assert ours.getstate() == theirs.getstate(), (a, b)


@pytest.mark.parametrize("seed", range(40))
def test_below_and_choice_draw_what_random_draws(seed):
    ours, theirs = _twins(seed)
    for n in _WIDTHS:
        assert properties._below(ours, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n
        if n <= 2**20:
            seq = range(n)
            assert properties._choice(ours, seq) == theirs.choice(seq), n
            assert ours.getstate() == theirs.getstate(), n


class _NoDraws:
    """An rng whose every draw fails the test, so a draw loop that would spin
    on getrandbits(0) fails at its first draw instead of hanging."""

    def getrandbits(self, k):
        pytest.fail(f"drew getrandbits({k}) for an empty range")


def test_an_empty_range_raises_without_drawing():
    """The helpers, and _rand_poly's written-out term count, which must not
    loop on getrandbits(0)."""
    rng = _NoDraws()
    ring = PolyRing(CoefficientField(0), ["x1"])
    for draw in (
        lambda: properties._below(rng, 0),
        lambda: properties._below(rng, -3),
        lambda: properties._randint(rng, 1, 0),
        lambda: properties._choice(rng, ()),
        lambda: properties._rand_poly(rng, ring, max_terms=0),
        lambda: properties._rand_poly(rng, ring, max_terms=-1),
    ):
        with pytest.raises(ValueError, match="empty range"):
            draw()


def _composed_monomial(rng, nvars, max_deg, min_deg=0):
    """_rand_monomial composed from _below and mono_from_pairs, one helper
    call a draw: the reference its written-out loops must match."""
    while True:
        pairs = []
        total = budget = min_deg + properties._below(rng, max_deg - min_deg + 1)
        for idx in range(nvars):
            if budget <= 0:
                break
            e = properties._below(rng, budget + 1)
            if e:
                pairs.append((idx, e))
                budget -= e
        if total - budget >= min_deg:
            return mono_from_pairs(pairs)


def _composed_poly(rng, ring, max_terms, max_deg, min_deg):
    """_rand_poly composed from _randint, _composed_monomial and from_terms."""
    terms = []
    for _ in range(properties._randint(rng, 1, max_terms)):
        c = properties._randint(rng, -4, 4)
        terms.append((_composed_monomial(rng, ring.nvars, max_deg, min_deg), c))
    return ring.from_terms(terms)


# Every (max_terms, max_deg, min_deg) with 1 <= max_terms <= 6 and
# 0 <= min_deg <= max_deg <= 5, and rings over Q, F_2, F_3, F_5 and F_7 in
# 1 to 4 variables.
_DEGREES = [(d, m) for d in range(6) for m in range(d + 1)]
_DRAW_SHAPES = [(t, d, m) for t in range(1, 7) for d, m in _DEGREES]
_DRAW_RINGS = [
    PolyRing(CoefficientField(p), [f"x{i}" for i in range(1, n + 1)]) for p in (0, 2, 3, 5, 7) for n in range(1, 5)
]


@pytest.mark.parametrize("seed", range(40))
def test_written_out_draws_equal_the_composed_ones(seed):
    """_rand_monomial and _rand_poly return what the helpers composed return,
    term maps in the same insertion order, and leave the generator in the
    same state after every draw.  Each seed pairs every shape with a ring,
    shifted by the seed, so the 40 seeds cover every shape over every ring."""
    ours, theirs = _twins(seed)
    for nvars in range(5):
        for max_deg, min_deg in _DEGREES:
            if nvars == 0 and min_deg > 0:
                continue
            m = properties._rand_monomial(ours, nvars, max_deg, min_deg)
            assert m == _composed_monomial(theirs, nvars, max_deg, min_deg), (nvars, max_deg, min_deg)
            assert ours.getstate() == theirs.getstate(), (nvars, max_deg, min_deg)
    for i, shape in enumerate(_DRAW_SHAPES):
        ring = _DRAW_RINGS[(seed + i) % len(_DRAW_RINGS)]
        f = properties._rand_poly(ours, ring, *shape)
        g = _composed_poly(theirs, ring, *shape)
        assert f.ring is g.ring and f.terms == g.terms, (ring, shape)
        assert list(f.terms) == list(g.terms), (ring, shape)
        assert ours.getstate() == theirs.getstate(), (ring, shape)


@pytest.mark.parametrize(
    "nvars, max_deg, min_deg",
    [(3, 2, 3), (0, 3, 1), (0, 0, 1)],
    ids=["min-above-max", "no-variables", "no-variables-no-room"],
)
def test_rand_monomial_refuses_an_unreachable_degree(nvars, max_deg, min_deg):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no monomial"):
        properties._rand_monomial(rng, nvars, max_deg, min_deg)
    assert rng.getstate() == state


def test_rand_monomial_is_canonical_and_within_its_degrees():
    rng = random.Random(11)
    assert properties._rand_monomial(rng, 0, 3) == ONE_MONOMIAL
    for nvars, max_deg, min_deg in ((1, 1, 1), (3, 3, 0), (4, 5, 2), (2, 4, 4)):
        for _ in range(500):
            m = properties._rand_monomial(rng, nvars, max_deg, min_deg)
            assert m == mono_from_pairs(mono_pairs(m))
            assert all(0 <= idx < nvars for idx, _ in mono_pairs(m))
            assert min_deg <= sum(e for _, e in mono_pairs(m)) <= max_deg, m


def test_instance_stream_is_pinned(monkeypatch):
    """A digest of every instance the suites draw over the four seeds from
    DEFAULT_SEED: each polynomial's ring and printed text, and each monomial,
    in draw order, the monomial as its tuple of (index, exponent) pairs.  An edit to a generator that changes one instance fails
    here, so the suites and the benchmark's props rows keep their instances."""
    digest = hashlib.sha256()
    counts = {"poly": 0, "mono": 0}
    real_poly, real_mono = properties._rand_poly, properties._rand_monomial

    def poly(*args, **kwargs):
        f = real_poly(*args, **kwargs)
        counts["poly"] += 1
        digest.update(f"P {f.ring!r} {f}\n".encode())
        return f

    def mono(*args, **kwargs):
        m = real_mono(*args, **kwargs)
        counts["mono"] += 1
        digest.update(f"M {tuple(mono_pairs(m))!r}\n".encode())
        return m

    monkeypatch.setattr(properties, "_rand_poly", poly)
    monkeypatch.setattr(properties, "_rand_monomial", mono)
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + 4):
        run_properties(seed)
    assert counts == {"poly": 11_855, "mono": 26_519}
    assert digest.hexdigest() == "45cf359620c09bcbebcf20817b64c47731ffd7c05cb970b822740c5621c7ebd2"


def test_groebner_stream_is_pinned(monkeypatch):
    """A digest of every buchberger call over the four seeds from
    DEFAULT_SEED, in call order: the ring, the order's kind and sorted block,
    and the generators and the basis as printed text; then each seed's suite
    results.  An edit to the polynomial or Groebner kernels that changes one
    basis, or the inputs a suite hands them, fails here."""
    digest = hashlib.sha256()
    calls = 0
    real = groebner.buchberger

    def buchberger(ring, generators, order=groebner.GREVLEX):
        nonlocal calls
        basis = real(ring, generators, order)
        calls += 1
        gens = "; ".join(map(str, generators))
        digest.update(f"B {ring!r} {order.kind} {sorted(order.block)} [{gens}] -> [{'; '.join(map(str, basis))}]\n".encode())
        return basis

    monkeypatch.setattr(groebner, "buchberger", buchberger)
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + 4):
        for r in run_properties(seed):
            digest.update(f"S {seed} {(r.name, r.trials, r.failures, r.notes)!r}\n".encode())
    assert calls == 3_093
    assert digest.hexdigest() == "f39b72357644c8d296f61c1e642a794a9a6b86d2ef5c37da29a61731ea62c1b1"


def test_buchberger_scans_each_lead_once(monkeypatch):
    """Over the four seeds from DEFAULT_SEED, no element that buchberger
    makes monic, each pushed one included, has its leading term scanned
    twice under the call's order: monic finds it on its input, and the monic
    result keeps it.  Nor is any polynomial scanned twice in one call.  A
    scan is a leading_term call that stores a new memo."""
    real_lead, real_monic, real_buchberger = Polynomial.leading_term, Polynomial.monic, groebner.buchberger
    scans: dict[int, int] = {}
    pairs: list[tuple[Polynomial, Polynomial]] = []  # also keeps every id alive
    calls: list[int] = []  # the pairs seen in each buchberger call
    active = False

    def leading_term(self, order=GREVLEX):
        before = self._lead
        lead = real_lead(self, order)
        if active and self._lead is not before:
            scans[id(self)] = scans.get(id(self), 0) + 1
            pairs.append((self, self))
        return lead

    def monic(self, order=GREVLEX):
        g = real_monic(self, order)
        if active:
            pairs.append((self, g))
        return g

    def buchberger(ring, generators, order=GREVLEX):
        nonlocal active
        scans.clear()
        pairs.clear()
        active = True
        try:
            basis = real_buchberger(ring, generators, order)
        finally:
            active = False
        for f, g in pairs:
            count = scans.get(id(f), 0) + (scans.get(id(g), 0) if g is not f else 0)
            assert count <= 1, (ring, order, f, g)
        calls.append(len(pairs))
        return basis

    monkeypatch.setattr(Polynomial, "leading_term", leading_term)
    monkeypatch.setattr(Polynomial, "monic", monic)
    monkeypatch.setattr(groebner, "buchberger", buchberger)
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + 4):
        run_properties(seed)
    assert len(calls) == 3_093 and sum(calls) > 3_093
