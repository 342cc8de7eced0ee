"""The seeded randomized suites: zero failures at the repo seed, with the
trial-count floors the acceptance criteria require."""

import random

from fitt import properties
from fitt.properties import DEFAULT_SEED, properties_ok, run_properties


def _by_name(results):
    return {r.name: r for r in results}


def test_all_suites_pass_at_repo_seed():
    results = run_properties(DEFAULT_SEED)
    failing = [(r.name, r.notes) for r in results if r.failures]
    assert properties_ok(results), f"property failures: {failing}"


def test_trial_count_floors():
    suites = _by_name(run_properties(DEFAULT_SEED))
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


def test_suite_table_names_and_trial_counts():
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
    results = run_properties(DEFAULT_SEED)
    assert [r.name for r in results] == list(fixed)
    for r in results:
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
