"""Self-tests of the benchmark: span arithmetic, counters, oracle and seeding.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fitt.groebner  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fitt.groebner import Ideal  # noqa: E402
from fitt.polyring import CoefficientField, PolyRing  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [
        ["verify.row", 0.0, 10.0, -1],
        ["groebner.a", 1.0, 4.0, 0],
        ["polyring.c", 2.0, 3.0, 1],
        ["groebner.b", 5.0, 6.0, 0],
    ]
    own = tracer.self_times(spans)
    assert own == {"verify.row": 6.0, "groebner.a": 2.0, "polyring.c": 1.0, "groebner.b": 1.0}
    layers = tracer.layer_self_times(own)
    assert layers["verify"] == 6.0 and layers["groebner"] == 3.0 and layers["polyring"] == 1.0
    assert sum(layers.values()) == 10.0


def test_spairs_formed_on_hand_worked_ideal():
    # Q[x, y], grevlex, f1 = x^2 - y, f2 = xy - x.  S(f1, f2) = x^2 - y^2
    # reduces to -(y^2 - y), which joins as f3: k = 3, three pairs formed.
    # (f2, f3) has S-polynomial 0; (f1, f3) has coprime leading terms and is
    # pruned.  So 2 pairs reduced, 1 to zero, 1 of 3 pruned.
    ring = PolyRing(CoefficientField(0), ["x", "y"])
    original = fitt.groebner.buchberger
    recorder = tracer.Recorder()
    with recorder.installed():
        ideal = Ideal(ring, [ring.parse("x^2 - y"), ring.parse("x*y - x")])
        basis = ideal.groebner_basis()
        assert ideal.groebner_basis() is basis
    assert fitt.groebner.buchberger is original
    assert [str(g) for g in basis] == ["y^2 - y", "x*y - x", "x^2 - y"]
    m = recorder.metrics(trials=0)
    assert m["groebner.buchberger_calls"] == 1
    assert m["groebner.spairs_formed"] == 3
    assert m["groebner.spairs_reduced"] == 2
    assert m["groebner.zero_reductions"] == 1
    assert m["groebner.spairs_pruned_frac"] == pytest.approx(1 / 3)
    assert m["groebner.reduce_useful_frac"] == 0.5
    assert m["groebner.gb_requests"] == 2 and m["groebner.gb_cache_hit_frac"] == 0.5
    assert m["groebner.basis_size_max"] == 3


def test_wrapped_attributes_are_restored():
    recorder = tracer.Recorder()
    before = {mod: dict(vars(mod)) for mod in (fitt.groebner, fitt.verify, fitt.rees)}
    with recorder.installed():
        assert fitt.groebner.reduce is not before[fitt.groebner]["reduce"]
    for mod, attrs in before.items():
        assert all(vars(mod)[k] is v for k, v in attrs.items())


def test_missing_calls_fail_loudly():
    recorder = tracer.Recorder()
    with pytest.raises(tracer.TraceError, match="rees.chart_presentation"):
        recorder.require(tracer.REQUIRED["charts"])


def test_traced_names_cover_required_names():
    traced = {n for n, _, _ in tracer.FUNCTIONS + tracer.COUNTED} | {n for n, _, _ in tracer.METHODS}
    for names in tracer.REQUIRED.values():
        assert set(names) <= traced


def test_wrong_expected_verdict_counts_as_failed():
    good = workloads.verify_row("p=2 n=2 s=1 l=1 v=2,1", "corrected")
    wrong = workloads.verify_row("p=2 n=2 s=1 l=1 v=2,1", "corrected", ("pass", (True, False), True, True, True))
    assert workloads.run_row(good).failed == 0
    result = workloads.run_row(wrong)
    assert (result.attempted, result.failed) == (1, 1)
    assert result.verdict == ("pass", (True, True), True, True, True)


def test_raising_row_counts_as_failed():
    def boom():
        raise ValueError("boom")

    row = workloads.Row("boom", "verify", boom, tuple, (), lambda _: (1, 0))
    result = workloads.run_row(row)
    assert (result.attempted, result.failed) == (1, 1)
    assert "boom" in result.verdict


def test_reference_seconds_scale_by_sampled_speed():
    sampler = speed.Sampler()
    half = speed.REF_PROBE_S * 2  # probes that take twice the reference: speed 0.5
    sampler.samples = [(1.0, half), (2.0, half), (5.0, speed.REF_PROBE_S)]
    assert sampler.within(0.5, 2.5) == [half, half]
    # 2 s less two probes, at half speed; the stretch [3, 4] has no sample
    assert sampler.reference_seconds(0.5, 2.5, 1.0) == pytest.approx((2.0 - 2 * half) * 0.5)
    assert sampler.reference_seconds(3.0, 4.0, 0.8) == pytest.approx(0.8)
    assert sampler.speed() == pytest.approx(2 / 3)


def test_sampler_probes_while_installed_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler.installed():
        end = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _contents(rows):
    return Counter((row.label, row.expected) for row in rows)


@pytest.mark.parametrize("workload, count", [("grid", 21), ("charts", 7), ("props", 4)])
def test_seed_changes_only_row_order(workload, count):
    first = workloads.build(workload, 1)
    assert len(first) == count
    orders = set()
    for seed in (1, 2, 3, 2**40 + 5):
        rows = workloads.build(workload, seed)
        assert _contents(rows) == _contents(first)
        orders.add(tuple(row.label for row in rows))
    assert len(orders) > 1
    assert [r.label for r in workloads.build(workload, 7)] == [r.label for r in workloads.build(workload, 7)]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS


def test_refuses_to_run_without_fitt_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "missing src/fitt" in proc.stderr
