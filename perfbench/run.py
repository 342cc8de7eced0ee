"""fitt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Every pass is a fresh single-threaded interpreter (perfbench/worker.py), so
each pays fitt's cold start as a user's `fitt` invocation does.  With
`--trace 0` passes repeat while another fits in `--seconds`, at least once,
and the end-to-end metrics are medians over passes, in reference seconds
(perfbench/speed.py).  With `--trace 1` one untraced and one traced pass
run, and the per-layer metrics come from the traced one.
`--workload all` runs every workload in turn.  The last line of output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "charts", "props")
END_TO_END = {"setup_s": "s", "wall_s": "s", "row_max_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 2  # set-up-only passes per probe round; set-up is the median of all
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def check_layout() -> None:
    """The benchmark needs fitt's sources and the shipped grid beside it."""
    for need in (ROOT / "src" / "fitt" / "__init__.py", ROOT / "grids" / "default.txt"):
        if not need.is_file():
            raise BenchError(f"missing {need.relative_to(ROOT)}: run from a fitt checkout")


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One worker process; waits for it to end, and kills it at the deadline."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    # Set-up is timed with cached bytecode, as an installed fitt has it, in
    # every environment; the first probe of a fresh checkout writes the cache.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode} pass ran past the {DEADLINE_S:.0f} s deadline") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result(passes: list[dict], metrics: dict[str, tuple[float, str]]) -> dict:
    verdicts = [p["verdicts"] for p in passes]
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0 and all(v == verdicts[0] for v in verdicts),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Untraced passes while the next one is expected to end within
    `seconds`, at least one.  Set-up probes run before each pass and after
    the last, so they sample the whole run.  Returns the result and the
    summary-only plain wall time and host speed."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    passes: list[dict] = []
    setups: list[float] = []

    def probe() -> None:
        for _ in range(SETUP_PROBES):
            setups.append(run_pass(workload, seed, "setup", deadline)["setup_s"])

    last = 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        begin = time.monotonic()
        probe()
        passes.append(run_pass(workload, seed, "run", deadline))
        last = time.monotonic() - begin
    probe()
    setups += [p["setup_s"] for p in passes]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name in ("wall_s", "row_max_s", "peak_rss_mb"):
        metrics[name] = (statistics.median(p[name] for p in passes), END_TO_END[name])
    extra = {"clock_s": (statistics.median(p["clock_s"] for p in passes), "s")}
    extra["speed"] = (statistics.median(p["speed"] for p in passes), "x")
    extra["passes"] = (len(passes), "")
    return _result(passes, metrics), extra


def trace(workload: str, seed: int) -> dict:
    """One untraced and one traced pass; per-layer metrics from the traced."""
    sys.path.insert(0, str(ROOT / "src"))
    import tracer  # imports fitt, for the wrapped names

    deadline = time.monotonic() + DEADLINE_S
    plain = run_pass(workload, seed, "run", deadline)
    traced = run_pass(workload, seed, "trace", deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["clock_s"] / plain["clock_s"] - 1.0
    metrics = {name: (layers[name], unit) for name, unit in tracer.METRICS.items()}
    return _result([plain, traced], metrics)


def summary(workload: str, result: dict, extra: dict) -> str:
    shown = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
    parts = [f"{name}={value:.6g} {unit}" for name, (value, unit) in {**shown, **extra}.items()]
    failed_frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac={failed_frac:.6g} ({result['failed']}/{result['attempted']})")
    return f"{workload}: " + "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_layout()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            if args.trace:
                results[name], extra = trace(name, args.seed), {}
            else:
                results[name], extra = measure(name, args.seed, args.seconds)
            print(summary(name, results[name], extra), flush=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
