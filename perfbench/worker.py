"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <setup|run|trace>

`setup` only imports fitt and builds the rows; `run` also runs every row;
`trace` runs them under the span recorder and adds the per-layer metrics.
Set-up and, in `run`, every row are timed in reference seconds (speed.py);
`clock_s` is the rows' plain wall time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def run_sampled(rows, workloads) -> tuple[list, dict]:
    """Run the rows under the speed sampler; times in reference seconds."""
    sampler = speed.Sampler()
    results, stretches = [], []
    with sampler.installed():
        for row in rows:
            begin = time.perf_counter()
            results.append(workloads.run_row(row))
            stretches.append((begin, time.perf_counter()))
    # Probes after the pass keep a pass shorter than the period measurable.
    overall = speed.speed([s for _, s in sampler.samples] + speed.bracket())
    seconds = [sampler.reference_seconds(b, e, overall) for b, e in stretches]
    clock = sum(e - b - sum(sampler.within(b, e)) for b, e in stretches)
    return results, {"wall_s": sum(seconds), "row_max_s": max(seconds), "clock_s": clock, "speed": overall}


def run_traced(rows, workloads, workload: str) -> tuple[list, dict]:
    import tracer

    recorder = tracer.Recorder()
    start = time.perf_counter()
    with recorder.installed():
        results = [workloads.run_row(row, recorder) for row in rows]
    out = {"clock_s": time.perf_counter() - start}
    recorder.require(tracer.REQUIRED[workload])
    trials = sum(r.attempted for r in results) if workload == "props" else 0
    out["layers"] = recorder.metrics(trials)
    return results, out


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    probes = speed.bracket()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    rows = workloads.build(workload, seed)
    setup = time.perf_counter() - start
    probes += speed.bracket()
    out: dict = {"setup_s": setup * speed.speed(probes), "setup_clock_s": setup}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if mode == "trace":
        results, timing = run_traced(rows, workloads, workload)
    else:
        results, timing = run_sampled(rows, workloads)
    out.update(timing)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = sum(r.attempted for r in results)
    out["failed"] = sum(r.failed for r in results)
    out["verdicts"] = {r.label: r.verdict for r in results}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
