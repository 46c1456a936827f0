"""One benchmark pass in a fresh interpreter: set up, run the jobs, check them.

run.py starts this with PYTHONPATH pointing at the checkout's src/, so the
solver's attractor cache and the policies' hidden state start empty. It
prints one JSON object as the last line of its standard output.

    python3 perfbench/worker.py --workload kstar --seed 1 --t-spawn <CLOCK_MONOTONIC>
        [--setup-only] [--trace] [--spans out/spans.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from probe import speed_probe

JOB_LIMIT_S = 90.0  # a job slower than this counts as failed (overran)


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn time is comparable.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import dynbroadcast
    import workloads

    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
    jobs, inputs = workloads.build(args.workload, args.seed, golden)
    doc = {
        "package": dynbroadcast.__file__,
        "jobs_digest": _digest([job.name for job in jobs]),
        "inputs_digest": _digest(inputs),
        "n_jobs": len(jobs),
    }
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    doc["setup_s"] = monotonic() - args.t_spawn
    # probes[i] is taken just before job i, probes[i + 1] just after it.
    probes = doc["probe_s"] = [speed_probe()]
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    results = []
    clock = time.perf_counter
    started = clock()
    for job in jobs:
        t0 = clock()
        try:
            answer = tracer.span(f"job:{job.name}", job.run) if tracer else job.run()
            error = None
        except Exception as exc:  # a failed job is reported, and the pass goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        results.append((job, answer, error, clock() - t0))
        probes.append(speed_probe())
    doc["wall_s"] = clock() - started
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks run after the timed region.
    doc["jobs"] = []
    for job, answer, error, seconds in results:
        problems = [error] if error else job.check(answer)
        if seconds > JOB_LIMIT_S:
            problems.append(f"overran: {seconds:.1f} s > {JOB_LIMIT_S} s")
        doc["jobs"].append({
            "name": job.name,
            "seconds": seconds,
            "answer": answer,
            "problems": problems,
            "rounds": job.rounds(answer) if answer is not None else 0,
        })
    if tracer:
        doc["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
