"""Measure the benchmark's baseline the way the benchmark is checked.

    python3 perfbench/measure_baseline.py [--seconds 36] [--out perfbench/baseline.json]

Run it from the root of a checkout. It runs run.py end to end on every
workload for two sets of ten seeds (1-10, then 11-20), then one traced run
per workload on seed 1. It writes every run's result object and, per set,
workload and metric, the median, the quartiles and the spread (quartile
distance over the median), plus how far the second set's median moved from
the first. Takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kstar", "optimal_play", "simulate")
SETS = {"seeds 1-10": range(1, 11), "seeds 11-20": range(11, 21)}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One run.py invocation: (result object, metadata, extra figures)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    extra = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            extra[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), meta, extra


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    sets: dict = {}
    machine: dict = {}
    for set_name, seeds in SETS.items():
        sets[set_name] = {}
        for workload in WORKLOADS:
            runs = []
            for seed in seeds:
                result, meta, extra = run(workload, seed, args.seconds, 0)
                machine = {k: meta[k] for k in ("python", "numpy", "networkx", "nproc", "commit",
                                               "src_sha256")}
                runs.append({"seed": seed, "result": result, "jobs_digest": meta["jobs_digest"],
                             "inputs_digest": meta["inputs_digest"],
                             "loadavg_start": meta["loadavg_start"], "extra": extra})
                print(f"{set_name} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            metrics = runs[0]["result"]["metrics"]
            sets[set_name][workload] = {
                "runs": runs,
                "summary": {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
                            for name in metrics},
            }
    first, second = SETS
    drift = {
        workload: {name: s2["median"] / sets[first][workload]["summary"][name]["median"] - 1
                   for name, s2 in sets[second][workload]["summary"].items()}
        for workload in WORKLOADS
    }
    traced = {workload: run(workload, 1, args.seconds, 1)[0] for workload in WORKLOADS}
    doc = {
        "provenance": "seed commit 6fa3587 (src/ unchanged), benchmark as in this directory",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds} "
                   "--trace <t>",
        "machine": machine,
        "second_set_median_change": drift,
        "sets": sets,
        "traced_seed1": traced,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
