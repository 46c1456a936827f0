"""Repository benchmark for dynbroadcast.

    python3 perfbench/run.py --workload {kstar,optimal_play,simulate} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N     # one summary table of every workload

Run it from the root of a checkout; it uses the package in ./src. Each pass
of a workload runs its fixed job list in a fresh single-threaded interpreter
(worker.py), one process at a time, under a wall-clock guard.

--trace 0 measures end to end with tracing off. Passes repeat while another
one fits in --seconds. Every job is short, so each pass repeats all of them.
On a shared host the speed at which one process runs swings by a third and
more, over seconds and over minutes, with the load of others. So the worker
times a fixed speed probe (probe.py) right after set-up and after every
job, and timings are reported at a reference host speed: scaled by
PROBE_REFERENCE_S over the probe time. A job is scaled by the mean of the
probes on either side of it, and wall_s adds up each job's median over the
passes. Set-up is measured in a set-up-only interpreter before each pass as
well as in each pass, scaled by the probe that follows it, and setup_s is
the median. The unscaled median pass and set-up are printed too.

--trace 1 runs one untraced pass and two traced passes. It reports
per-layer metrics and the tracing overhead. It fails loudly if the two
traced passes disagree on any exact count, or if any pass gives different
answers.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric with its unit, the run metadata and any failure. The full
record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("kstar", "optimal_play", "simulate")
RUN_BUDGET_S = 165.0  # every run must end within 180 s
# The speed probe's time at the reference host speed (probe.speed_probe).
PROBE_REFERENCE_S = 0.010

sys.path.insert(0, str(HERE))
from tracer import COUNTS, TIMES, UNITS  # noqa: E402  (stdlib-only module)


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker interpreter and return its result object."""
    # A fixed glibc mmap threshold: with the default sliding one, whether a
    # growing buffer is copied inside the heap or remapped depends on the
    # address layout, and peak RSS jumps by 10 MiB between identical runs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise PassFailed("no time left in the run budget")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--t-spawn", repr(t_spawn), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass killed after {timeout:.0f} s (wall-clock guard)") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(lines[-1])
    if not Path(doc["package"]).resolve().is_relative_to(ROOT / "src"):
        raise PassFailed(f"imported dynbroadcast from {doc['package']}, not from this checkout")
    return doc


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    record = {"setups": [], "passes": [], "errors": []}
    try:
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}-seed{seed}.json"
            record["passes"].append(spawn(workload, seed, deadline))
            record["passes"].append(spawn(workload, seed, deadline, "--trace", "--spans", str(spans)))
            record["passes"].append(spawn(workload, seed, deadline, "--trace"))
            return record
        started = time.monotonic()
        durations: list[float] = []
        while True:
            t0 = time.monotonic()
            record["setups"].append(spawn(workload, seed, deadline, "--setup-only"))
            record["passes"].append(spawn(workload, seed, deadline))
            durations.append(time.monotonic() - t0)
            if time.monotonic() - started + statistics.median(durations) > seconds:
                return record
    except PassFailed as exc:
        record["errors"].append(str(exc))
        return record


def reference_times(doc: dict) -> list[float]:
    """Each job's time in one pass, scaled to the reference host speed."""
    probes = doc["probe_s"]
    return [job["seconds"] * PROBE_REFERENCE_S / ((probes[i] + probes[i + 1]) / 2)
            for i, job in enumerate(doc["jobs"])]


def summarize(workload: str, record: dict, trace: bool) -> tuple[dict, dict, list[str]]:
    """Return (result object, extra figures, problems)."""
    passes = record["passes"]
    problems = list(record["errors"])
    known = passes or record["setups"]
    n_jobs = known[0]["n_jobs"] if known else 1
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = 0
    for p in passes:
        for job in p["jobs"]:
            if job["problems"]:
                failed += 1
                problems += [f"{job['name']}: {msg}" for msg in job["problems"][:5]]
    if record["errors"]:  # the pass that died counts every job as failed
        attempted += n_jobs
        failed += n_jobs

    # Every pass of one seed must give the same answers, traced or not.
    if passes:
        first = [json.dumps(j["answer"], sort_keys=True) for j in passes[0]["jobs"]]
        for i, p in enumerate(passes[1:], 1):
            other = [json.dumps(j["answer"], sort_keys=True) for j in p["jobs"]]
            for job, a, b in zip(p["jobs"], first, other):
                if a != b:
                    problems.append(f"pass {i} answer differs from pass 0 on job {job['name']}")

    metrics: dict = {}
    extra: dict = {}
    if trace and len(passes) == 3:
        untraced, a, b = passes
        for name in COUNTS:
            if a["layers"][name] != b["layers"][name]:
                problems.append(f"exact count {name} differs between traced passes: "
                                f"{a['layers'][name]} vs {b['layers'][name]}")
        for name in COUNTS:
            metrics[name] = {"value": a["layers"][name], "unit": UNITS.get(name, "count")}
        for name in TIMES:
            value = statistics.median([a["layers"][name], b["layers"][name]])
            metrics[name] = {"value": value, "unit": "s"}
        traced_wall = statistics.median([sum(reference_times(a)), sum(reference_times(b))])
        overhead = traced_wall - sum(reference_times(untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif passes and not trace:
        setups = [d["setup_s"] for d in record["setups"] + passes]
        scaled_setups = [d["setup_s"] * PROBE_REFERENCE_S / d["probe_s"][0]
                         for d in record["setups"] + passes]
        wall = sum(statistics.median(job_times) for job_times in zip(*map(reference_times, passes)))
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(scaled_setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                                  "unit": "MiB"}
        extra["fail_ratio"] = {"value": failed / attempted, "unit": "fraction"}
        if workload == "simulate":
            rounds = sum(j["rounds"] for j in passes[0]["jobs"])
            extra["rounds_per_s"] = {"value": rounds / wall, "unit": "rounds/s"}
        extra["passes"] = {"value": len(passes), "unit": "count"}
        extra["unscaled_pass_wall_s"] = {"value": statistics.median(p["wall_s"] for p in passes),
                                         "unit": "s"}
        extra["unscaled_setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, extra, problems


def run_metadata(seed: int, record: dict) -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    docs = record["passes"] or record["setups"]
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "loadavg_start": record["loadavg_start"],
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "jobs_digest": docs[0]["jobs_digest"] if docs else None,
        "inputs_digest": docs[0]["inputs_digest"] if docs else None,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list, dict]:
    loadavg = os.getloadavg()
    record = run_passes(workload, seed, seconds, trace)
    record["loadavg_start"] = loadavg
    result, extra, problems = summarize(workload, record, trace)
    meta = run_metadata(seed, record)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": workload, "meta": meta, "result": result, "extra": extra,
         "problems": problems, "record": record}, indent=1))
    return result, extra, problems, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dynbroadcast" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dynbroadcast'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        result, extra, problems, meta = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in {**result["metrics"], **extra}.items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        for msg in problems:
            print(f"{name} FAILED {msg}", file=sys.stderr)
        print("meta " + json.dumps(meta, sort_keys=True))
        rows.append((name, result, extra))
    if args.workload == "all":
        keys = ["wall_s", "setup_s", "peak_rss_mb", "fail_ratio", "rounds_per_s"]
        print(f"{'workload':<14}" + "".join(f"{k:>22}" for k in keys))
        for name, result, extra in rows:
            cells = {**result["metrics"], **extra}
            print(f"{name:<14}" + "".join(
                f"{cells[k]['value']:>12.4g} {cells[k]['unit']:<9}" if k in cells else f"{'-':>22}"
                for k in keys))
    print(json.dumps(rows[-1][1]) if len(rows) == 1 else json.dumps(
        {"correct": all(r["correct"] for _, r, _ in rows),
         "attempted": sum(r["attempted"] for _, r, _ in rows),
         "failed": sum(r["failed"] for _, r, _ in rows),
         "metrics": {f"{n}.{k}": v for n, r, _ in rows for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
