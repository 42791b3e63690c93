"""adnil benchmark: time to verdict for four command workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload`` is one of enumerate, oracles, census, affine-laws, or all.
Every pass runs in a fresh child process (``child.py``), started one at a
time, because users pay for the package's cache fills on every run.

With ``--trace 0`` the benchmark runs a few set-up-only children, then
whole passes until ``--seconds`` have gone by (at least one), and reports:

- ``wall_s``: median seconds for one pass over the job list, after set-up;
- ``setup_s``: median seconds to import ``adnil.cli`` and build every root
  system the workload uses;
- ``peak_rss_mb``: median peak resident memory of a pass process.

Both times are scaled to a reference host speed that the pass samples
while it runs (``child.HostSpeed``), because on a shared host the speed of
a vCPU drifts by tens of percent over minutes.  The unscaled median is
printed as ``wall_raw_s``.

``error_rate`` (failed jobs / jobs attempted) is printed by name and is
the ``failed`` / ``attempted`` pair of the result line; a job fails if it
raises, exits non-zero or its output fails a check in ``checks.py``.

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of ``tracing.summarize`` plus ``trace_overhead``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import HERE, JOB_NAMES, WORKLOADS, load_pinned, make_jobs

ROOT = HERE.parent
SOURCES = ROOT / "src"
SETUP_RUNS = 9
# A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


def environment() -> dict:
    """Commit (when the checkout is a git work tree), Python, CPUs, platform."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_child(spec: dict, deadline: float) -> dict | None:
    """Run one child process; its result, or None if it failed or timed out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("error: pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: pass exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Tally:
    """Jobs attempted and failed over every pass of one run."""

    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: dict | None) -> None:
        self.attempted += len(self.jobs)
        if result is None:
            self.failures += [f"{job['name']}: pass failed" for job in self.jobs]
            return
        for job in result["jobs"]:
            if job["failure"] is not None:
                self.failures.append(f"{job['name']}: {job['failure']}")

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object of the contract."""
    deadline = time.monotonic() + RUN_BUDGET_S
    jobs = make_jobs(workload, seed, load_pinned())
    types = list(WORKLOADS[workload]["types"])
    base = {"types": types, "jobs": jobs, "trace": False}
    tally = Tally(jobs)
    metrics: dict[str, dict] = {}

    # Warm the file cache and bytecode before anything is timed.
    run_child(dict(base, jobs=[]), deadline)
    if not trace:
        setups = []
        for _ in range(SETUP_RUNS):
            result = run_child(dict(base, jobs=[]), deadline)
            if result is not None:
                setups.append(result["setup_s"])
        passes = []
        start = time.monotonic()
        while not passes or (time.monotonic() - start < seconds and time.monotonic() < deadline):
            result = run_child(base, deadline)
            tally.add(result)
            if result is None:
                break
            passes.append(result)
        if passes:
            setups += [p["setup_s"] for p in passes]
            for name, unit, values in (
                ("wall_s", "s", [p["wall_s"] for p in passes]),
                ("setup_s", "s", setups),
                ("peak_rss_mb", "MB", [p["peak_rss_mb"] for p in passes]),
            ):
                q1, med, q3 = quartiles(values)
                metrics[name] = {"value": med, "unit": unit}
                print(f"{workload} {name}: {med:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
            raw = statistics.median(p["wall_raw_s"] for p in passes)
            speed = statistics.median(p["speed"] for p in passes)
            print(f"{workload} wall_raw_s: {raw:.4f} s at host speed {speed:.3f} (unscaled clock time)")
    else:
        untraced = run_child(base, deadline)
        tally.add(untraced)
        spans = HERE / "out" / f"spans-{workload}-{seed}.tsv"
        spans.parent.mkdir(exist_ok=True)
        traced = run_child(dict(base, trace=True, spans=str(spans)), deadline)
        tally.add(traced)
        if untraced is not None and traced is not None:
            layers = traced["layers"]
            for job in JOB_NAMES:
                layers.setdefault(f"cli.job.{job}.s", 0.0)
            layers["trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
            for name, value in sorted(layers.items()):
                unit = unit_of(name)
                metrics[name] = {"value": value, "unit": unit}
                print(f"{workload} {name}: {value:.6g} {unit}")

    print(f"{workload} error_rate: {tally.error_rate:.4f} ratio "
          f"({len(tally.failures)} of {tally.attempted} jobs)")
    for failure in tally.failures:
        print(f"{workload} FAILED {failure}")
    return {
        "correct": not tally.failures and bool(metrics),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith((".calls", ".yields", ".types")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "adnil" / "cli.py").is_file():
        print(f"error: adnil sources not found under {SOURCES}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(dict(env, seed=args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
