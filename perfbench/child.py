"""One benchmark pass in a fresh process: set-up, then every job once.

Run by ``run.py`` as ``python3 child.py SPEC_JSON``, with the adnil
sources on ``PYTHONPATH``.  It prints one JSON object as its last line.
Outputs are checked after the timed region.  The tracer is imported and
installed only when ``spec["trace"]`` is set.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout

import checks
from workloads import load_pinned


# On a shared host the speed of one vCPU drifts by up to 40% over minutes,
# and a second vCPU drifts independently, so a timing is scaled by the
# host speed sampled in the same process while it runs: a fixed
# allocation-free loop (it cannot trigger the garbage collector, whose cost
# depends on the program's heap) is timed every PROBE_PERIOD_S from a
# SIGALRM handler.  Speed 1.0 means the loop took PROBE_REF_S, about its
# median on the 2-vCPU host where the baseline was recorded.
PROBE_TABLE = tuple(i * 7 % 11 for i in range(128))
PROBE_LOOPS = 8000
PROBE_REF_S = 0.0007
PROBE_PERIOD_S = 0.1


def probe() -> float:
    """Host speed now, relative to the reference."""
    table = PROBE_TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        acc = (acc + table[i & 127] * i) % 1000003
    return PROBE_REF_S / (time.perf_counter() - t0)


class HostSpeed:
    """Mean host speed over a ``with`` block, sampled before, during and after."""

    def __enter__(self):
        self.samples = [probe()]
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.samples)


def run_sample(sample) -> int:
    """close_upward -> w_min -> factorize for E8 ideals given by generators."""
    from adnil import affine, ideals, rootsys

    rs = rootsys.build("E8")
    for gens in sample:
        ideal = ideals.close_upward(rs, [tuple(g) for g in gens])
        w = affine.w_min(ideal)
        z = affine.factorize(w).translation.coords
        print(
            "|".join(",".join(map(str, g)) for g in gens),
            " ".join(map(str, w.word)),
            ",".join(map(str, z)),
            sep="\t",
        )
    return 0


def run_job(job: dict) -> tuple[object, str]:
    """Exit code (None if the job raised) and captured standard output."""
    import adnil.cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            if "sample" in job:
                code = run_sample(job["sample"])
            else:
                code = adnil.cli.main(job["argv"])
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue()


def run_pass(spec: dict) -> dict:
    """Set up, run every job once, check the outputs.

    ``setup_s`` and ``wall_s`` are scaled to the reference host speed;
    the ``_raw_s`` values are as read from the clock.
    """
    tracer = None
    with HostSpeed() as host:
        t0 = time.perf_counter()
        import adnil.cli  # noqa: F401  (set-up cost: importing the package)

        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.job = "setup"
            root = tracer.open("setup")
        from adnil import rootsys

        for label in spec["types"]:
            rootsys.build(label)
        if tracer:
            tracer.close(root)
        setup_raw_s = time.perf_counter() - t0
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * host.speed}
    if not spec["jobs"]:
        return result

    ran = []
    with HostSpeed() as host:
        t1 = time.perf_counter()
        for job in spec["jobs"]:
            if tracer:
                tracer.job = job["name"]
                index = tracer.open("job")
            code, out = run_job(job)
            if tracer:
                tracer.close(index)
            ran.append((job, code, out))
        wall_raw_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        wall_raw_s=wall_raw_s, wall_s=wall_raw_s * host.speed, speed=host.speed,
        peak_rss_mb=peak_rss_mb,
    )

    pinned = load_pinned()
    results = []
    for job, code, out in ran:
        reason = checks.check(job, code, out, pinned)
        if reason is None and tracer:
            yields = {
                label: n
                for (fn, job_name, label), n in tracer.yields.items()
                if fn == "ideals.enumerate_ideals" and job_name == job["name"]
            }
            reason = checks.check_yields(job["name"], yields)
        results.append({"name": job["name"], "failure": reason})
    result["jobs"] = results
    if tracer:
        from tracing import summarize

        tracer.uninstall()
        result["layers"] = summarize(tracer)
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


def main() -> None:
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))


if __name__ == "__main__":
    main()
