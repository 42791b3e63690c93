"""Tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import signal
import time
from contextlib import redirect_stdout

import pytest

import checks
import child
from run import Tally
from tracing import Tracer, self_times, summarize, tail
from workloads import load_pinned


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    root = tracer.open("root")  # 0 .. 10
    a = tracer.open("a")  # 1 .. 4
    b = tracer.open("b")  # 2 .. 3
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")  # 5 .. 9
    tracer.close(c)
    tracer.close(root)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_generators_time_only_next():
    tracer = Tracer(clock=fake_clock(*range(100)))

    def inner():
        return 1

    wrapped_inner = tracer.wrap("m.inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    def gen():
        yield 1
        yield 2

    assert tracer.wrap("m.outer", outer)() == 2
    assert list(tracer.wrap("m.gen", gen)()) == [1, 2]
    names = [s[0] for s in tracer.spans]
    # one span per next(), the last one ending the iteration
    assert names == ["m.outer", "m.inner", "m.inner", "m.gen", "m.gen", "m.gen"]
    assert tracer.calls == {"m.outer": 1, "m.inner": 2, "m.gen": 1}
    assert self_times(tracer.spans)[0] == 5 - 2


def test_tail_leaves_ten_samples_above():
    assert tail([float(i) for i in range(10)]) == (0.0, 0.0)
    pct, value = tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


@pytest.fixture
def tracer():
    import adnil.cli  # noqa: F401

    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_wrapping_reaches_imported_names(tracer):
    import adnil.cli
    import adnil.shi
    from adnil import affine, ideals, rootsys

    assert adnil.cli.w_min is affine.w_min and hasattr(affine.w_min, "__wrapped__")
    assert adnil.shi.feasible.__wrapped__.__module__ == "adnil.shi"
    tracer.job = "enumerate-G2"
    with redirect_stdout(io.StringIO()):
        assert adnil.cli.main(["enumerate", "G2"]) == 0
    assert tracer.yields["ideals.enumerate_ideals", "enumerate-G2", "G2"] == 8
    assert tracer.calls["affine.w_min"] == 8
    assert tracer.calls["cli.main"] == 1 and tracer.calls["cli.render"] == 1

    # shi.region_witness reaches feasible through the name in adnil.shi
    ideal = next(iter(ideals.enumerate_ideals(rootsys.build("G2"))))
    adnil.shi.region_witness(ideal)
    adnil.shi.region_witness(ideal)
    layers = summarize(tracer)
    assert layers["shi.region_witness.calls"] == 2
    assert layers["shi.feasible.per_witness"] <= 0.5
    assert layers["affine.w_min.calls_per_ideal"] == 8 / 9


def test_uninstall_restores_the_originals(tracer):
    import adnil.cli
    from adnil import affine

    tracer.uninstall()
    assert not hasattr(adnil.cli.w_min, "__wrapped__")
    assert adnil.cli.w_min is affine.w_min


def test_corrupted_output_counts_in_error_rate():
    pinned = load_pinned()
    job = {"name": "table7", "seed": 0, "argv": ["table7"]}
    code, out = child.run_job(job)
    assert checks.check(job, code, out, pinned) is None
    corrupted = out.replace("67 ", "68 ", 1)
    assert corrupted != out
    reason = checks.check(job, code, corrupted, pinned)
    assert reason is not None
    # a one-byte change that no parsed check looks at still fails the digest
    assert checks.check(job, code, out + " ", pinned) is not None

    tally = Tally([job, job])
    tally.add({"jobs": [{"name": "table7", "failure": None}, {"name": "table7", "failure": reason}]})
    assert (tally.attempted, len(tally.failures), tally.error_rate) == (2, 1, 0.5)


def test_host_speed_samples_during_the_block():
    with child.HostSpeed() as host:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    # before, at least three SIGALRM samples, after
    assert len(host.samples) >= 5
    assert host.speed > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_catalan_numbers_of_the_exceptional_types():
    assert [checks.catalan(t) for t in ("D4", "E6", "E7", "E8")] == [50, 833, 4160, 25080]
    assert checks.catalan("E8", strict=True) == 17342
