"""In-memory span tracer that wraps public functions of the adnil modules.

Only the traced pass imports this module.  `Tracer.install` replaces each
target function by a timing wrapper in every ``adnil`` module that holds
it (``adnil.affine.w_min`` and ``adnil.cli.w_min`` alike), so calls made
through names imported from another module are seen too.  Spans stay in
memory; `Tracer.write` puts them in a file once the pass is over.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter

# Functions wrapped individually, by module.  The hot helpers
# reflect_affine_root, simple_reflection, affine_simple_root and inner run
# about a million times per pass and are left out so they do not swamp
# the trace; their time shows as self time of the caller.
TARGETS = {
    "rootsys": ("build",),
    "ideals": ("enumerate_ideals", "ideal_powers", "complement_chain", "is_strictly_positive"),
    "normalizers": ("normalizer", "normalizer_by_weight"),
    "affine": (
        "w_min", "w_max", "is_minimax", "word_from_biconvex", "from_word", "n_set",
        "factorize", "normalizer_by_zwall", "translation_element",
    ),
    "shi": ("feasible", "region_witness", "is_wall", "alcove_membership"),
    "counting": ("gf_count", "lattice_count", "verify_identities"),
    "linalg": ("solve",),
    "cli": ("main", "render"),
}
# Every public function of these modules is wrapped and reported only as a
# module total.
ROLLUP = ("typeac",)
LAYERS = tuple(TARGETS) + ROLLUP

# Span record fields.
NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Records one span per wrapped call (per ``next()`` for generators).

    A span is ``[name, start, end, parent, job]``: ``parent`` is the index
    of the enclosing span or -1, ``job`` the job that was running.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = ""
        self.calls: Counter = Counter()
        # (function, job, label of the root system) -> items yielded
        self.yields: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        # Only the time inside each next() is charged to the generator.
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            label = getattr(args[0], "label", "") if args else ""
            it = fn(*args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                self.yields[name, self.job, label] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``adnil`` module."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "adnil" or name.startswith("adnil.")
        }
        wrappers = {}
        for layer, names in TARGETS.items():
            mod = modules[f"adnil.{layer}"]
            for fn_name in names:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fn_name}", fn)
        for layer in ROLLUP:
            mod = modules[f"adnil.{layer}"]
            for fn_name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not fn_name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{fn_name}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines: name start end parent job."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[JOB]}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Returns ``(percentile, value)``; both are 0 with fewer than eleven
    samples.
    """
    n = len(durations)
    if n < 11:
        return 0.0, 0.0
    ordered = sorted(durations)
    k = n - 11  # ten samples lie above ordered[k]
    return 100.0 * (k + 1) / n, ordered[k]


# Functions whose per-call latency is reported as a median and a tail.
LATENCY = ("affine.w_min", "shi.feasible", "shi.is_wall", "shi.region_witness", "counting.lattice_count")


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, by name.

    Set-up is traced as the job ``setup``: it counts in the function and
    layer totals but not in the share of job time attributed to layers.
    """
    spans = tracer.spans
    own = self_times(spans)
    total: Counter = Counter()
    self_s: Counter = Counter()
    durations: dict[str, list[float]] = {name: [] for name in LATENCY}
    jobs: Counter = Counter()
    attributed = 0.0
    under_witness = 0
    for i, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        if name == "setup":
            continue
        if name == "job":
            jobs[s[JOB]] += duration
            continue
        total[name] += duration
        self_s[name] += own[i]
        if s[JOB] != "setup":
            attributed += own[i]
        if name in durations:
            durations[name].append(duration)
        if name == "shi.feasible" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "shi.region_witness":
            under_witness += 1

    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        for fn in names:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = tracer.calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.total_s"] = total[key]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["typeac.calls"] = sum(v for k, v in tracer.calls.items() if k.startswith("typeac."))
    for name in LATENCY:
        ms = [d * 1000 for d in durations[name]]
        pct, value = tail(ms)
        out[f"{name}.p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"{name}.tail_ms"] = value
        out[f"{name}.tail_pct"] = pct

    yields = sum(n for (fn, _, _), n in tracer.yields.items() if fn == "ideals.enumerate_ideals")
    types = {label for (fn, _, label) in tracer.yields if fn == "ideals.enumerate_ideals"}
    started = tracer.calls["ideals.enumerate_ideals"]
    witnesses = tracer.calls["shi.region_witness"]
    out["ideals.enumerate_ideals.yields"] = yields
    out["ideals.enumerate_ideals.types"] = len(types)
    out["affine.w_min.calls_per_ideal"] = tracer.calls["affine.w_min"] / yields if yields else 0.0
    out["ideals.enumerate_ideals.passes"] = started / len(types) if types else 0.0
    out["shi.feasible.per_witness"] = under_witness / witnesses if witnesses else 0.0
    wall = sum(jobs.values())
    for job, seconds in jobs.items():
        out[f"cli.job.{job}.s"] = seconds
    out["trace.attributed"] = attributed / wall if wall else 0.0
    return out
