"""The benchmark's workloads: fixed job lists, made from one seed.

A job is a dict.  ``argv`` jobs run ``adnil.cli.main(argv)`` in-process;
the ``sample`` job runs close_upward -> w_min -> factorize on E8 ideals
given as generator lists.  Jobs run one after another (a closed loop with
one client).

Why each workload:

- ``enumerate``: affine peeling and dense matrix products, no Shi work.
  E6 (36 roots) and the E8 sample (120 roots, words of 200-320 letters)
  show whether a kernel gain grows with rank.
- ``oracles``: the exact Shi LP (``shi.feasible``) does almost all the
  work; B3 adds a non-simply-laced type.
- ``census``: bitset ideal enumeration, normalizers, lattice counts and
  the type A/C models, with no Shi; the bypass workload for Shi and
  affine changes.
- ``affine-laws``: random words through ``from_word`` and ``n_set``, so
  the affine layer is used differently from ``enumerate``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

SAMPLE_SIZE = 10

# argv lists, and the root systems each workload builds (set-up builds
# them all before the timed pass).
WORKLOADS = {
    "enumerate": {
        "types": ("E6", "E8"),
        "jobs": (
            ("enumerate-E6", ["enumerate", "E6"]),
            ("e8-sample", None),
        ),
    },
    "oracles": {
        "types": ("D4", "B3"),
        "jobs": (
            ("verify-normalizer-oracles-D4", ["verify", "normalizer-oracles", "--type", "D4"]),
            ("verify-normalizer-oracles-B3", ["verify", "normalizer-oracles", "--type", "B3"]),
            ("verify-shi-D4", ["verify", "shi", "--type", "D4", "--seed", "{seed}"]),
        ),
    },
    "census": {
        "types": (
            "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4",
            "D5", "E6", "E7", "E8", "F4", "G2",
        ),
        "jobs": (
            ("count-E8", ["count", "E8"]),
            ("table7", ["table7"]),
            ("verify-counting", ["verify", "counting"]),
            ("verify-typeAC", ["verify", "typeAC"]),
            ("verify-identities", ["verify", "identities"]),
            ("enumerate-E7-minimax", ["enumerate", "E7", "--minimax", "--tsv"]),
        ),
    },
    "affine-laws": {
        "types": ("F4", "D4"),
        "jobs": (
            ("verify-affine-F4", ["verify", "affine", "--type", "F4", "--seed", "{seed}"]),
            ("verify-affine-D4", ["verify", "affine", "--type", "D4", "--seed", "{seed}"]),
        ),
    },
}

JOB_NAMES = tuple(name for w in WORKLOADS.values() for name, _ in w["jobs"])


def load_pinned() -> dict:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


def make_jobs(workload: str, seed: int, pinned: dict) -> list[dict]:
    """The job list of one workload for one seed."""
    jobs = []
    for name, argv in WORKLOADS[workload]["jobs"]:
        if argv is None:
            pool = pinned["e8_pool"]
            picks = random.Random(seed).sample(range(len(pool)), SAMPLE_SIZE)
            jobs.append(
                {
                    "name": name,
                    "seed": seed,
                    "pool_indices": picks,
                    "sample": [pool[i]["generators"] for i in picks],
                }
            )
        else:
            jobs.append(
                {"name": name, "seed": seed, "argv": [a.format(seed=seed) for a in argv]}
            )
    return jobs
