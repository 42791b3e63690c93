"""Write ``pinned.json``: the E8 sample pool and the reference output digests.

Run only on a commit whose output is the reference (the pinned file was
made at the commit that added the benchmark), from the repository root:

    PYTHONPATH=src python3 perfbench/pin.py

The pool holds E8 ideals whose minimal affine element has a word of
200 to 320 letters, so any ten of them cost about the same and every seed
draws a similar amount of work.  The digests are those of each job's
output for seed 0, with the seed-dependent part masked (checks.normalize).
"""

from __future__ import annotations

import json
import random
import sys

import checks
import child
from workloads import PINNED, WORKLOADS, make_jobs

POOL_SIZE = 64
WORD_LENGTHS = range(200, 321)


def make_pool() -> list[dict]:
    from adnil import affine, build
    from adnil.ideals import enumerate_ideals

    ideals = list(enumerate_ideals(build("E8")))
    order = list(range(len(ideals)))
    random.Random(0).shuffle(order)
    pool = []
    for i in order:
        ideal = ideals[i]
        # Cheap pre-filter on ideal size before building the word.
        if not 85 <= bin(ideal.bits).count("1") <= 106:
            continue
        if len(affine.w_min(ideal).word) not in WORD_LENGTHS:
            continue
        gens = [list(g.coeffs) for g in ideal.generators()]
        code, out = child.run_job({"name": "e8-sample", "sample": [gens]})
        if code != 0:
            sys.exit(f"sample ideal {gens} failed")
        pool.append({"generators": gens, "digest": checks.digest(out)})
        if len(pool) == POOL_SIZE:
            return pool
    sys.exit("not enough E8 ideals in the word-length band")


def main() -> None:
    pinned = {"e8_pool": make_pool(), "digests": {}}
    for workload in WORKLOADS:
        for job in make_jobs(workload, 0, pinned):
            if "sample" in job:
                continue
            code, out = child.run_job(job)
            if code != 0:
                sys.exit(f"{job['name']} exited with {code}")
            pinned["digests"][job["name"]] = checks.digest(checks.normalize(job, out))
            print(job["name"], pinned["digests"][job["name"]])
    with open(PINNED, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
