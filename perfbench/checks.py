"""Output checks for benchmark jobs, against references outside adnil.

The references are: the Catalan numbers of the Weyl groups, computed here
from the exponents and Coxeter numbers in the literature; the rows of
Table 7 of the paper; and SHA-256 digests of each job's output pinned
from the seed commit (``pinned.json``).  Nothing here imports adnil.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

# Coxeter number h and exponents e_i (Bourbaki, Lie groups ch. V-VI).
EXPONENTS = {
    "D4": (6, (1, 3, 3, 5)),
    "E6": (12, (1, 4, 5, 7, 8, 11)),
    "E7": (18, (1, 5, 7, 9, 11, 13, 17)),
    "E8": (30, (1, 7, 11, 13, 17, 19, 23, 29)),
}

# Table 7 of the paper: root system -> (minimax ideals, Borel-fiber ideals).
TABLE7 = {"D4": (9, 11), "D5": (23, 31), "E6": (67, 111), "F4": (17, 19), "G2": (3, 2)}

# Traced pass only: ideals that enumerate_ideals must yield in each job.
YIELDS = {"enumerate-E6": "E6", "enumerate-E7-minimax": "E7", "count-E8": "E8"}


def catalan(label: str, strict: bool = False) -> int:
    """Number of ad-nilpotent (strict: strictly positive) ideals.

    prod (h + e_i + 1) / (e_i + 1), or prod (h + e_i - 1) / (e_i + 1)
    (Cellini-Papi; Athanasiadis).
    """
    h, exps = EXPONENTS[label]
    shift = -1 if strict else 1
    out = Fraction(1)
    for e in exps:
        out *= Fraction(h + e + shift, e + 1)
    return int(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shi_pairs(seed: int) -> int:
    """Exclusivity pairs that ``verify shi --type D4 --seed`` draws."""
    rng = random.Random(f"{seed}:shi:D4")
    n = catalan("D4")
    return sum(rng.randrange(n) != rng.randrange(n) for _ in range(min(40, 2 * n)))


def normalize(job: dict, out: str) -> str:
    """Output with its seed-dependent part replaced by a placeholder."""
    if job["name"] == "verify-shi-D4":
        return re.sub(r"\d+ pairs *", "<pairs> ", out)
    return out


def _footer(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and " " not in key:
            values[key] = value
    return values


def check(job: dict, code, out: str, pinned: dict) -> str | None:
    """Reason the job's result is wrong, or None when every check passes."""
    if code != 0:
        return f"exit code {code}"
    name = job["name"]
    if "sample" in job:
        lines = out.splitlines(keepends=True)
        if len(lines) != len(job["pool_indices"]):
            return f"{len(lines)} sample lines for {len(job['pool_indices'])} ideals"
        pool = pinned["e8_pool"]
        for line, i in zip(lines, job["pool_indices"]):
            if digest(line) != pool[i]["digest"]:
                return f"sample ideal {i}: output digest differs from the pinned one"
        return None
    footer = _footer(out)
    if job["argv"][0] in ("verify", "table7") and footer.get("status") != "ok":
        return f"status {footer.get('status')!r}"
    if name == "table7":
        seen = {}
        for line in out.splitlines()[2:]:
            cells = line.split()
            if len(cells) == 6:
                seen[cells[1]] = (int(cells[2]), int(cells[3]))
        if seen != TABLE7:
            return f"table7 rows {seen} differ from the paper's {TABLE7}"
    if name == "enumerate-E6" and footer.get("count") != str(catalan("E6")):
        return f"count {footer.get('count')} != {catalan('E6')}"
    if name == "count-E8" and (
        footer.get("ideals") != str(catalan("E8"))
        or footer.get("strict_ideals") != str(catalan("E8", strict=True))
    ):
        return f"ideals/strict_ideals {footer.get('ideals')}/{footer.get('strict_ideals')}"
    if name == "verify-shi-D4":
        want = _shi_pairs(job["seed"])
        if not re.search(rf"\b{want} pairs\b", out):
            return f"expected {want} exclusivity pairs"
    if digest(normalize(job, out)) != pinned["digests"][name]:
        return "output digest differs from the pinned one"
    return None


def check_yields(job_name: str, yields: dict) -> str | None:
    """Traced pass: enumerate_ideals yields the Catalan number of W."""
    label = YIELDS.get(job_name)
    if label is None:
        return None
    got = yields.get(label, 0)
    if got != catalan(label):
        return f"enumerate_ideals yielded {got} {label} ideals, not {catalan(label)}"
    return None
