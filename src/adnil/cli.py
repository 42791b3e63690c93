"""Command line interface: argument parsing and report rendering.

The commands build reports from the library; the verification suites and
the reference table live in `adnil.verify`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .affine import factorize, is_minimax, w_min
from .counting import count_routes, enumeration_skip
from .ideals import (
    UpperIdeal,
    close_upward,
    enumerate_ideals,
    is_abelian,
    is_strictly_positive,
    weight,
)
from .normalizers import ParabolicLabel, normalizer
from .rootsys import ConfigurationError, RationalVector, _Value, build
from .verify import SUITES, run_suites, run_table7

__all__ = [
    "main",
    "Report",
    "render",
    "serialize_ideal",
    "parse_ideal",
]


# ---------- serialization ----------


def fmt_vec(coords) -> str:
    return "[" + ",".join(map(str, coords)) + "]"


def fmt_levi(label: ParabolicLabel) -> str:
    return ",".join(f"a{i + 1}" for i in label.levi_sorted()) or "-"


def serialize_ideal(ideal: UpperIdeal) -> dict:
    """JSON form of an ideal: type label plus generator coefficient vectors."""
    return {
        "type": ideal.rs.label,
        "generators": [list(g.coeffs) for g in ideal.generators()],
    }


def parse_ideal(obj: dict) -> UpperIdeal:
    """Inverse of serialize_ideal; a malformed payload is refused with ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"ideal payload {obj!r} is not an object")
    for key, kind in (("type", str), ("generators", list)):
        if not isinstance(obj.get(key), kind):
            raise ValueError(f"ideal payload has no {kind.__name__} under {key!r}")
    generators = obj["generators"]
    if not all(isinstance(g, list) for g in generators):
        raise ValueError(f"'generators' {generators!r} is not a list of lists")
    if any(type(c) is not int for g in generators for c in g):
        raise ValueError(f"'generators' {generators!r} have a non-int coefficient")
    return close_upward(build(obj["type"]), generators)


def _jsonable(value):
    """JSON form of a value in a verification failure payload."""
    if isinstance(value, UpperIdeal):
        return serialize_ideal(value)
    if isinstance(value, ParabolicLabel):
        return fmt_levi(value)
    if isinstance(value, RationalVector):
        return fmt_vec(value.coords)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


# ---------- report rendering ----------


class Report(_Value):
    """Tabular command output with a named-value footer.

    A footer value is a string, or a tuple of strings: one line each in text
    output, a list in JSON.
    """

    __slots__ = ("command", "label", "columns", "rows", "json_rows", "footer")


def _footer_lines(footer):
    for name, value in footer:
        for v in (value,) if isinstance(value, str) else value:
            yield name, v


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "command": report.command,
            "label": report.label,
            "columns": list(report.columns),
            "rows": list(report.json_rows),
            "footer": {k: v if isinstance(v, str) else list(v) for k, v in report.footer},
        }
        return json.dumps(payload, indent=2) + "\n"
    lines: list[str] = []
    if fmt == "tsv":
        head = f"# command: {report.command}"
        if report.label:
            head += f" {report.label}"
        lines.append(head)
        if report.columns:
            lines.append("\t".join(report.columns))
            for row in report.rows:
                lines.append("\t".join(row))
        for name, value in _footer_lines(report.footer):
            lines.append(f"# {name}\t{value}")
        return "\n".join(lines) + "\n"
    head = f"adnil {report.command}"
    if report.label:
        head += f" {report.label}"
    lines.append(head)
    if report.columns:
        widths = [len(c) for c in report.columns]
        for row in report.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(report.columns)).rstrip())
        for row in report.rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    for name, value in _footer_lines(report.footer):
        lines.append(f"{name}: {value}")
    return "\n".join(lines) + "\n"


# ---------- commands ----------


def cmd_enumerate(args) -> tuple[Report, int]:
    rs = build(args.type)
    skip = enumeration_skip(rs)
    if skip:
        raise ConfigurationError(skip)
    columns = ("generators", "weight", "levi", "w_min", "z")
    letters = tuple(f"s{i}" for i in range(rs.rank + 1))
    rows, json_rows = [], []  # only the format that is rendered is built
    for ideal in enumerate_ideals(rs):
        if args.strictly_positive and not is_strictly_positive(ideal):
            continue
        if args.abelian and not is_abelian(ideal):
            continue
        if args.minimax and not is_minimax(ideal):
            continue
        w = w_min(ideal)
        z = factorize(w).translation.coords
        lab = normalizer(ideal)
        gens = [g.coeffs for g in ideal.generators()]
        coords = weight(ideal).coords
        if args.json:
            json_rows.append(
                {
                    "generators": list(map(list, gens)),
                    "weight": list(map(str, coords)),
                    "levi": [i + 1 for i in lab.levi_sorted()],
                    "w_min": list(w.word),
                    "z": list(map(str, z)),
                }
            )
        else:
            generators = "|".join(map(fmt_vec, gens)) or "-"
            word = " ".join([letters[i] for i in w.word]) or "e"
            rows.append((generators, fmt_vec(coords), fmt_levi(lab), word, fmt_vec(z)))
    footer = (("count", str(len(rows) + len(json_rows))),)
    return Report("enumerate", rs.label, columns, tuple(rows), tuple(json_rows), footer), 0


def cmd_table7(args) -> tuple[Report, int]:
    rows, failures = run_table7()
    columns = ("algebra", "system", "minimax", "borel_fiber", "expected", "status")
    out_rows = tuple(tuple(str(cell) for cell in row) for row in rows)
    json_rows = tuple(dict(zip(columns, row)) for row in rows)
    footer = [("status", "mismatch" if failures else "ok")]
    if failures:
        footer.append(("mismatch", tuple(failures)))
    return (
        Report("table7", None, columns, out_rows, json_rows, tuple(footer)),
        3 if failures else 0,
    )


def cmd_count(args) -> tuple[Report, int]:
    rs = build(args.type)
    skip = enumeration_skip(rs)
    if skip:
        print(f"note: {skip}", file=sys.stderr)
    routes, ideals = count_routes(rs)
    agree = all(pair == routes["gf"] for pair in routes.values())
    footer = []
    for route, (n, n_strict) in routes.items():
        footer += [(f"borel_fiber_{route}", str(n)), (f"strict_borel_fiber_{route}", str(n_strict))]
    if ideals:
        footer += [("ideals", str(ideals[0])), ("strict_ideals", str(ideals[1]))]
    if len(routes) < 2:
        footer.append(("routes_agree", "n/a (one route)"))
    else:
        footer.append(("routes_agree", "yes" if agree else "NO"))
    if skip:
        footer.append(("skipped", skip))
    if rs.label in ("E7", "E8"):
        footer.append(("note", "computed output; no reference value"))
    return (
        Report("count", rs.label, (), (), (), tuple(footer)),
        0 if agree else 1,
    )


def cmd_verify(args) -> tuple[Report, int]:
    passed, failed = run_suites(args.suite, args.type, args.seed, args.n_max)
    label = build(args.type).label if args.type else None
    columns = ("suite", "check", "detail", "status")
    rows = [(*row, "ok") for row in passed]
    json_rows = [dict(zip(columns, row)) for row in rows]
    footer = (("status", "ok"), ("checks", str(len(rows))))
    if failed:
        name, failure = failed
        payload = _jsonable(failure.payload)
        rows.append((name, failure.check, "counterexample found", "FAIL"))
        json_rows.append(
            {"suite": name, "check": failure.check, "status": "FAIL", "counterexample": payload}
        )
        footer = (("status", "fail"), ("counterexample", json.dumps(payload, sort_keys=True)))
    report = Report("verify", label, columns, tuple(rows), tuple(json_rows), footer)
    return report, 1 if failed else 0


# ---------- argument parsing ----------


def _n_max(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below, with the out-of-range message
    if not 2 <= value <= 60:
        raise argparse.ArgumentTypeError("must be an integer from 2 to 60")
    return value


@cache  # built on the first call, shared by the later ones
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    fmt.add_argument("--tsv", action="store_true", help="emit a tab-separated report")
    common.add_argument("--out", metavar="FILE", help="write the report to FILE")

    parser = argparse.ArgumentParser(
        prog="adnil",
        description="Ad-nilpotent ideal computations over simple root systems.",
        epilog="Exit codes: 0 ok, 1 verification failure, 2 usage error, "
        "3 reference-table mismatch. Set ADNIL_MAX_RANK to raise the rank caps "
        "of the classical families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate",
        parents=[common],
        help="list the ideals of one root system",
    )
    p.add_argument("type", help="root system label, e.g. A4, D5, E6, F4, G2")
    p.add_argument(
        "--strictly-positive", action="store_true", help="only ideals without simple roots"
    )
    p.add_argument("--abelian", action="store_true", help="only square-zero ideals")
    p.add_argument(
        "--minimax", action="store_true", help="only ideals whose extremal elements agree"
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "table7",
        parents=[common],
        help="recompute the minimax / borel-fiber reference table",
    )
    p.set_defaults(func=cmd_table7)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run a verification suite",
    )
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--type", help="restrict the suite to one root system label")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument(
        "--n-max", type=_n_max, default=12, dest="n_max",
        help="bound for the identity battery",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "count",
        parents=[common],
        help="borel-fiber counts by generating function, lattice, and enumeration",
    )
    p.add_argument("type", help="root system label, e.g. B5, E8")
    p.set_defaults(func=cmd_count)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = "json" if args.json else "tsv" if args.tsv else "human"
    text = render(report, fmt)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
