"""Command line interface: formats, exit codes, determinism, round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import adnil
from adnil import counting, ideals, normalizers, verify
from adnil.cli import main, parse_ideal, serialize_ideal
from adnil.ideals import enumerate_ideals
from adnil.rootsys import ConfigurationError, build


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_stays_light():
    # dataclasses and the inspect module it pulls in were a quarter of the
    # import time; -S keeps site from importing either before the check
    script = (
        "import sys; before = set(sys.modules); import adnil.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(adnil.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_enumerate_row_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "G2")
    assert code == 0
    assert out.count("\n") == 11  # header + title + 8 rows + footer
    assert "count: 8" in out
    code, out, _ = run(capsys, "enumerate", "A4", "--minimax")
    assert code == 0 and "count: 9" in out
    code, out, _ = run(capsys, "enumerate", "C2")
    assert code == 0 and "count: 6" in out


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "A3", "--abelian")
    assert code == 0 and "count: 8" in out
    code, out, _ = run(capsys, "enumerate", "A3", "--strictly-positive")
    assert code == 0 and "count: 5" in out
    code, out, _ = run(capsys, "enumerate", "A3", "--strictly-positive", "--abelian")
    assert code == 0 and "count: 5" in out


def test_enumerate_tsv(capsys):
    code, out, _ = run(capsys, "enumerate", "C2", "--tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# command: enumerate C2"
    assert lines[1].split("\t") == ["generators", "weight", "levi", "w_min", "z"]
    assert len([l for l in lines if not l.startswith("#")]) == 7  # header + 6 rows
    assert lines[-1] == "# count\t6"


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "A4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["label"] == "A4"
    assert payload["footer"]["count"] == "42"
    assert len(payload["rows"]) == 42
    for row in payload["rows"]:
        ideal = parse_ideal({"type": "A4", "generators": row["generators"]})
        assert serialize_ideal(ideal)["generators"] == row["generators"]
        assert len(row["weight"]) == 4
        assert all(isinstance(v, int) for v in row["w_min"])


def test_serialize_parse_identity_across_types():
    for label in ("A3", "C3", "G2"):
        rs = build(label)
        for c in enumerate_ideals(rs):
            blob = serialize_ideal(c)
            assert blob["type"] == label
            back = parse_ideal(json.loads(json.dumps(blob)))
            assert back.bits == c.bits


def test_parse_ideal_refuses_non_int_coefficients():
    # int() would take each of these; an exact coefficient must already be a JSON integer
    for bad in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError, match="non-int coefficient"):
            parse_ideal({"type": "A2", "generators": [[bad, 0]]})


def test_table7_ok(capsys):
    code, out, _ = run(capsys, "table7")
    assert code == 0
    assert "status: ok" in out
    assert "MISMATCH" not in out
    code, out, _ = run(capsys, "table7", "--json")
    payload = json.loads(out)
    assert [r["system"] for r in payload["rows"]] == ["D4", "D5", "E6", "F4", "G2"]
    assert all(r["status"] == "ok" for r in payload["rows"])
    assert [r["minimax"] for r in payload["rows"]] == [9, 23, 67, 17, 3]
    assert [r["borel_fiber"] for r in payload["rows"]] == [11, 31, 111, 19, 2]


def test_table7_reports_every_mismatch(capsys, monkeypatch):
    wrong_d4 = ("so_8", "D4", 10, 12)  # both cells off by one
    monkeypatch.setattr(verify, "TABLE_ROWS", (wrong_d4,) + verify.TABLE_ROWS[1:])
    code, out, _ = run(capsys, "table7")
    assert code == 3
    assert [l for l in out.splitlines() if l.startswith("mismatch: ")] == [
        "mismatch: D4 minimax: computed 9, expected 10",
        "mismatch: D4 borel-fiber: computed 11, expected 12",
    ]
    code, out, _ = run(capsys, "table7", "--json")
    footer = json.loads(out)["footer"]
    assert code == 3 and footer["status"] == "mismatch"
    assert footer["mismatch"] == [
        "D4 minimax: computed 9, expected 10",
        "D4 borel-fiber: computed 11, expected 12",
    ]


def test_table7_checks_every_counting_route(capsys, monkeypatch):
    real = counting.gf_count

    def off_by_one_on_d4(rs, target):
        return real(rs, target) + (rs.label == "D4" and target == 1)

    monkeypatch.setattr(counting, "gf_count", off_by_one_on_d4)
    code, out, _ = run(capsys, "table7", "--json")
    report = json.loads(out)
    assert code == 3
    assert [r["status"] for r in report["rows"]] == ["MISMATCH", "ok", "ok", "ok", "ok"]
    assert report["footer"] == {
        "status": "mismatch",
        "mismatch": [
            "D4 borel-fiber routes disagree (all/strict): "
            "gf 12/4, lattice 11/4, enumeration 11/4"
        ],
    }


def test_count_e6(capsys):
    code, out, _ = run(capsys, "count", "E6", "--json")
    assert code == 0
    footer = json.loads(out)["footer"]
    assert footer["borel_fiber_gf"] == "111"
    assert footer["strict_borel_fiber_gf"] == "53"
    assert footer["borel_fiber_lattice"] == "111"
    assert footer["borel_fiber_enumeration"] == "111"
    assert footer["routes_agree"] == "yes"
    assert "note" not in footer


def test_count_reports_disagreeing_routes(capsys, monkeypatch):
    real = counting.gf_count
    monkeypatch.setattr(counting, "gf_count", lambda rs, target: real(rs, target) + 1)
    code, out, _ = run(capsys, "count", "D4", "--json")
    footer = json.loads(out)["footer"]
    assert code == 1
    assert footer["borel_fiber_gf"] == "12" and footer["borel_fiber_lattice"] == "11"
    assert footer["routes_agree"] == "NO"


def test_count_b5_equals_c5(capsys):
    _, out_b, _ = run(capsys, "count", "B5", "--json")
    _, out_c, _ = run(capsys, "count", "C5", "--json")
    fb, fc = json.loads(out_b)["footer"], json.loads(out_c)["footer"]
    assert fb == fc


def test_count_flags_systems_without_reference_values(capsys):
    code, out, _ = run(capsys, "count", "E7", "--json")
    assert code == 0
    footer = json.loads(out)["footer"]
    assert footer["borel_fiber_gf"] == "432"
    assert footer["strict_borel_fiber_gf"] == "244"
    assert footer["note"] == "computed output; no reference value"


def test_count_note_does_not_depend_on_the_label_case(capsys):
    code, out, _ = run(capsys, "count", "e7")
    assert code == 0
    assert "note: computed output; no reference value" in out


def _forbid_ideal_walks(monkeypatch):
    """Make every walk over upper sets raise, so a lost refusal fails, not hangs."""

    def refuse(above):
        raise AssertionError("walked the upper sets beyond the enumeration limit")

    monkeypatch.setattr(ideals, "_upper_sets", refuse)
    monkeypatch.setattr(normalizers, "_upper_sets", refuse)


def test_count_skips_enumeration_beyond_the_limit(capsys, monkeypatch):
    monkeypatch.setenv("ADNIL_MAX_RANK", "15")
    _forbid_ideal_walks(monkeypatch)
    start = time.monotonic()
    code, out, err = run(capsys, "count", "A15")  # 35,357,670 ideals
    assert time.monotonic() - start < 10
    assert code == 0
    assert "enumeration skipped: A15 has 35357670 ideals" in err
    assert "borel_fiber_gf: 310572" in out
    assert "ideals:" not in out and "borel_fiber_enumeration" not in out
    assert "routes_agree: n/a (one route)" in out
    assert "skipped: enumeration skipped: A15 has 35357670 ideals" in out
    code, out, _ = run(capsys, "count", "A15", "--json")
    assert code == 0
    footer = json.loads(out)["footer"]
    assert footer["routes_agree"] == "n/a (one route)"
    assert footer["skipped"].startswith("enumeration skipped: A15 has 35357670 ideals")


def test_enumerating_commands_refuse_beyond_the_limit(capsys, monkeypatch):
    monkeypatch.setenv("ADNIL_MAX_RANK", "15")
    _forbid_ideal_walks(monkeypatch)
    for args in (
        ("enumerate", "A15"),
        ("verify", "normalizer-oracles", "--type", "A15"),
        ("verify", "affine", "--type", "A15"),
        ("verify", "shi", "--type", "A15"),
        ("verify", "all", "--type", "A15"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *args)  # 35,357,670 ideals
        assert time.monotonic() - start < 10, args
        assert code == 2 and out == "", args
        assert err.startswith("error: ") and "A15 has 35357670 ideals" in err, args
        assert "limit of 100000" in err, args
    code, out, _ = run(capsys, "verify", "counting", "--type", "A15")
    assert code == 0 and "three-route[A15]" in out


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "identities")
    assert code == 0
    assert "226 checks" in out
    assert "status: ok" in out


def test_verify_restricted_to_one_type(capsys):
    code, out, _ = run(capsys, "verify", "normalizer-oracles", "--type", "A2")
    assert code == 0
    assert "five-way-normalizer[A2]" in out
    assert "A3" not in out


def test_verify_builds_w_min_once_per_ideal(monkeypatch):
    real = verify.w_min
    calls = []

    def counted(ideal):
        calls.append(ideal)
        return real(ideal)

    monkeypatch.setattr(verify, "w_min", counted)
    runners = verify.suite_runners("G2", 0, 12)
    for name in ("normalizer-oracles", "affine", "shi"):
        runners[name]()
    assert len(calls) == 8  # G2 has 8 ideals


def test_run_suites_refuses_a_type_it_cannot_take(monkeypatch):
    for suite in ("typeAC", "identities"):
        with pytest.raises(ConfigurationError, match=f"^verify {suite} does not take --type$"):
            verify.run_suites(suite, "A2", 0, 12)
    monkeypatch.setenv("ADNIL_MAX_RANK", "15")
    _forbid_ideal_walks(monkeypatch)
    for suite in ("normalizer-oracles", "affine", "shi", "all"):
        with pytest.raises(ConfigurationError, match="A15 has 35357670 ideals.*limit of 100000"):
            verify.run_suites(suite, "A15", 0, 12)


def test_run_suites_returns_passed_rows_and_the_first_failure(monkeypatch):
    assert verify.run_suites("normalizer-oracles", "G2", 0, 12) == (
        [("normalizer-oracles", "five-way-normalizer[G2]", "8 ideals")],
        None,
    )
    fake = SimpleNamespace(name="fake", argument=3, lhs=1, rhs=2, passed=False)
    monkeypatch.setattr(verify, "verify_identities", lambda n_max: (fake,))
    rows, (name, failure) = verify.run_suites("all", "G2", 0, 12)
    assert rows[-1][0] == "typeAC" and name == "identities"
    assert failure.check == "identity" and failure.payload["name"] == "fake"


def test_verify_reports_first_counterexample(capsys, monkeypatch):
    fake = SimpleNamespace(name="fake", argument=3, lhs=1, rhs=2, passed=False)
    monkeypatch.setattr(verify, "verify_identities", lambda n_max: (fake,))
    code, out, _ = run(capsys, "verify", "identities", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["footer"]["status"] == "fail"
    assert payload["rows"][-1]["status"] == "FAIL"
    example = payload["rows"][-1]["counterexample"]
    assert example["name"] == "fake" and example["argument"] == 3


def _routes_with(monkeypatch, route, side, value):
    """Make `verify.count_routes` report `value` on one side (0 all, 1 strict)
    of one route's pair."""
    real = verify.count_routes

    def fake(rs):
        routes, ideals = real(rs)
        pair = list(routes[route])
        pair[side] = value
        routes[route] = tuple(pair)
        return routes, ideals

    monkeypatch.setattr(verify, "count_routes", fake)


@pytest.mark.parametrize(
    "route, side, check, payload",
    [
        (
            "lattice",
            1,
            "lattice-vs-gf",
            {"type": "G2", "gf": [2, 1], "lattice": [2, 7]},
        ),
        (
            "enumeration",
            0,
            "enumeration-vs-gf",
            {"type": "G2", "gf": [2, 1], "enumeration": [7, 1]},
        ),
    ],
)
def test_verify_counting_reports_a_disagreeing_route(
    capsys, monkeypatch, route, side, check, payload
):
    _routes_with(monkeypatch, route, side, 7)
    code, out, _ = run(capsys, "verify", "counting", "--type", "G2")
    assert code == 1
    assert out.splitlines()[2].split() == ["counting", check, "counterexample", "found", "FAIL"]
    code, out, _ = run(capsys, "verify", "counting", "--type", "G2", "--json")
    report = json.loads(out)
    assert code == 1
    assert report["rows"] == [
        {"suite": "counting", "check": check, "status": "FAIL", "counterexample": payload}
    ]
    assert report["footer"] == {
        "status": "fail",
        "counterexample": json.dumps(payload, sort_keys=True),
    }


def test_verify_refuses_type_for_suites_without_one(capsys):
    for args in (("typeAC", "--type", "E8"), ("identities", "--type", "G2")):
        code, out, err = run(capsys, "verify", *args)
        assert code == 2 and out == "", args
        assert err.startswith("error: ") and "--type" in err, args
    code, out, _ = run(capsys, "verify", "all", "--type", "G2")
    assert code == 0 and "status: ok" in out and "226 checks" in out


def test_verify_seed_changes_nothing_structural(capsys):
    code_a, out_a, _ = run(capsys, "verify", "affine", "--type", "G2", "--seed", "1")
    code_b, out_b, _ = run(capsys, "verify", "affine", "--type", "G2", "--seed", "2")
    assert code_a == code_b == 0
    assert out_a == out_b  # detail columns carry counts, not samples


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "identities", "--n-max", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "identities", "--n-max", "61"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "A3", "--json", "--tsv"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_label_spelling_does_not_change_the_report(capsys):
    _, canonical, _ = run(capsys, "verify", "shi", "--type", "B2", "--seed", "0")
    code, lowercase, _ = run(capsys, "verify", "shi", "--type", "b2", "--seed", "0")
    assert code == 0 and lowercase == canonical
    for command in ("enumerate", "count"):
        _, canonical, _ = run(capsys, command, "G2", "--json")
        _, lowercase, _ = run(capsys, command, "g2", "--json")
        assert lowercase == canonical, command


def test_bad_labels_exit_two(capsys):
    code, out, err = run(capsys, "enumerate", "Z9")
    assert code == 2 and out == "" and "error" in err
    code, _, err = run(capsys, "count", "A99")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", "affine", "--type", "Q1")
    assert code == 2 and "error" in err


def test_out_file_and_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, out, _ = run(capsys, "enumerate", "C3", "--json", "--out", str(first))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "enumerate", "C3", "--json", "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_out_to_a_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "table7", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.exists()
