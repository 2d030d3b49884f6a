"""End-to-end behavior of the command-line interface."""

import json
import shlex
import subprocess
import sys

import pytest

from motzkin import cli
from motzkin.classes import full_class, matches, normalize
from motzkin.paths import enumerate_motzkin, contains


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_count_basic(capsys):
    code, out, _ = run_cli(["count", "--avoid", "HH", "-N", "6"], capsys)
    assert code == 0
    assert out.strip() == "1,1,1,3,2,10,5"


def test_count_unrestricted(capsys):
    code, out, _ = run_cli(["count", "-N", "6"], capsys)
    assert code == 0
    assert out.strip() == "1,1,2,4,9,21,51"


def test_count_uhhd(capsys):
    code, out, _ = run_cli(["count", "--avoid", "UHHD", "-N", "5"], capsys)
    assert code == 0
    assert out.strip() == "1,1,2,4,8,18"


def test_count_with_oracle(capsys):
    code, out, _ = run_cli(
        ["count", "--avoid", "HH", "-N", "6", "--oracle"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1,1,1,3,2,10,5"
    assert len(lines) == 8
    assert all(line.endswith("MATCH") for line in lines[1:])


def test_count_oracle_mismatch_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_count", lambda *a, **k: -1)
    code, out, _ = run_cli(
        ["count", "--avoid", "HH", "-N", "3", "--oracle"], capsys)
    assert code == 3
    assert "MISMATCH" in out


def test_count_contain_flags(capsys):
    # one flag with alternatives, second flag conjunctive
    code, out, _ = run_cli(
        ["count", "--contain", "UU,HH", "--contain", "D", "-N", "5"], capsys)
    assert code == 0
    got = [int(v) for v in out.strip().split(",")]
    want = []
    for n in range(6):
        members = [w for w in enumerate_motzkin(n)
                   if (contains(w, "UU") or contains(w, "HH"))
                   and contains(w, "D")]
        want.append(len(members))
    assert got == want


def test_genfun_c_form(capsys):
    code, out, _ = run_cli(["genfun", "--pattern", "H", "--form", "C"], capsys)
    assert code == 0
    assert out.strip() == "0 + 1*C"


def test_genfun_minpoly(capsys):
    code, out, _ = run_cli(
        ["genfun", "--pattern", "HH", "--form", "minpoly"], capsys)
    assert code == 0
    want = "(4*x^4 - x^2)*D^2 + (4*x^3 - 4*x^2 - x + 1)*D + (5*x^2 - 1) = 0"
    assert out.strip() == want


def test_genfun_sqrt(capsys):
    code, out, _ = run_cli(
        ["genfun", "--pattern", "UHHD", "--form", "sqrt"], capsys)
    assert code == 0
    assert "sqrt(1-4*x^2)" in out
    assert "2*x^2" in out


def test_genfun_series(capsys):
    code, out, _ = run_cli(
        ["genfun", "--pattern", "H", "--form", "series:12"], capsys)
    assert code == 0
    assert out.strip() == "1,0,1,0,2,0,5,0,14,0,42,0,132"


def test_genfun_solver_route(capsys):
    code, out, _ = run_cli(
        ["genfun", "--avoid", "HH", "--form", "series:6"], capsys)
    assert code == 0
    assert out.strip() == "1,1,1,3,2,10,5"


def test_genfun_no_closed_form(capsys):
    code, out, err = run_cli(["genfun", "--contain", "H", "--form", "C"],
                             capsys)
    assert code == 4
    assert "no closed form" in err
    system = json.loads(out)
    assert set(system) == {"vars", "eqs"}


def test_genfun_usage_errors(capsys):
    code, _, err = run_cli(["genfun", "--form", "C"], capsys)
    assert code == 1 and "error" in err
    code, _, err = run_cli(
        ["genfun", "--pattern", "H", "--avoid", "UD"], capsys)
    assert code == 1
    code, _, _ = run_cli(["genfun", "--pattern", "H", "--form", "wat"],
                         capsys)
    assert code == 1
    code, _, _ = run_cli(["genfun", "--pattern", "H", "--form", "series:-2"],
                         capsys)
    assert code == 1


def test_spec_text(capsys):
    code, out, _ = run_cli(["spec", "--avoid", "HH", "--format", "text"],
                           capsys)
    assert code == 0
    assert "root: Av(HH)" in out
    assert "Av(HH) = Eps + AvH(HH) + AvU(HH)" in out
    assert "AvU(HH) = AvUx(-HH,H-) + AvUx(-H,HH-)&Co(H-)" in out
    assert "AvUx(-HH,H-) = x^2 * Av(H) * Av(HH)" in out


def test_spec_text_unrestricted(capsys):
    code, out, _ = run_cli(["spec", "--format", "text"], capsys)
    assert code == 0
    assert "Av() = Eps + AvH() + AvU()" in out
    assert "AvH() = x * Av()" in out
    assert "AvU() = x^2 * Av() * Av()" in out


def test_spec_json(capsys):
    code, out, _ = run_cli(["spec", "--avoid", "UHHD", "--format", "json"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "motzkin-spec/1"
    assert doc["root"] == "Av(UHHD)"
    assert set(doc["classes"]) == {r["lhs"] for r in doc["rules"]}
    assert set(doc["equations"]) == {"vars", "eqs"}
    for rule in doc["rules"]:
        assert rule["kind"] in ("union", "product", "epsilon", "empty")
        if rule["kind"] == "product":
            assert rule["atom"] in ("H", "UD")


def test_spec_dot(capsys):
    code, out, _ = run_cli(["spec", "--avoid", "HH", "--format", "dot"],
                           capsys)
    assert code == 0
    assert out.startswith("digraph spec {")
    assert out.rstrip().endswith("}")
    assert '"Av(HH)" -> "Eps"' in out


def test_enumerate_sorted(capsys):
    code, out, _ = run_cli(["enumerate", "--avoid", "HH", "-n", "3"], capsys)
    assert code == 0
    assert out.splitlines() == ["HUD", "UDH", "UHD"]


def test_enumerate_empty_path(capsys):
    code, out, _ = run_cli(["enumerate", "-n", "0"], capsys)
    assert code == 0
    assert out == "\n"


def test_enumerate_matches_filter(capsys):
    code, out, _ = run_cli(["enumerate", "--avoid", "UD", "-n", "4"], capsys)
    assert code == 0
    want = sorted(w for w in enumerate_motzkin(4) if not contains(w, "UD"))
    assert out.split() == want


def test_sample_unique_path(capsys):
    code, out, _ = run_cli(
        ["sample", "--avoid", "HH", "-n", "2", "--seed", "7"], capsys)
    assert code == 0
    assert out.strip() == "UD"


def test_sample_deterministic(capsys):
    argv = ["sample", "--avoid", "HH", "-n", "8", "--count", "5",
            "--seed", "123"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    for w in out1.split():
        assert not contains(w, "HH")
        assert len(w) == 8


def test_sample_long_path(capsys):
    code, out, _ = run_cli(
        ["sample", "-n", "1200", "--avoid", "HH", "--seed", "1"], capsys)
    assert code == 0
    paths = out.split()
    assert len(paths) == 1 and len(paths[0]) == 1200
    assert matches(normalize(full_class(avoid=("HH",))), paths[0])


def test_sample_empty_class(capsys):
    code, _, err = run_cli(["sample", "--avoid", "H", "-n", "3"], capsys)
    assert code == 2
    assert "no path of length 3" in err


def test_verify_single_pattern(capsys):
    code, out, _ = run_cli(["verify", "--avoid", "HH", "--max-len", "10"],
                           capsys)
    assert code == 0
    assert out.strip() == "Av(HH) [spec,oracle,delta] PASS"


def test_verify_pattern_set(capsys):
    code, out, _ = run_cli(
        ["verify", "--avoid", "HH", "--avoid", "UD", "--max-len", "8"],
        capsys)
    assert code == 0
    assert out.strip() == "Av(UD,HH) [spec,oracle] PASS"


def test_verify_sweep(capsys):
    code, out, _ = run_cli(["verify", "--all-up-to", "2", "--max-len", "8"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.endswith("PASS") for line in lines)


def test_verify_empty_word(capsys):
    code, out, _ = run_cli(["verify", "--avoid", "", "--max-len", "6"],
                           capsys)
    assert code == 0
    assert "PASS" in out


def test_verify_flag_conflict(capsys):
    code, _, err = run_cli(
        ["verify", "--all-up-to", "2", "--avoid", "HH"], capsys)
    assert code == 1
    assert "error" in err


def test_invalid_word_exits_1(capsys):
    code, _, err = run_cli(["count", "--avoid", "XY"], capsys)
    assert code == 1
    assert "invalid step" in err


def test_bad_subcommand_exits_1(capsys):
    code, _, _ = run_cli(["bogus"], capsys)
    assert code == 1


def test_negative_length_exits_1(capsys):
    code, _, _ = run_cli(["count", "-N", "-3"], capsys)
    assert code == 1


@pytest.mark.parametrize("args, code", [
    ("genfun --pattern ''", 0),
    ("count --avoid ''", 0),
    ("count --contain ''", 0),
    ("verify --all-up-to 0", 0),
    ("enumerate -n 30", 1),
    ("verify --max-len 19 --avoid HH", 1),
    ("count -N 19 --avoid HH --oracle", 1),
    ("sample -n 0 --avoid ''", 2),
    ("genfun --contain H --form sqrt", 4),
    ("genfun --pattern H --form series:99999999999999999999", 1),
])
def test_no_input_ends_in_traceback(args, code, capsys):
    # the over-cap oracle runs count n <= 18 by DP, then stop on the cap
    got, _, err = run_cli(shlex.split(args), capsys)
    assert got == code
    assert "Traceback" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "motzkin.cli", "count", "--avoid", "HH",
         "-N", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1,1,1,3,2"
