import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import portsim
from helpers import stream_outcomes, teleport_rows
from portsim import cli, protocols
from portsim.cli import main
from portsim.protocols import (NumericalInvariantError, ProtocolKind,
                               expected_outcome_distribution, teleport_batch)

KINDS = [kind.value for kind in ProtocolKind]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ schur ----

def test_schur_human_table_shows_the_singlet(capsys):
    code, out, _ = run(capsys, ["schur", "--n", "2"])
    assert code == 0
    assert "coupled basis for n=2 qubits (4 labels)" in out
    assert "+0.70711|01> +0.70711|10>" in out
    assert "+0.70711|01> -0.70711|10>" in out


def test_schur_csv_uses_twice_integers_and_crlf(capsys):
    code, out, _ = run(capsys, ["schur", "--n", "2", "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "index,ks_twice,j_twice,s_twice,m_twice"
    assert lines[1] == "0,,1,2,2"
    assert lines[4] == "3,,1,0,0"


def test_schur_json_payload(capsys):
    code, out, _ = run(capsys, ["schur", "--n", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "portsim/v1"
    assert payload["command"] == "schur"
    assert payload["n_qubits"] == 3
    assert len(payload["labels"]) == 8


def test_schur_rejects_oversized_register(capsys):
    code, _, err = run(capsys, ["schur", "--n", "30"])
    assert code == 2
    assert err.startswith("error:")


def test_schur_human_labels_past_the_dense_cap(capsys, monkeypatch):
    # without vectors (n > 4) the human table builds no transform, so it
    # lists 13-qubit labels although the dense transform stops at 12
    monkeypatch.delenv("PORTSIM_MAX_PORTS", raising=False)
    code, out, err = run(capsys, ["schur", "--n", "13", "--format", "human"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "coupled basis for n=13 qubits (8192 labels)"
    assert [int(line.split()[0]) for line in lines[2:-1]] == list(range(8192))
    assert lines[-1].startswith("(vectors omitted")


def test_schur_labels_need_no_override_up_to_the_enumeration_cap(capsys, monkeypatch):
    # csv and json build no transform, so schur's cap is the label table's
    monkeypatch.delenv("PORTSIM_MAX_PORTS", raising=False)
    code, out, err = run(capsys, ["schur", "--n", "16", "--format", "csv"])
    assert code == 0 and err == ""
    assert out.count("\r\n") == 2 ** 16 + 1
    for n in ("0", "21"):
        code, out, err = run(capsys, ["schur", "--n", n, "--format", "csv"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# ------------------------------------------------------------- povm-check ----

def test_povm_check_default_sweep_passes(capsys):
    code, out, _ = run(capsys, ["povm-check"])
    assert code == 0
    assert out.count("[PASS]") == 9
    assert "9/9 suites passed" in out
    assert "worst frobenius" in out


def test_povm_check_single_regime(capsys):
    code, out, _ = run(capsys, ["povm-check", "--regime", "dpbt", "--ports", "1..2"])
    assert code == 0
    assert out.count("[PASS]") == 2
    assert "regime=dpbt ports=2" in out


def test_povm_check_detects_an_injected_fault(capsys):
    code, out, _ = run(capsys, ["povm-check", "--regime", "ppbt-mes",
                                "--ports", "2", "--inject-fault"])
    assert code == 1
    assert "[FAIL]" in out


def test_povm_check_port_range_validation(capsys):
    code, _, err = run(capsys, ["povm-check", "--ports", "1..9"])
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, ["povm-check", "--ports", "3..2"])
    assert code == 2


def _regex_port_range(text: str) -> tuple[int, int]:
    """The port range parse as a regular expression: the oracle for
    `cli._port_range`. `\\d` is any Unicode decimal digit, as int reads them."""
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if match is None:
        raise ValueError(f"expected a port count N or a range LO..HI, got {text!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if lo < 1 or hi < lo:
        raise ValueError(f"bad port range {text!r}")
    return lo, hi


# ASCII digits, an Arabic-Indic three, a fullwidth one and a superscript two
# (a digit, but not a decimal one), dots, signs, an underscore and whitespace
_RANGE_CHARS = "0123456789\u0663\uff11\u00b2.+-_ \t\n\u3000"


@st.composite
def _range_text(draw):
    # a free string, or two digit runs around up to three dots, padded on
    # each side
    chars = st.text(alphabet=_RANGE_CHARS, max_size=4)
    if draw(st.booleans()):
        return draw(st.text(alphabet=_RANGE_CHARS, max_size=12))
    digits = st.text(alphabet="0123456789\u0663\uff11\u00b2", max_size=3)
    return (draw(chars) + draw(digits) + draw(st.sampled_from(["", ".", "..", "..."]))
            + draw(digits) + draw(chars))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_range_text())
def test_port_range_parses_as_the_regular_expression(text):
    try:
        want = _regex_port_range(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            cli._port_range(text)
        assert str(got.value) == str(exc)
    else:
        assert cli._port_range(text) == want


@pytest.mark.parametrize("text, want", [
    ("3", (3, 3)), (" 1..5\n", (1, 5)), ("\u0663", (3, 3)), ("\uff11..\u0663", (1, 3)),
    ("007..10", (7, 10))])
def test_port_range_reads_decimal_digits_of_any_script(text, want):
    assert cli._port_range(text) == want == _regex_port_range(text)


@pytest.mark.parametrize("text", ["\u00b2", "1..\u00b2", "+1", "1_0", "1...3", "1..", "..2",
                                  "1 ..2", "", "0", "3..2"])
def test_port_range_rejects_what_the_regular_expression_rejects(text):
    with pytest.raises(ValueError) as got:
        cli._port_range(text)
    with pytest.raises(ValueError) as want:
        _regex_port_range(text)
    assert str(got.value) == str(want.value)


def test_povm_check_has_no_tolerance_option(capsys):
    # the tolerance is acceptance criterion 2's, not a knob
    code, out, err = run(capsys, ["povm-check", "--ports", "1", "--tolerance", "1e-3"])
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


# --------------------------------------------------------------- teleport ----

def test_teleport_runs_are_reproducible(capsys):
    argv = ["teleport", "--regime", "ppbt-opt", "--ports", "2",
            "--trials", "6", "--seed", "11"]
    code_a, out_a, _ = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "generator=PCG64" in out_a


def test_teleport_json_summary(capsys):
    code, out, _ = run(capsys, ["teleport", "--regime", "ppbt-mes", "--ports", "2",
                                "--trials", "8", "--seed", "1",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "portsim/v1"
    summary = payload["summary"]
    assert sum(summary["counts"]) == 8
    assert summary["exact_success_probability"] == pytest.approx(1 / 3, abs=1e-9)
    assert len(summary["expected_probabilities"]) == 3


def test_teleport_deterministic_json_reports_exact_fidelity(capsys):
    code, out, _ = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "1",
                                "--trials", "4", "--seed", "0",
                                "--format", "json"])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["exact_fidelity"] == pytest.approx(0.5, abs=1e-10)
    assert summary["mean_success_fidelity"] == pytest.approx(0.5, abs=1e-10)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_teleport_json_without_successes_is_strict_json(capsys, seed):
    # every trial fails at these seeds, so no success fidelity has a mean
    code, out, _ = run(capsys, ["teleport", "--regime", "ppbt-mes", "--ports", "1",
                                "--trials", "1", "--seed", str(seed), "--format", "json"])
    assert code == 0
    summary = json.loads(out, parse_constant=_reject_constant)["summary"]
    assert summary["counts"] == [0, 1]
    assert summary["mean_success_fidelity"] is None


def test_teleport_csv_has_one_row_per_trial(capsys):
    code, out, _ = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "2",
                                "--trials", "5", "--seed", "2", "--format", "csv"])
    assert code == 0
    rows = [line for line in out.split("\r\n") if line]
    assert len(rows) == 6  # header plus trials


def test_teleport_argument_validation(capsys):
    code, _, err = run(capsys, ["teleport", "--regime", "nonsense",
                                "--ports", "2"])
    assert code == 2
    code, _, err = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "0"])
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "2",
                                "--trials", "0"])
    assert code == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
def test_teleport_json_is_the_indented_dump_of_its_payload(capsys, kind, n):
    code, out, _ = run(capsys, ["teleport", "--regime", kind, "--ports", str(n),
                                "--trials", "200", "--seed", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    records = payload["trial_results"]
    assert [r["trial"] for r in records] == list(range(1, 201))
    failed = [r for r in records if not r["success"]]
    assert all(r["fidelity"] is None for r in failed)
    assert bool(failed) == kind.startswith("ppbt")


def test_teleport_csv_and_human_text_is_pinned(capsys):
    argv = ["teleport", "--regime", "ppbt-opt", "--ports", "2",
            "--trials", "12", "--seed", "5"]
    outcomes = [3, 3, 3, 2, 1, 2, 3, 1, 1, 3, 3, 2]
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out == "trial,outcome,success,fidelity\r\n" + "".join(
        f"{i},{o},true,1\r\n" if o < 3 else f"{i},{o},false,\r\n"
        for i, o in enumerate(outcomes, start=1))
    code, out, _ = run(capsys, argv + ["--format", "human"])
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert "".join(lines[:14]) == (
        "# teleport regime=ppbt-opt ports=2 trials=12 seed=5 rounds=3 "
        "c_star=1.15470053838 generator=PCG64\n"
        " trial outcome result  fidelity\n"
        "     1       3 fail    -\n"
        "     2       3 fail    -\n"
        "     3       3 fail    -\n"
        "     4       2 ok      1\n"
        "     5       1 ok      1\n"
        "     6       2 ok      1\n"
        "     7       3 fail    -\n"
        "     8       1 ok      1\n"
        "     9       1 ok      1\n"
        "    10       3 fail    -\n"
        "    11       3 fail    -\n"
        "    12       2 ok      1\n")
    assert "".join(lines[14:19]) == (
        "summary:\n"
        "  port 1   count      3  expected       2.40  z +0.433\n"
        "  port 2   count      3  expected       2.40  z +0.433\n"
        "  fail     count      6  expected       7.20  z -0.707\n"
        "  success rate 0.5  exact 0.4  z +0.707\n")
    # every success has the one exact fidelity, so a run with any success
    # deviates by nothing
    assert lines[19:] == ["  mean success fidelity 1  exact 1  |dev| 0.000e+00\n",
                          "  max outcome |z| 0.707\n"]


def test_teleport_human_summary_without_successes(capsys):
    # no trial succeeds, so the mean and its deviation are undefined
    code, out, _ = run(capsys, ["teleport", "--regime", "ppbt-mes", "--ports", "1",
                                "--trials", "1", "--seed", "1"])
    assert code == 0
    assert out.splitlines(keepends=True)[3:] == [
        "summary:\n",
        "  port 1   count      0  expected       0.25  z -0.577\n",
        "  fail     count      1  expected       0.75  z +0.577\n",
        "  success rate 0  exact 0.25  z -0.577\n",
        "  mean success fidelity nan  exact 1  |dev| nan\n",
        "  max outcome |z| 0.577\n"]


@pytest.mark.parametrize("kind", KINDS)
def test_teleport_formats_agree_trial_by_trial(capsys, kind):
    argv = ["teleport", "--regime", kind, "--ports", "2", "--trials", "40",
            "--seed", "9", "--format"]
    records = json.loads(run(capsys, argv + ["json"])[1])["trial_results"]
    csv_rows = [line.split(",") for line in run(capsys, argv + ["csv"])[1].split("\r\n")[1:-1]]
    human_rows = [line.split() for line in run(capsys, argv + ["human"])[1].splitlines()[2:42]]
    assert len(records) == len(csv_rows) == len(human_rows) == 40
    for record, row, line in zip(records, csv_rows, human_rows):
        trial, outcome = str(record["trial"]), str(record["outcome"])
        fid = record["fidelity"]
        text = "" if fid is None else f"{fid:.12g}"
        assert row == [trial, outcome, "true" if record["success"] else "false", text]
        assert line == [trial, outcome, "ok" if record["success"] else "fail", text or "-"]


# ------------------------------------------------------------------ table ----

def test_fidelity_table_header_and_values(capsys):
    code, out, _ = run(capsys, ["table", "--metric", "fidelity",
                                "--ports", "1..3", "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "n_ports,f_mes,f_opt,gap_mes_x_n,gap_opt_x_n2"
    assert lines[3].startswith("3,0.75,")


def test_success_table_header(capsys):
    code, out, _ = run(capsys, ["table", "--metric", "success",
                                "--ports", "2..4", "--format", "csv"])
    assert code == 0
    assert out.split("\r\n")[0] == "n_ports,p_mes,p_opt,gap_mes_x_sqrt_n,gap_opt_x_n"


def test_resource_table_round_count_is_epsilon_independent(capsys):
    code, out, _ = run(capsys, ["table", "--metric", "resources",
                                "--ports", "2..5", "--epsilon", "1e-3",
                                "--format", "csv"])
    assert code == 0
    lines = [line for line in out.split("\r\n") if line]
    header = lines[0].split(",")
    column = header.index("ppbt_mes_n")
    for row in lines[1:]:
        assert row.split(",")[column] == "5"


def test_resource_table_json_round_trips(capsys):
    code, out, _ = run(capsys, ["table", "--metric", "resources",
                                "--ports", "2..3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "portsim/v1"
    rows = payload["rows"]
    assert [row["n_ports"] for row in rows] == [2, 3]
    assert all("dpbt_opt_ancillas" in row for row in rows)


def test_table_argument_validation(capsys):
    code, _, err = run(capsys, ["table", "--metric", "fidelity", "--ports", "5..2"])
    assert code == 2
    code, _, err = run(capsys, ["table", "--metric", "fidelity",
                                "--epsilon", "0"])
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------------- environment ----

# one command per subcommand, each at size 3: within every default cap
SIZE_3_COMMANDS = [
    ["schur", "--n", "3"],
    ["povm-check", "--ports", "1..3"],
    ["teleport", "--regime", "dpbt", "--ports", "3", "--trials", "1"],
    ["table", "--metric", "fidelity", "--ports", "1..3"],
]


@pytest.mark.parametrize("argv", SIZE_3_COMMANDS, ids=lambda argv: argv[0])
def test_port_cap_env_override_lowers_the_cap(capsys, monkeypatch, argv):
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "2")
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "cap 2" in err


@pytest.mark.parametrize("argv", SIZE_3_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("raw", ["many", "0"])
def test_port_cap_env_override_rejects_garbage(capsys, monkeypatch, argv, raw):
    monkeypatch.setenv("PORTSIM_MAX_PORTS", raw)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "PORTSIM_MAX_PORTS" in err


@pytest.mark.parametrize("argv", [
    ["povm-check", "--ports", "7"],
    ["schur", "--n", "21"],
    ["table", "--metric", "resources", "--ports", "12"],
    ["table", "--metric", "resources", "--ports", "1", "--epsilon", "1e-310"],
    ["teleport", "--regime", "dpbt", "--ports", "2", "--trials", "3", "--seed", "-1"],
    ["povm-check", "--ports", "6..7"],
    ["teleport", "--regime", "dpbt", "--ports", "13", "--trials", "1"],
])
def test_library_range_errors_exit_as_bad_arguments(capsys, monkeypatch, argv):
    # a raised cap lets the request through to the library's own limits
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "25")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    if "--seed" in argv:
        assert "--seed" in err
    for ports in ("12", "13"):
        if ports in argv:
            # the compile cap names the requested port count, not the qubit count
            assert ports in err and str(int(ports) + 1) not in err


def test_teleport_past_the_check_cap_names_the_amplification_check(capsys, monkeypatch):
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "13")
    code, out, err = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "13",
                                  "--trials", "1"])
    assert code == 2 and out == ""
    assert err == "error: n_ports must be in 1..12 for the amplification check, got 13\n"
    # the CI step greps only this end of the line
    assert err.endswith("got 13\n")


def test_resource_table_checks_its_whole_range_before_any_compile(capsys, monkeypatch):
    # N=12 is past the compiled program's limit, so N=10 and 11 never compile
    compiled = []
    original = protocols._compile

    def counted(spec, n):
        program = original(spec, n)
        compiled.append(n)
        return program

    monkeypatch.setattr(protocols, "_compile", counted)
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "12")
    code, out, err = run(capsys, ["table", "--metric", "resources", "--ports", "10..12"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.rstrip().endswith("got 12")
    assert compiled == []


def test_povm_check_checks_its_whole_range_before_any_build(capsys, monkeypatch):
    # N=7 is past the dense oracle's limit, so no N=6 suite builds first: the
    # one call is N=7's, which raises at its argument check
    calls, built = [], []
    original = cli.build_povm

    def counted(regime, n):
        calls.append(n)
        povm = original(regime, n)
        built.append(n)
        return povm

    monkeypatch.setattr(cli, "build_povm", counted)
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "25")
    code, out, err = run(capsys, ["povm-check", "--ports", "6..7"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.rstrip().endswith("got 7")
    assert (calls, built) == ([7], [])


def test_success_table_needs_no_label_enumeration(capsys, monkeypatch):
    # 22 qubits is past the label enumeration cap, which the sector sum never meets
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "25")
    code, out, err = run(capsys, ["table", "--metric", "success", "--ports", "21",
                                  "--format", "json"])
    assert code == 0 and err == ""
    row = json.loads(out)["rows"][0]
    assert row["p_opt"] == pytest.approx(21 / 24, abs=1e-15)


# sha256 of the stdout bytes of schur labels and exact tables in all three
# formats, and of the closed-form against oracle report: the spin and sector
# bookkeeping underneath must not move a single byte
OUTPUT_SHA256 = {
    "schur --n 1 --format human":
        "56944b3bab2d964998418c9e1879368964f07917b89dc203200288aa01f25e4f",
    "schur --n 1 --format json":
        "bd2ab63a78065e68c0238bc76f2043ed82d2cbdfc70c63f0435895362a14841a",
    "schur --n 1 --format csv":
        "2d234c740be59f70bf456b0835713272066b190fcba7ee9295dfa840dc16dd2f",
    "schur --n 2 --format human":
        "f50a74cb8c1c13491bda83f21d0590690a9eb8de00cc23d6f1488e83442690aa",
    "schur --n 2 --format json":
        "955b193bf5c98123c6e5f53efab07937b8ff9a564785493cf438844c843376ed",
    "schur --n 2 --format csv":
        "69faa552ffd66757213209d6194be6ec7f3af58bff05a5e8411c3c562e593e10",
    "schur --n 3 --format human":
        "d2670adb90e02dd71151534deb3d120cff07b1863ef97ddb4dfacaa5ff2fe1f3",
    "schur --n 3 --format json":
        "20489b9a562aa54f6b45501fa333f2d1d754adcae826d46b99f558e1bea51f11",
    "schur --n 3 --format csv":
        "294b853117afdcb0f308348a78c60abbe59340cba872153afda5bb86896a1cbc",
    "schur --n 4 --format human":
        "36e1fe0052351867b53cb0a792aa37d47d61f8c0d3cbf8949c79515f8d195d6a",
    "schur --n 4 --format json":
        "e54acb2da127e4de34d779f0b3b324e66cfa4e53f87ea06d8821b753af1cbbae",
    "schur --n 4 --format csv":
        "7d7d1bd890e030c1c059e41691c938faf47d427b00a78da9d090fc8addea2de1",
    "schur --n 5 --format human":
        "b4f74dc9fce3c83f7d3fb609ca11c1957d295f782f59ac6073f2c33965516f5a",
    "schur --n 5 --format json":
        "9567b52b8be8cbd185c3ebbf974687116a9a5d575ad15947b770e7b36728857a",
    "schur --n 5 --format csv":
        "a75b87e430835b3c711b396c3dc9d283a451f41a49fce21534a9409fd8d3b65e",
    "schur --n 6 --format human":
        "e4099193b3cd29754b9d2feb1130cd91e9e5b2a16734a336e1ec7f6a91d361bb",
    "schur --n 6 --format json":
        "bf7a89d6f90b26c57d2125cd9fb283460968f255fc06dd7055ac11c5e2526ccf",
    "schur --n 6 --format csv":
        "5f1a94d47638e43fb3dc8c1e14bc3ec4e1616b959d4e8ad28c1c394b362a69d7",
    "schur --n 7 --format human":
        "205b050ab9db787c61e14591a49a78d37d5b8b7c40b8c5e41ceb6e17e85de25b",
    "schur --n 7 --format json":
        "f3d1e815a53684108d339ea5d7b964287958110fb1d0d630b7ce0a9db59a8843",
    "schur --n 7 --format csv":
        "0de87cb3fda588ae7a7a15634ca0f73a7d28ade67c15f86447615e94968100ad",
    "table --metric fidelity --ports 1..6 --format human":
        "51559d7c824299e44e3d7766ac2abb05cf7f71076fa8e54740bf1f8c99655de2",
    "table --metric fidelity --ports 1..6 --format json":
        "65998ab5775f5325f827a86a28c0275140cb323b423f32046d41ae4e5879a6ca",
    "table --metric fidelity --ports 1..6 --format csv":
        "0c0786382eac578fc9f86ecc5a0b8277c0ab764e93004c7e3eb9873d7ac468ea",
    "table --metric success --ports 1..6 --format human":
        "7a5f545c0c685d3b61ff6710dfbd36e58bb0d980419ee006f67d1fa18a694867",
    "table --metric success --ports 1..6 --format json":
        "5e12d844d6969ce2aff3031eb283f499706af7f7efce457ade3d55b76c0535b9",
    "table --metric success --ports 1..6 --format csv":
        "7ea0a0b8a25d0775da4d4b9c14f046bea4765d47294f0bb3e203fe3efe8b160f",
    "table --metric resources --ports 1..6 --format human --schur-variant bch":
        "97cea974c02a3b448d211585f3482bd98c78db07fcd34c7beb63ea3e79e86964",
    "table --metric resources --ports 1..6 --format human --schur-variant spin":
        "bd7b57f32494c71008c4ce55995db28a0e59d9d9d71d27b6095cdf8c7d2571c8",
    "table --metric resources --ports 1..6 --format json --schur-variant bch":
        "2435b2475cc627978d4a49ae9652f2e8131174a633303c237938b402e5bf9e92",
    "table --metric resources --ports 1..6 --format json --schur-variant spin":
        "d789e42a21355fc5304d2aefe5152ffceb4e5f4264684ac9d54a85b1dd1b145d",
    "table --metric resources --ports 1..6 --format csv --schur-variant bch":
        "43766af6d1dd4370ff8a4ca7b5b49dd83e9fec77a7eafb0a25b0f190c73f56f6",
    "table --metric resources --ports 1..6 --format csv --schur-variant spin":
        "4b15bfe552c0d5fe77f11897e63f85a3ee222f14e46ebbd57419104f97f4c975",
    "povm-check --regime all --ports 1..5":
        "a1627510ad1d7eb0d94ce52bd1d128c3f0938f1cb2ed5b928c4bb37a529f0f76",
}


# Seeded runs long enough to span several stdout blocks. The digests pin
# the PCG64 streams, bit-identical to numpy's Generator(PCG64(seed)).random,
# and the exact float arithmetic of every trial.
TELEPORT_SHA256 = {
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format human":
        "9e04856f7a013f2d4281c17de67503c3c15519a228ab7b4e04514f66cb5fe1ef",
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format json":
        "ae5f9032ff94d0874f2ba476072c118b9d95dac6206f1ceb38f1fa2eb4b0d4c6",
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format csv":
        "73453286e19f1684a10735aebd084062ee6430e110881bf2ab8b433e4c1cc0ec",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format human":
        "fb240035b0923661beb69596149261ce9c327cf0fdad3170788dd807a483eff6",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format json":
        "a181864e25aba06c5e190c6a47b2a72d67da380c403ac50bbd088995a06090bb",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format csv":
        "c7db9767523bbf83e7a99289fc4ede70863472109709ab0123788664739f6e4e",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format human":
        "0c6d5593c0ede07a8f01f7c823c942084fec71dfc614627acf894d7a61ec7c12",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format json":
        "b05092d67a78242a0df7d14da77c45b93e3a45781b4e9f3ce726d4cf18d0f2c7",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format csv":
        "1f25d3384dee44b9fffd9ebd3e9798aca5b5a976f0344e13d6f1911a29b6e9a8",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format human":
        "f51380b1d0a4052b6fbbdf01e023f5c2f7d08b28a768b7b987f7c8c57f276929",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format json":
        "bddd0214678cbc2c24d5933496a1f7b1ec0b70412f0b787a172f40972c2f3c5b",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format csv":
        "73da079739a58bd0c28519be236de7926975473140f60b4ba8e51b95cdba76c0",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format human":
        "df49a1ba48af89d5bb8df25f6ed26b95e94dd46c11fec739171189389e10de32",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format json":
        "3f832fc048e67d0b497a9f8662d363f93a67d78cf27afb85ed8f229b35383ddd",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format csv":
        "64530c91d500a1a778cfdb1969445fc72b4dccaafecf1e9c6b99aff5469e6802",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format human":
        "5b1e20236030e47923119b82f118ba7f6d83e5ea445e3fef3f1febce2a3ad530",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format json":
        "d909b32f9525d6d84e6f4f8defa4471e590f5836d308a35e8d474023b54d0fc6",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format csv":
        "e1658322094fe6ace38d48d21b5646c718b1ca74413ddbbbac7f63acff66885c",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format human":
        "ec362fa61d3b58c806ad6b1ea766a7ce7eda2af35abcc3c719ed83a7caa5f0c3",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format json":
        "cb69df91c8605dbe42be140c1082fa0eb6fb45a0a0c20bcfe043977c473824a5",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format csv":
        "c66088f61f98b15642589076ab72f27cad9bde9e276b88b7842e760f69926186",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format human":
        "4d9b80f412733d90fbe6d63fb5022b8b95a5f498a5205d0c246b5db376b4a7fe",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format json":
        "568e9cf3cf189a78996325da6513583c33afd9cef0271bcef76cc0248edecad2",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format csv":
        "d26d8f3cd57a6fd06bd72c85b654b330d7ca9ac42683ea939f492159f30c6586",
}


@pytest.mark.parametrize("command", list(OUTPUT_SHA256))
def test_schur_and_table_output_bytes_are_pinned(capsys, command):
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]


@pytest.mark.parametrize("command", list(TELEPORT_SHA256))
def test_seeded_teleport_output_bytes_are_pinned(capsys, command):
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TELEPORT_SHA256[command]


# one sha256 over the stdout of 216 seeded runs, every kind at N = 1..6
TELEPORT_GRID_SHA256 = "b5fc536d479106533504cace6d0b2e5fd018fc567b6766253898eb95156b4681"


def test_teleport_bytes_across_kinds_ports_seeds_and_formats_are_pinned(capsys):
    digest = hashlib.sha256()
    for kind in KINDS:
        for n in range(1, 7):
            for seed in (0, 7, 1234):
                for fmt in ("json", "csv", "human"):
                    code, out, _ = run(capsys, ["teleport", "--regime", kind, "--ports", str(n),
                                                "--trials", "2000", "--seed", str(seed),
                                                "--format", fmt])
                    assert code == 0
                    digest.update(out.encode())
    assert digest.hexdigest() == TELEPORT_GRID_SHA256


def test_seeded_json_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel from the CPU; the instrument reads no BLAS
    # product, so the AVX2 and the AVX kernels write the bytes the default
    # one does
    commands = [c for c in TELEPORT_SHA256 if c.endswith("json")]
    script = ("import contextlib, hashlib, io, sys\n"
              "from portsim.cli import main\n"
              "for command in sys.argv[1:]:\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert main(command.split()) == 0\n"
              "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    digests = []
    for coretype in (None, "Haswell", "Sandybridge"):
        env = {k: v for k, v in _src_env().items() if k != "OPENBLAS_CORETYPE"}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run([sys.executable, "-c", script, *commands], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert len(commands) == 8
    assert digests[0] == digests[1] == digests[2] == [TELEPORT_SHA256[c] for c in commands]


class _CountingWriter:
    def __init__(self):
        self.writes = 0
        self.text = []

    def write(self, text):
        self.writes += 1
        self.text.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("kind", KINDS)
def test_teleport_writes_rows_in_blocks(monkeypatch, fmt, kind):
    # a write-through stdout (PYTHONUNBUFFERED) makes every write a system call
    sink = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["teleport", "--regime", kind, "--ports", "2", "--trials", "10000",
                 "--seed", "4", "--format", fmt]) == 0
    assert 10 <= sink.writes <= 20
    rows = "".join(sink.text).count("\n")
    assert rows >= 10000


@pytest.mark.parametrize("argv", [
    *(["table", "--metric", metric, "--format", fmt]
      for metric in ("fidelity", "success", "resources") for fmt in ("human", "json", "csv")),
    ["povm-check", "--ports", "1..5"],
], ids=" ".join)
def test_small_documents_leave_in_at_most_two_writes(monkeypatch, argv):
    # a table or a povm-check report is one small document
    sink = _CountingWriter()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert 1 <= sink.writes <= 2


def _rows_and_batch(capsys, fmt, kind, n, trials, seed):
    """The trial rows `teleport` prints, cut out of its output, and the batch
    they come from."""
    code, out, _ = run(capsys, ["teleport", "--regime", kind, "--ports", str(n),
                                "--trials", str(trials), "--seed", str(seed), "--format", fmt])
    assert code == 0
    if fmt == "csv":
        rows = out.partition("\r\n")[2]
    elif fmt == "human":
        rows = "".join(out.splitlines(keepends=True)[2:2 + trials])
    else:
        rows = out.partition('"trial_results": [')[2].rpartition("\n  ]")[0]
    batch = teleport_batch(ProtocolKind(kind), n, trials, rng=seed)
    return rows, batch


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_block_rows_match_the_per_row_renderers(capsys, fmt, kind, n):
    # runs that end inside, on and just past a block boundary
    for trials in (1, 999, 1000, 1001, 2345):
        rows, batch = _rows_and_batch(capsys, fmt, kind, n, trials, seed=trials)
        assert rows == teleport_rows(fmt, batch.outcomes, batch.fidelities, n)


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_block_rows_without_a_success(capsys, monkeypatch, fmt):
    # seed 0 fails its one trial; with four rows to a block, seed 3 leaves
    # whole blocks without a success
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    for trials, seed in ((1, 0), (40, 3)):
        rows, batch = _rows_and_batch(capsys, fmt, "ppbt-mes", 1, trials, seed)
        failed = (batch.outcomes > 1).reshape(-1, min(trials, 4)).all(axis=1)
        assert (failed.any() and not failed.all()) if trials > 1 else failed.all()
        assert rows == teleport_rows(fmt, batch.outcomes, batch.fidelities, 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_teleport_outcomes_follow_the_seeded_uniforms(capsys, monkeypatch, kind, n):
    # the stream contract across chunks of one block: the t-th trial reads
    # the t-th uniform of one PCG64(seed) draw
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", cli._BLOCK_ROWS)
    expected = expected_outcome_distribution(ProtocolKind(kind), n)
    for seed in (0, 7, 1234):
        code, out, _ = run(capsys, ["teleport", "--regime", kind, "--ports", str(n),
                                    "--trials", "2000", "--seed", str(seed),
                                    "--format", "csv"])
        assert code == 0
        outcomes = [int(row.split(",")[1]) for row in out.split("\r\n")[1:-1]]
        assert outcomes == stream_outcomes(expected, seed, 2000).tolist()


def test_expected_distribution_is_built_once_per_run(capsys, monkeypatch):
    # three chunks share one cached, read-only array
    protocols.expected_outcome_distribution.cache_clear()
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", cli._BLOCK_ROWS)
    code, _, _ = run(capsys, ["teleport", "--regime", "ppbt-mes", "--ports", "6",
                              "--trials", "2500", "--format", "csv"])
    assert code == 0
    info = protocols.expected_outcome_distribution.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# stdout of 10,003 trials at N=2, seed 7, three chunks or one. Every success
# has the one exact fidelity, so the chunks leave no byte to differ, the mean
# fidelity line included
ONE_SHOT_SHA256 = {
    ("dpbt", "json"): "efc00f55278068bfd29787530b9dad51678c0fdc853b9409922dfcc5b32c5804",
    ("dpbt", "csv"): "eb3e9f98be5b9b783cdeea31cb360e6bb601a44fecfc9783cd5b3aebb88888aa",
    ("dpbt", "human"): "9b7fb6a6b66eea9ba50e7348090e1da538fbdbaf915746220714156d9087e635",
    ("dpbt-opt", "json"): "455a7b3c5332249140a0810b9852bc615b2b9511c4f10aabe29ab6c82d1c0cd1",
    ("dpbt-opt", "csv"): "bd532c8fb9ba8501207f23bbba001578e82073a557d6dd0b262e41b350f2aaf9",
    ("dpbt-opt", "human"): "21bd824a84e09d6f4a6e0ab5414103aeb13e8faa4d76fc6dd1d422652383be2f",
    ("ppbt-mes", "json"): "4143d81189225a662818a30b9d891e6d7b50482c395d5cbe6e0376281652bfd6",
    ("ppbt-mes", "csv"): "5e0d57a600385b4605819a60cc21689366946d7a68dd96f70dea12bfa1acbdf5",
    ("ppbt-mes", "human"): "9acfd55a875929d3ef0700d1d364403f2bb7c192b55feddbe6bac902fdf7219d",
    ("ppbt-opt", "json"): "1ad0a115b86fd240908d610bb819ea6342be79a0337bbdff2528b4d5ec7358d8",
    ("ppbt-opt", "csv"): "40ba08ed05273e724fc8f1fa5b30fd25b076bcdec6805789cbd030316281c982",
    ("ppbt-opt", "human"): "ac43bca640475a6e45a66b1f6355cfcd7e13660db92a90c281348cd9504975cd",
}


@pytest.mark.parametrize("kind, fmt", list(ONE_SHOT_SHA256))
def test_chunked_output_matches_the_one_shot_bytes(capsys, monkeypatch, kind, fmt):
    argv = ["teleport", "--regime", kind, "--ports", "2", "--trials", "10003", "--seed", "7",
            "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ONE_SHOT_SHA256[kind, fmt]
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", 11 * cli._BLOCK_ROWS)
    assert run(capsys, argv) == (0, out, "")


def test_teleport_memory_does_not_grow_with_the_trials(monkeypatch):
    # before chunking, a trial held about 190 bytes until the summary: 19 MB here
    monkeypatch.setattr(sys, "stdout", _CountingWriter())
    tracemalloc.start()
    try:
        assert main(["teleport", "--regime", "ppbt-opt", "--ports", "3", "--trials",
                     "100000", "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------- plumbing ----

def _detuned_attach(monkeypatch) -> str:
    spec = protocols._SPECS[ProtocolKind.PPBT_OPT]
    broken = spec._replace(attach=lambda n: spec.attach(n) * (1 - 1e-6))
    monkeypatch.setitem(protocols._SPECS, ProtocolKind.PPBT_OPT, broken)
    with pytest.raises(NumericalInvariantError) as info:
        protocols._check_amplification(broken, 2)
    assert 1e-6 <= info.value.residual <= 3e-6
    return f"{info.value.residual:.3e}"  # the amplification precondition residual


def _attach_above_one(monkeypatch) -> str:
    spec = protocols._SPECS[ProtocolKind.PPBT_OPT]
    broken = spec._replace(attach=lambda n: spec.attach(n) * 10)
    monkeypatch.setitem(protocols._SPECS, ProtocolKind.PPBT_OPT, broken)
    with pytest.raises(NumericalInvariantError) as info:
        protocols._check_amplification(broken, 2)
    assert info.value.residual > 1
    return f"{info.value.residual:.3e}"  # the attach amplitude's excess over 1


TELEPORT = "teleport --regime ppbt-opt --ports 2 --trials 5"


@pytest.mark.parametrize("breakage, command", [
    (_detuned_attach, TELEPORT), (_attach_above_one, TELEPORT),
    # the whole-register build reads the same attach table as the check
    (_attach_above_one, "table --metric resources --ports 2"),
], ids=["attach", "attach-above-one", "attach-above-one-table"])
def test_broken_invariant_exits_with_one_error_line(capsys, monkeypatch, breakage, command):
    protocols._check_amplification.cache_clear()
    try:
        residual = breakage(monkeypatch)
        code, out, err = run(capsys, command.split())
    finally:
        protocols._check_amplification.cache_clear()
        protocols._compile.cache_clear()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert residual in err
    assert "Traceback" not in err


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    def exhausted(kind, n_ports, trials, rng):
        raise MemoryError(f"Unable to allocate {trials * 8} bytes")

    # the first chunk's draw fails, before any output
    monkeypatch.setattr(cli, "teleport_batch", exhausted)
    code, out, err = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "2",
                                  "--trials", "100000000", "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory: Unable to allocate {cli._CHUNK_TRIALS * 8} bytes\n"
    assert "Traceback" not in err


def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(portsim.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_exits_1_without_a_traceback():
    # `portsim teleport ... --format csv | head -1`: the reader leaves early
    script = ("import sys\n"
              "from portsim.cli import main\n"
              "sys.exit(main(['teleport', '--regime', 'dpbt', '--ports', '2',\n"
              "               '--trials', '200000', '--format', 'csv']))\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "trial,outcome,success,fidelity\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_program_builds_and_teleport_never_import_numpy_ma():
    script = (
        "import contextlib, io, sys\n"
        "from portsim.cli import main\n"
        "from portsim.protocols import ProtocolKind, build_program\n"
        "for kind in ProtocolKind:\n"
        "    build_program(kind, 2)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['teleport', '--regime', 'ppbt-opt', '--ports', '2',\n"
        "                 '--trials', '50', '--format', 'json']) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_cli_import_generates_no_dataclasses_and_only_teleport_draws():
    # the records are NamedTuples and plain classes, so importing the CLI
    # generates no code; the PCG64 stream is left to teleport, the one
    # command that draws, and even teleport never loads numpy.random (with
    # it secrets, hmac and _hashlib); the command line is read without
    # argparse, so neither gettext nor, once a command runs, locale loads
    script = (
        "import contextlib, io, sys\n"
        "import portsim.cli\n"
        "print('dataclasses' in sys.modules)\n"
        "print([m for m in ('argparse', 'gettext') if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['table', '--metric', 'resources', '--ports', '1..3'],\n"
        "                 ['povm-check', '--ports', '1..2'], ['schur', '--n', '3']):\n"
        "        assert portsim.cli.main(argv) == 0, argv\n"
        "print([m for m in ('numpy.random', 'secrets', 'portsim.pcg64') if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert portsim.cli.main(['teleport', '--regime', 'dpbt', '--ports', '2',\n"
        "                             '--trials', '5000', '--format', 'csv']) == 0\n"
        "print([m for m in ('numpy.random', 'secrets', 'portsim.pcg64') if m in sys.modules])\n"
        "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n")
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n[]\n[]\n['portsim.pcg64']\n[]\n"


_PORT_RANGES = st.sampled_from(["1", "2", "1..3", "2..5", "3..1", "0", "-1", "8", "1..8",
                                "a..b", "1..", ""])
_FORMATS = st.sampled_from(["human", "json", "csv", "xml"])
_FLAGS = {
    "schur": {"--n": st.integers(-2, 8).map(str), "--format": _FORMATS},
    "povm-check": {"--regime": st.sampled_from(["dpbt", "ppbt-mes", "ppbt-opt", "all", "x"]),
                   "--ports": _PORT_RANGES, "--inject-fault": st.none()},
    "teleport": {"--regime": st.sampled_from([*KINDS, "pbt"]),
                 "--ports": st.integers(-2, 8).map(str),
                 "--trials": st.integers(-1, 50).map(str),
                 "--seed": st.integers(-1, 3).map(str), "--format": _FORMATS},
    "table": {"--metric": st.sampled_from(["fidelity", "success", "resources", "cost"]),
              "--ports": _PORT_RANGES,
              "--epsilon": st.sampled_from(["nan", "inf", "-inf", "1e-310", "0", "1",
                                            "0.5", "1e-10", "eps"]),
              "--schur-variant": st.sampled_from(["bch", "spin", "fft"]),
              "--format": _FORMATS},
}


@st.composite
def _argv(draw):
    # each of the command's flags three times in four, then at most one
    # unknown or malformed flag, in any order
    command = draw(st.sampled_from(list(_FLAGS)))
    groups = []
    for name, values in _FLAGS[command].items():
        if draw(st.integers(0, 3)):
            value = draw(values)
            groups.append([name] if value is None else [name, value])
    groups += [[flag] for flag in draw(st.lists(st.sampled_from(
        ["--bogus", "--ports=2", "-q", "--trials", "--format=json", "extra", "--",
         "--form=json", "--inject-fault=1"]), max_size=1))]
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_0_1_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert _one_error_line(err.getvalue()), (argv, err.getvalue())


def _one_error_line(err: str) -> bool:
    return err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus"], ["Table"]])
def test_missing_subcommand_exits_with_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err), err
    assert "schur, povm-check, teleport, table" in err


# ----------------------------------------------------------------- parser ----

_FORMAT_CHOICES = ["human", "json", "csv"]
# every option of every command, with its choices
_OPTIONS = {
    "schur": {"--n": [], "--format": _FORMAT_CHOICES},
    "povm-check": {"--regime": ["dpbt", "ppbt-mes", "ppbt-opt", "all"], "--ports": [],
                   "--inject-fault": []},
    "teleport": {"--regime": KINDS, "--ports": [], "--trials": [], "--seed": [],
                 "--format": _FORMAT_CHOICES},
    "table": {"--metric": ["fidelity", "success", "resources"], "--ports": [],
              "--epsilon": [], "--schur-variant": ["bch", "spin"],
              "--format": _FORMAT_CHOICES},
}

_SMALL_RUNS = {argv[0]: argv for argv in SIZE_3_COMMANDS}


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", list(_OPTIONS))
def test_command_help_lists_every_option_and_choice(capsys, command, flag):
    # help needs none of the required options, and wins over those given
    for argv in ([command, flag], [command, *_SMALL_RUNS[command][1:], flag]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith(f"usage: portsim {command} ")
        for name, choices in _OPTIONS[command].items():
            assert f"  {name}" in out, name
            for choice in choices:
                assert choice in out, (name, choice)


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_cleanly(capsys, flag):
    code, out, err = run(capsys, [flag])
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.split("commands:\n")[1].splitlines()[:4]] \
        == list(_OPTIONS)


@pytest.mark.parametrize("argv, defaults", [
    (["schur", "--n", "3"], ["--format", "human"]),
    (["povm-check"], ["--regime", "all", "--ports", "1..3"]),
    (["teleport", "--regime", "ppbt-mes", "--ports", "2"],
     ["--trials", "1000", "--seed", "0", "--format", "human"]),
    (["table", "--metric", "resources"],
     ["--ports", "1..6", "--epsilon", "1e-10", "--schur-variant", "bch", "--format", "human"]),
], ids=list(_OPTIONS))
def test_omitted_options_take_their_defaults(capsys, argv, defaults):
    implicit = run(capsys, argv)
    assert implicit[0] == 0
    assert run(capsys, argv + defaults) == implicit


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_equals_forms_and_unique_prefixes_read_as_whole_names(capsys, command):
    argv = _SMALL_RUNS[command] + ["--format", "csv"] * (command != "povm-check")
    expected = run(capsys, argv)
    assert expected[0] == 0
    # --name=value, then a unique prefix of every name
    joined = [argv[0]] + [f"{name}={value}" for name, value in zip(argv[1::2], argv[2::2])]
    assert run(capsys, joined) == expected
    prefixes = {"--ports": "--port", "--format": "--f", "--regime": "--r", "--trials": "--t",
                "--metric": "--m", "--n": "--n"}
    assert run(capsys, [prefixes.get(token, token) for token in argv]) == expected


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_a_repeated_option_takes_its_last_value(capsys, command):
    argv = _SMALL_RUNS[command]
    expected = run(capsys, argv)
    assert expected[0] == 0
    # an earlier value of the last option, valid but different, is overridden
    earlier = {"schur": "2", "povm-check": "1..2", "teleport": "40", "table": "2..4"}[command]
    assert run(capsys, argv[:-1] + [earlier, argv[-2], argv[-1]]) == expected


@pytest.mark.parametrize("argv, named", [
    (["teleport", "--regime", "dpbt", "--ports"], "--ports"),
    (["schur", "--n", "2", "--format"], "--format"),
    (["table", "--metric", "fidelity", "--bogus", "1"], "--bogus"),
    (["schur", "--n", "2", "-q"], "-q"),
    (["povm-check", "--ports", "1", "extra"], "extra"),
    (["povm-check", "--ports", "1", "--"], "--"),
    (["schur", "--n", "2", "--format", "xml"], "--format"),
    (["teleport", "--regime", "pbt", "--ports", "2"], "--regime"),
    (["table", "--metric", "cost"], "--metric"),
    (["table", "--metric", "resources", "--schur-variant", "fft"], "--schur-variant"),
    (["teleport", "--regime", "dpbt", "--ports", "2", "--trials", "many"], "--trials"),
    (["schur", "--n", "2.5"], "--n"),
    (["teleport", "--regime", "dpbt", "--ports", "2", "--seed", ""], "--seed"),
    (["table", "--metric", "resources", "--epsilon", "tiny"], "--epsilon"),
    (["povm-check", "--ports", "a..b"], "--ports"),
    (["povm-check", "--inject-fault=1"], "--inject-fault"),
    (["table", "--ports", "1"], "--metric"),
    (["teleport", "--ports", "2"], "--regime"),
])
def test_bad_arguments_exit_2_with_one_error_line_naming_the_option(capsys, argv, named):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_error_line(err), err
    assert named in err


def test_a_value_is_taken_as_given(capsys):
    # a value that starts with "-" is the option's value, not the next option
    # (`--seed -1` reaching its own check is a library range case above)
    code, out, err = run(capsys, ["povm-check", "--ports", "--regime"])
    assert (code, out) == (2, "")
    assert err == ("error: argument --ports: expected a port count N or a range LO..HI, "
                   "got '--regime'\n")
