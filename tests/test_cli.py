import json
import os
import subprocess
import sys

import pytest

import portsim
from portsim import protocols
from portsim.cli import main
from portsim.protocols import ProtocolKind, resource_matrix

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
    outcomes = [1, 3, 1, 3, 2, 3, 2, 3, 3, 2, 3, 3]
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
        "     1       1 ok      1\n"
        "     2       3 fail    -\n"
        "     3       1 ok      1\n"
        "     4       3 fail    -\n"
        "     5       2 ok      1\n"
        "     6       3 fail    -\n"
        "     7       2 ok      1\n"
        "     8       3 fail    -\n"
        "     9       3 fail    -\n"
        "    10       2 ok      1\n"
        "    11       3 fail    -\n"
        "    12       3 fail    -\n")
    assert "".join(lines[14:19]) == (
        "summary:\n"
        "  port 1   count      2  expected       2.40  z -0.289\n"
        "  port 2   count      3  expected       2.40  z +0.433\n"
        "  fail     count      7  expected       7.20  z -0.118\n"
        "  success rate 0.416666666667  exact 0.4  z +0.118\n")
    # the deviation is a last-bit rounding residue, so only its layout is pinned
    assert lines[19].startswith("  mean success fidelity 1  exact 1  |dev| ")
    assert lines[20:] == ["  max outcome |z| 0.433\n"]


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

def test_port_cap_env_override_lowers_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "2")
    code, _, err = run(capsys, ["schur", "--n", "3"])
    assert code == 2
    assert "error:" in err


def test_port_cap_env_override_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "many")
    code, _, err = run(capsys, ["schur", "--n", "2"])
    assert code == 2
    assert "PORTSIM_MAX_PORTS" in err


@pytest.mark.parametrize("argv", [
    ["povm-check", "--ports", "7"],
    ["schur", "--n", "21"],
    ["table", "--metric", "resources", "--ports", "12"],
    ["povm-check", "--ports", "1", "--tolerance", "nan"],
    ["povm-check", "--ports", "1", "--tolerance", "-1"],
])
def test_library_range_errors_exit_as_bad_arguments(capsys, monkeypatch, argv):
    # a raised cap lets the request through to the library's own limits
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "25")
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_success_table_needs_no_label_enumeration(capsys, monkeypatch):
    # 22 qubits is past the label enumeration cap, which the sector sum never meets
    monkeypatch.setenv("PORTSIM_MAX_PORTS", "25")
    code, out, err = run(capsys, ["table", "--metric", "success", "--ports", "21",
                                  "--format", "json"])
    assert code == 0 and err == ""
    row = json.loads(out)["rows"][0]
    assert row["p_opt"] == pytest.approx(21 / 24, abs=1e-15)


# ---------------------------------------------------------------- plumbing ----

def test_broken_invariant_exits_with_one_error_line(capsys, monkeypatch):
    scaled = 1.1 * resource_matrix(ProtocolKind.PPBT_OPT, 2)
    monkeypatch.setattr(protocols, "resource_matrix", lambda *_: scaled)
    protocols._instrument.cache_clear()
    try:
        code, out, err = run(capsys, ["teleport", "--regime", "ppbt-opt",
                                      "--ports", "2", "--trials", "5"])
    finally:
        protocols._instrument.cache_clear()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2.100e-01" in err  # the residual, 1.1^2 - 1
    assert "Traceback" not in err


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
    src = os.path.dirname(os.path.dirname(portsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_missing_subcommand_exits_with_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
