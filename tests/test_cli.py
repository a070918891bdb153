import json

import pytest

from portsim.cli import main


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

def test_missing_subcommand_exits_with_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
