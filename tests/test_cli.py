import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import portsim
from helpers import one_shot_draws, teleport_rows
from portsim import cli, protocols
from portsim.cli import main
from portsim.protocols import NumericalInvariantError, ProtocolKind, haar_inputs, teleport_batch

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
# numpy's PCG64 streams and the exact float arithmetic of every trial.
TELEPORT_SHA256 = {
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format human":
        "76a5fe1247f6980e83cc209b8c654fb2271f351f122726e09867769c58ec813a",
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format json":
        "4be688b1ff608661a75395f7ca99f2969f617391607fc80f2988ccfe74a0cd61",
    "teleport --regime dpbt --ports 2 --trials 3000 --seed 7 --format csv":
        "a9188f7d5e09ad7a026c60fbc72bfe85040809b5385b80a2a4eded26dfc76c0e",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format human":
        "bffc49be95b38852d24638ac5b3c52bc27c0c815e9e6559d95ff2b563a4de45e",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format json":
        "cc9cfb75d58d1bffa2947ecb89884c64e143e6fd400f421a3a3a68ffd5d6b84a",
    "teleport --regime dpbt-opt --ports 2 --trials 3000 --seed 7 --format csv":
        "e397eb39eefe119d78e66f87f90e6d3280e86f9ab5bc7a0d759832c99b2f69e5",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format human":
        "08bbaa2c3cb5227f9e10ab65c328521ba82783597658bc2c467488a3f9271cc1",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format json":
        "fdb6bcf959e13e47084c7ae4d5eb3272c18ab5bfb42f91f4f2b1240a11a5e9db",
    "teleport --regime ppbt-mes --ports 2 --trials 3000 --seed 7 --format csv":
        "31eb9502d877cf8cd00b72eb5b00777d1a3f6f33660e07316080d1c5e2718079",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format human":
        "f6ab3ce17652b250fca03c2ee4a6b153c71743afeb8905e29f48c39c7df9cde9",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format json":
        "99cb345c771de0d2f907644959958bf4a4c10b7b6e1644957f7a92a82e22b0c3",
    "teleport --regime ppbt-opt --ports 2 --trials 3000 --seed 7 --format csv":
        "7e6b954685856cc08492d4a30ada5d26ade292b802e0250439d781fb69ba94f6",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format human":
        "eef94e3cd9105079574626225c23db30c4bc748a47c11fd6a169c8c5cf5d3423",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format json":
        "17418aac06604a9e9b8ce6fd4b4ca0db32f4f70a8c766d7c3e6d0706ad96497f",
    "teleport --regime dpbt --ports 5 --trials 3000 --seed 7 --format csv":
        "0362f4d4fb0d4d8fa33adb0d79ffd9b3c3cc082e11c8ae1dd220fc61f842a324",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format human":
        "db74cf94f636fe831217601276159543aee024668136252fa119d8cb50107487",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format json":
        "335e97e8bf5550ca5843b9f19e8cced6c8370e5a8003ca6652b0f65378ef1e65",
    "teleport --regime dpbt-opt --ports 5 --trials 3000 --seed 7 --format csv":
        "4cc390fee877e37b8a8f2ba47c60903928ab2302789ea78fe8021183393e4cfd",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format human":
        "d151203ffcad08079081e1c8ff224d252d3d22cda22e17ae6e32941868d78c6b",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format json":
        "0bebed480129d6b3dc4e3776180ea8d09a4a2fb72870c47b5124fa3a86f30745",
    "teleport --regime ppbt-mes --ports 5 --trials 3000 --seed 7 --format csv":
        "beb73e8b792ba4bf62d936af2bb7e9094d8fc427a0a9ad006f66a44781d1bb68",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format human":
        "d3b335de20af80308af7bc6304294f6923b7d5b2d3876f2d661c46ad991e43f2",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format json":
        "4d08574c6e0f45ce69228f074c6f94aaac422206b8e10d9edb941c580ee9d225",
    "teleport --regime ppbt-opt --ports 5 --trials 3000 --seed 7 --format csv":
        "594236a6e3445edc61772669e6a22f9d407027fa3f084ab91f47c62693146b4b",
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
    batch = teleport_batch(ProtocolKind(kind), n, *one_shot_draws(seed, trials))
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


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 3])
def test_chunked_draws_equal_the_one_shot_draws(chunks, offset):
    # T = C - 1, C, C + 1 and 3C - 1, 3C, 3C + 1, and one trial
    size = cli._CHUNK_TRIALS
    for trials in {chunks * size + offset, 1}:
        inputs = list(haar_inputs(5, trials, size))
        assert [chi.shape[1] for chi, _ in inputs] == \
            [min(size, trials - start) for start in range(0, trials, size)]
        columns = np.concatenate([chi for chi, _ in inputs], axis=1)
        uniform = inputs[0][1]
        assert all(rng is uniform for _, rng in inputs)
        uniforms = np.concatenate([uniform.random(chi.shape[1]) for chi, _ in inputs])
        chi, gen = one_shot_draws(5, trials)
        assert np.array_equal(columns, chi)
        assert np.array_equal(uniforms, gen.random(trials))
        assert uniform.bit_generator.state == gen.bit_generator.state


# stdout of 10,003 trials at N=2, seed 7, three chunks or one. Every success
# has the one exact fidelity, so the chunks leave no byte to differ, the mean
# fidelity line included
ONE_SHOT_SHA256 = {
    ("dpbt", "json"): "9d96c53d524916648c2af2d68eb42a4df02bade1093da1dd7bd1986e87dfc9d2",
    ("dpbt", "csv"): "8a57c704d9b682b820f399a2abcfc0988778a93725f7604c7b511efb0081b758",
    ("dpbt", "human"): "1fb45d1e5e9b69e118272f85c6dca1b6bf06b01122c15b253a57da86aa7d2057",
    ("dpbt-opt", "json"): "08d68973765bdd8571ada18cab0583ad7b2de82e9ff2bcb811ee3deb423ee4fd",
    ("dpbt-opt", "csv"): "7d8042100d7e613a0f03cc37fefb1c951877a09fa85022dabffbe6c4ece9cb8c",
    ("dpbt-opt", "human"): "94df1b470edd346255876b194ec5e7598d0ad2c542fcddba2ca3ed1cc0414928",
    ("ppbt-mes", "json"): "809948fc8a7086fb02d97b4105bb5b4433a399e8f38dbea3f19192081f748555",
    ("ppbt-mes", "csv"): "19aa75cd5fb2a983db220e233fc5c9ed1082ac4aff8a9df461fdbc2b88b2a9d7",
    ("ppbt-mes", "human"): "b2416405e7bd59806df45d47be2020e5dddee9ca53b2aee21066f2f14938604f",
    ("ppbt-opt", "json"): "dc2f7a633d612faed95821c8cb2b0565a1ddadfe34340a60025cd2cd2f608386",
    ("ppbt-opt", "csv"): "47c1a7921aa2cd3eb2cbe82ee81163e6226527d88b0b615fb780011fe6799a59",
    ("ppbt-opt", "human"): "eec7a6fec38851963a761e2a6fa58f1565e913ee8a11d5c2936aed0bf6823e2c",
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

def _scaled_resource(monkeypatch) -> str:
    scaled = 1.1 * protocols._slot_input(ProtocolKind.PPBT_OPT, 2)
    monkeypatch.setattr(protocols, "_slot_input", lambda *_: scaled)
    return "2.100e-01"  # the branch-sum residual, 1.1^2 - 1


def _detuned_attach(monkeypatch) -> str:
    spec = protocols._SPECS[ProtocolKind.PPBT_OPT]
    broken = spec._replace(attach=lambda n: spec.attach(n) * (1 - 1e-6))
    monkeypatch.setitem(protocols._SPECS, ProtocolKind.PPBT_OPT, broken)
    with pytest.raises(NumericalInvariantError) as info:
        protocols._instrument(ProtocolKind.PPBT_OPT, 2)
    assert 1e-6 <= info.value.residual <= 3e-6
    return f"{info.value.residual:.3e}"  # the amplification precondition residual


@pytest.mark.parametrize("breakage", [_scaled_resource, _detuned_attach],
                         ids=["resource", "attach"])
def test_broken_invariant_exits_with_one_error_line(capsys, monkeypatch, breakage):
    protocols._element_roots.cache_clear()
    protocols._instrument.cache_clear()
    try:
        residual = breakage(monkeypatch)
        code, out, err = run(capsys, ["teleport", "--regime", "ppbt-opt",
                                      "--ports", "2", "--trials", "5"])
    finally:
        protocols._element_roots.cache_clear()
        protocols._instrument.cache_clear()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert residual in err
    assert "Traceback" not in err


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    def exhausted(seed, trials, chunk):
        raise MemoryError(f"Unable to allocate {chunk * 32} bytes")
        yield

    # the first chunk's draw fails, before any output
    monkeypatch.setattr(cli, "haar_inputs", exhausted)
    code, out, err = run(capsys, ["teleport", "--regime", "dpbt", "--ports", "2",
                                  "--trials", "100000000", "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory: Unable to allocate {cli._CHUNK_TRIALS * 32} bytes\n"
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
    # generates no code; numpy.random (about 6 ms and 6 MB) is left to
    # teleport, the one command that draws
    script = (
        "import contextlib, io, sys\n"
        "import portsim.cli\n"
        "print('dataclasses' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['table', '--metric', 'resources', '--ports', '1..3'],\n"
        "                 ['povm-check', '--ports', '1..2'], ['schur', '--n', '3']):\n"
        "        assert portsim.cli.main(argv) == 0, argv\n"
        "print('numpy.random' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nFalse\n"


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
        ["--bogus", "--ports=2", "-q", "--trials", "--format=json"]), max_size=1))]
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
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1, (argv, lines)


def test_missing_subcommand_exits_with_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
