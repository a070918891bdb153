"""Command-line front end.

Four subcommands mirror the package layers:

  schur       enumerate coupled-basis labels, with basis vectors at small n
  povm-check  compare closed-form measurement builds against the dense oracle
  teleport    sample full protocol runs under a seeded, named generator
  table       exact figures of merit and rotation-count estimates against N

Machine formats stay stable: JSON payloads carry a top-level
``"schema": "portsim/v1"`` tag, CSV follows RFC 4180 (written with the csv
module, CRLF line endings), and half-integer spins are encoded as
twice-value integers while human output prints them as fractions. All
randomness flows from numpy's PCG64 bit generator seeded with --seed, so
repeating an invocation reproduces its output byte for byte.

Desk-scale caps on the port count guard against accidental huge dense
builds; the PORTSIM_MAX_PORTS environment variable raises them for anyone
willing to pay the memory bill.

Exit codes: 0 on success, 1 when a requested check or a numerical
invariant of the compiled circuits fails, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from collections.abc import Sequence

import numpy as np

from .halfint import HalfInt
from .povm_analytic import analytic_povm
from .povm_oracle import build_povm
from .protocols import (
    NumericalInvariantError,
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    resource_estimate,
    success_probability,
    teleport_batch,
)
from .schur import MAX_DENSE_QUBITS, enumerate_labels, label_table, schur_vector
from .spinalg import Regime

SCHEMA = "portsim/v1"

# Dense oracle comparisons get painful beyond five ports; the other
# commands stop where the acceptance ranges stop.
_CHECK_CAP = 5
_TELEPORT_CAP = 6
_TABLE_CAP = 6


class CliError(Exception):
    """Failure with a chosen process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _cap(default: int) -> int:
    raw = os.environ.get("PORTSIM_MAX_PORTS")
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"PORTSIM_MAX_PORTS must be an integer, got {raw!r}") from None
    if value < 1:
        raise CliError(f"PORTSIM_MAX_PORTS must be positive, got {value}")
    return value


def _port_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"expected a port count N or a range LO..HI, got {text!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad port range {text!r}")
    return lo, hi


def _check_range(lo: int, hi: int, cap: int) -> None:
    if hi > cap:
        raise CliError(
            f"port count {hi} exceeds the desk-scale cap {cap}; "
            "set PORTSIM_MAX_PORTS to override")


def _half(twice: int | None) -> str:
    return "-" if twice is None else str(HalfInt(twice))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------- schur ----

def _vector_text(label) -> str:
    vec = schur_vector(label)
    n = label.n_qubits
    terms = []
    for idx in np.flatnonzero(np.abs(vec) > 1e-12):
        terms.append(f"{vec[idx]:+.5f}|{idx:0{n}b}>")
    return " ".join(terms)


def cmd_schur(args: argparse.Namespace) -> int:
    cap = _cap(MAX_DENSE_QUBITS)
    if not 1 <= args.n <= cap:
        raise CliError(
            f"--n must lie in 1..{cap} (dense coupled-basis size cap), got {args.n}")
    rows = label_table(args.n)
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "command": "schur",
                    "n_qubits": args.n, "labels": rows})
        return 0
    if args.format == "csv":
        table = [[r["index"], ";".join(str(k) for k in r["ks"]),
                  "" if r["j"] is None else r["j"], r["s"], r["m"]]
                 for r in rows]
        _emit_csv(["index", "ks_twice", "j_twice", "s_twice", "m_twice"], table)
        return 0
    labels = enumerate_labels(args.n)
    show_vectors = args.n <= 4
    print(f"coupled basis for n={args.n} qubits ({len(rows)} labels)")
    header = f"{'index':>5}  {'chain':<18}{'j':>5}{'s':>5}{'m':>6}"
    print(header + ("  vector" if show_vectors else ""))
    for row, label in zip(rows, labels):
        chain = " ".join(str(k) for k in label.spins[:-2]) or "-"
        line = (f"{row['index']:>5}  {chain:<18}{_half(row['j']):>5}"
                f"{_half(row['s']):>5}{_half(row['m']):>6}")
        if show_vectors:
            line += "  " + _vector_text(label)
        print(line)
    if not show_vectors:
        print("(vectors omitted for n > 4; use --format json for the labels)")
    return 0


# ----------------------------------------------------------- povm-check ----

def cmd_povm_check(args: argparse.Namespace) -> int:
    lo, hi = args.ports
    _check_range(lo, hi, _cap(_CHECK_CAP))
    regimes = list(Regime) if args.regime == "all" else [Regime(args.regime)]
    worst = 0.0
    failures = 0
    total = 0
    for regime in regimes:
        for n in range(lo, hi + 1):
            total += 1
            oracle = build_povm(regime, n)
            closed = analytic_povm(regime, n)
            if args.inject_fault:
                # Deliberately corrupt one closed-form scalar so the suite
                # exercises its own failure path.
                closed.elements[0] = closed.elements[0] * (1.0 + 1e-6)
            residual = closed.completeness_residual()
            low = closed.min_eigenvalue()
            frob = max(np.linalg.norm(a - b)
                       for a, b in zip(oracle.elements, closed.elements))
            worst = max(worst, frob)
            ok = residual <= 1e-10 and low >= -1e-10 and frob <= args.tolerance
            failures += 0 if ok else 1
            print(f"[{'PASS' if ok else 'FAIL'}] regime={regime.value} ports={n} "
                  f"outcomes={closed.n_outcomes} completeness={residual:.3e} "
                  f"min_eig={low:+.3e} max_frobenius={frob:.3e}")
    print(f"{total - failures}/{total} suites passed; "
          f"worst frobenius {worst:.3e} (tolerance {args.tolerance:g})")
    return 1 if failures else 0


# ------------------------------------------------------------- teleport ----

def _haar_columns(rng: np.random.Generator, count: int) -> np.ndarray:
    amps = rng.normal(size=(2, count)) + 1j * rng.normal(size=(2, count))
    return amps / np.linalg.norm(amps, axis=0)


def _outcome_z(counts: np.ndarray, expected: np.ndarray, trials: int) -> list[float]:
    scores = []
    for count, p in zip(counts, expected):
        var = trials * p * (1.0 - p)
        if var <= 0.0:
            scores.append(0.0 if count == round(trials * p) else math.inf)
        else:
            scores.append((count - trials * p) / math.sqrt(var))
    return scores


def _json_records(rows):
    """Trial records as json.dumps(indent=2) writes them two levels deep,
    each led by its list separator; failed trials have a null fidelity."""
    sep = "\n"
    for i, o, ok, f in rows:
        yield (f'{sep}    {{\n      "trial": {i},\n      "outcome": {o},\n'
               f'      "success": {"true" if ok else "false"},\n'
               f'      "fidelity": {repr(f) if ok else "null"}\n    }}')
        sep = ",\n"


def cmd_teleport(args: argparse.Namespace) -> int:
    if args.ports < 1:
        raise CliError(f"--ports must be positive, got {args.ports}")
    _check_range(args.ports, args.ports, _cap(_TELEPORT_CAP))
    if args.trials < 1:
        raise CliError(f"--trials must be positive, got {args.trials}")
    kind = ProtocolKind(args.regime)
    n = args.ports
    gen = np.random.default_rng(np.random.PCG64(args.seed))
    batch = teleport_batch(kind, n, _haar_columns(gen, args.trials), gen)
    outcome, fidelity, expected = batch.outcomes, batch.fidelities, batch.expected
    rounds, c_star = batch.rounds, batch.c_star
    success = outcome <= n
    counts = np.bincount(outcome - 1, minlength=len(expected))
    z_scores = _outcome_z(counts, expected, args.trials)
    max_z = max(abs(z) for z in z_scores)
    rate = float(success.mean())
    mean_fid = float(fidelity[success].mean()) if success.any() else float("nan")
    exact_p = None if kind.deterministic else success_probability(kind, n)
    exact_f = average_fidelity(kind, n) if kind.deterministic else 1.0

    rows = zip(range(1, args.trials + 1), outcome.tolist(), success.tolist(),
               fidelity.tolist())
    if args.format == "json":
        envelope = json.dumps({
            "schema": SCHEMA, "command": "teleport", "regime": kind.value,
            "n_ports": n, "trials": args.trials, "seed": args.seed,
            "rounds": rounds, "c_star": c_star, "generator": "PCG64",
            "trial_results": [],
            "summary": {
                "counts": [int(c) for c in counts],
                "expected_probabilities": [float(p) for p in expected],
                "outcome_z": z_scores, "max_abs_z": max_z,
                "success_rate": rate, "exact_success_probability": exact_p,
                "mean_success_fidelity": mean_fid, "exact_fidelity": exact_f,
            }}, indent=2)
        head, _, tail = envelope.partition('"trial_results": []')
        sys.stdout.write(head + '"trial_results": [')
        sys.stdout.writelines(_json_records(rows))
        sys.stdout.write("\n  ]" + tail + "\n")
        return 0
    if args.format == "csv":
        sys.stdout.write("trial,outcome,success,fidelity\r\n")
        sys.stdout.writelines(
            f"{i},{o},true,{_fmt(f)}\r\n" if ok else f"{i},{o},false,\r\n"
            for i, o, ok, f in rows)
        return 0
    print(f"# teleport regime={kind.value} ports={n} trials={args.trials} "
          f"seed={args.seed} rounds={rounds} c_star={_fmt(c_star)} generator=PCG64")
    print(f"{'trial':>6} {'outcome':>7} {'result':<7} fidelity")
    sys.stdout.writelines(
        f"{i:>6} {o:>7} ok      {_fmt(f)}\n" if ok else f"{i:>6} {o:>7} fail    -\n"
        for i, o, ok, f in rows)
    print("summary:")
    for slot, (count, p, z) in enumerate(zip(counts, expected, z_scores), start=1):
        tag = "fail" if (not kind.deterministic and slot == len(expected)) else f"port {slot}"
        print(f"  {tag:<8} count {int(count):>6}  expected {args.trials * p:10.2f}  z {z:+.3f}")
    if kind.deterministic:
        print(f"  mean fidelity {_fmt(mean_fid)}  exact {_fmt(exact_f)}  "
              f"|dev| {abs(mean_fid - exact_f):.3e}")
    else:
        var = exact_p * (1.0 - exact_p) / args.trials
        rate_z = (rate - exact_p) / math.sqrt(var) if var > 0 else 0.0
        print(f"  success rate {_fmt(rate)}  exact {_fmt(exact_p)}  z {rate_z:+.3f}")
        print(f"  mean success fidelity {_fmt(mean_fid)}  exact 1  "
              f"|dev| {abs(mean_fid - 1.0):.3e}")
    print(f"  max outcome |z| {max_z:.3f}")
    return 0


# ---------------------------------------------------------------- table ----

_FIDELITY_HEADER = ["n_ports", "f_mes", "f_opt", "gap_mes_x_n", "gap_opt_x_n2"]
_SUCCESS_HEADER = ["n_ports", "p_mes", "p_opt", "gap_mes_x_sqrt_n", "gap_opt_x_n"]


def _resource_header() -> list[str]:
    cols = ["n_ports"]
    for kind in ProtocolKind:
        stem = kind.value.replace("-", "_")
        cols += [f"{stem}_p", f"{stem}_n", f"{stem}_ancillas", f"{stem}_total"]
    return cols


def cmd_table(args: argparse.Namespace) -> int:
    lo, hi = args.ports
    _check_range(lo, hi, _cap(_TABLE_CAP))
    if not 0.0 < args.epsilon < 1.0:
        raise CliError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    variant = SchurVariant(args.schur_variant)
    if args.metric == "fidelity":
        header = _FIDELITY_HEADER
        rows = []
        for n in range(lo, hi + 1):
            f_mes = average_fidelity(ProtocolKind.DPBT_MES, n)
            f_opt = average_fidelity(ProtocolKind.DPBT_OPT, n)
            rows.append([n, f_mes, f_opt, (1 - f_mes) * n, (1 - f_opt) * n ** 2])
    elif args.metric == "success":
        header = _SUCCESS_HEADER
        rows = []
        for n in range(lo, hi + 1):
            p_mes = success_probability(ProtocolKind.PPBT_MES, n)
            p_opt = success_probability(ProtocolKind.PPBT_OPT, n)
            rows.append([n, p_mes, p_opt,
                         (1 - p_mes) * math.sqrt(n), (1 - p_opt) * n])
    else:
        header = _resource_header()
        rows = []
        for n in range(lo, hi + 1):
            row: list = [n]
            for kind in ProtocolKind:
                est = resource_estimate(kind, n, epsilon=args.epsilon,
                                        schur_variant=variant)
                row += [est.two_level_rotations, est.rounds,
                        est.ancilla_qubits, est.total_cost]
            rows.append(row)
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": "table", "metric": args.metric,
                   "epsilon": args.epsilon, "schur_variant": variant.value,
                   "columns": header,
                   "rows": [dict(zip(header, row)) for row in rows]}
        _emit_json(payload)
        return 0
    if args.format == "csv":
        formatted = [[cell if isinstance(cell, int) else _fmt(cell)
                      for cell in row] for row in rows]
        _emit_csv(header, formatted)
        return 0
    widths = [max(len(h), 14) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [str(cell) if isinstance(cell, int) else _fmt(cell)
                 for cell in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0


# ----------------------------------------------------------------- main ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portsim",
        description="Exact simulator and verification suite for qubit "
                    "port-based teleportation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("schur", help="enumerate the coupled spin basis")
    s.add_argument("--n", type=int, required=True, metavar="QUBITS",
                   help="number of qubits (capped unless PORTSIM_MAX_PORTS is set)")
    s.add_argument("--format", choices=("human", "json", "csv"), default="human")
    s.set_defaults(func=cmd_schur)

    p = sub.add_parser("povm-check",
                       help="closed-form measurement elements vs the dense oracle")
    p.add_argument("--regime", choices=("dpbt", "ppbt-mes", "ppbt-opt", "all"),
                   default="all")
    p.add_argument("--ports", type=_port_range, default=(1, 3), metavar="LO..HI")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="max allowed Frobenius mismatch per element")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one closed-form scalar; the run must then fail")
    p.set_defaults(func=cmd_povm_check)

    t = sub.add_parser("teleport", help="sample seeded protocol runs")
    t.add_argument("--regime", choices=[k.value for k in ProtocolKind],
                   required=True)
    t.add_argument("--ports", type=int, required=True, metavar="N")
    t.add_argument("--trials", type=int, default=1000)
    t.add_argument("--seed", type=int, default=0,
                   help="PCG64 seed; equal seeds give byte-identical output")
    t.add_argument("--format", choices=("human", "json", "csv"), default="human")
    t.set_defaults(func=cmd_teleport)

    tb = sub.add_parser("table", help="figures of merit and resource counts")
    tb.add_argument("--metric", choices=("fidelity", "success", "resources"),
                    required=True)
    tb.add_argument("--ports", type=_port_range, default=(1, 6), metavar="LO..HI")
    tb.add_argument("--epsilon", type=float, default=1e-10,
                    help="target precision for the resource model")
    tb.add_argument("--schur-variant", choices=[v.value for v in SchurVariant],
                    default="bch", help="basis-transform cost model")
    tb.add_argument("--format", choices=("human", "json", "csv"), default="human")
    tb.set_defaults(func=cmd_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NumericalInvariantError as exc:
        # a broken identity of the compiled circuits is a failed check;
        # the message carries the residual
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # the library's own range checks, e.g. past a cap raised by
        # PORTSIM_MAX_PORTS, are bad arguments too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
