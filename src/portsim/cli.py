"""Command-line front end.

Four subcommands mirror the package layers:

  schur       enumerate coupled-basis labels, with basis vectors at small n
  povm-check  compare closed-form measurement builds against the dense oracle
  teleport    sample full protocol runs under a seeded, named generator
  table       exact figures of merit and rotation-count estimates against N

Machine formats stay stable: JSON payloads carry a top-level
``"schema": "portsim/v1"`` tag, CSV follows RFC 4180 (CRLF line endings; no
cell needs quoting), and half-integer spins are encoded as twice-value
integers while human output prints them as fractions. All randomness flows
from one PCG64 stream seeded with --seed, bit-identical to numpy's
`Generator(PCG64(seed)).random` (`pcg64.Pcg64`), so repeating an invocation
reproduces its output byte for byte.

`teleport` streams its trials a chunk at a time: each chunk is sampled,
written and added to the summary counts before the next, so memory stays
flat in --trials. A trial reads one uniform from the one seeded generator
that every chunk shares, so every trial, and the whole output, equals what
a single draw of all trials gives. `schur` output leaves in blocks as well.

Desk-scale caps guard against accidental huge dense builds: 5 ports for
povm-check, 6 for teleport and table, and MAX_ENUMERATE_QUBITS = 20 qubits
for schur. The PORTSIM_MAX_PORTS environment variable replaces only these
per-command caps. The library's own limits still hold past them
(MAX_POVM_PORTS = 6, MAX_STATE_PORTS = 7, MAX_DENSE_QUBITS = 12,
MAX_ENUMERATE_QUBITS = 20, N <= MAX_DENSE_QUBITS - 1 = 11 for a compiled
whole-register program, whose N+1 qubit coupled basis is dense, and
N <= MAX_DENSE_QUBITS = 12 for teleport's amplification check): a request
beyond one exits 2 with one error line.

Options are read from one table, `COMMANDS`, which is also the only source
of their defaults, type and choice checks, and --help text. An option is
`--name value` or `--name=value`, and a name may be cut to any unique
prefix (`--port 2` is `--ports 2`). A repeated option keeps its last value,
and a value is taken as given even when it starts with "-", so `--seed -1`
reaches the command's own check. `-h` or `--help`, before or after the command, writes help to
stdout and exits 0. There are no positional arguments. Every bad argument,
like every library limit, exits 2 with one `error:` line on stderr.

Exit codes: 0 on success, 1 when a check or a numerical invariant of the
compiled circuits fails or stdout closes early, 2 on bad arguments,
including a request that runs out of memory.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .povm_analytic import analytic_povm
from .povm_oracle import build_povm
from .protocols import (
    NumericalInvariantError,
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    resource_estimate,
    success_fidelity,
    success_probability,
    teleport_batch,
)
from .schur import MAX_ENUMERATE_QUBITS, coupling_unitary, enumerate_labels
from .spinalg import Regime

SCHEMA = "portsim/v1"

# Dense oracle comparisons get painful beyond five ports; the other
# commands stop where the acceptance ranges stop.
_CHECK_CAP = 5
_TELEPORT_CAP = 6
_TABLE_CAP = 6
# max Frobenius mismatch per measurement element: acceptance criterion 2
_CHECK_TOLERANCE = 1e-9
# teleport rows joined into one stdout write
_BLOCK_ROWS = 1000
# teleport trials sampled and rendered together: whole row blocks, and a
# chunk's uniforms, outcomes and fidelities, 8 bytes a trial each, stay
# under glibc's 128 KiB mmap threshold
_CHUNK_TRIALS = 4 * _BLOCK_ROWS


def _check_cap(hi: int, default: int) -> None:
    """Reject a size `hi` past the command's desk-scale cap: PORTSIM_MAX_PORTS
    when set, else `default`."""
    raw = os.environ.get("PORTSIM_MAX_PORTS", "")
    try:
        cap = int(raw) if raw.strip() else default
    except ValueError:
        raise ValueError(f"PORTSIM_MAX_PORTS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"PORTSIM_MAX_PORTS must be positive, got {cap}")
    if hi > cap:
        raise ValueError(f"size {hi} exceeds the desk-scale cap {cap}; PORTSIM_MAX_PORTS "
                         "sets this cap, within the library's own limits")


def _port_range(text: str) -> tuple[int, int]:
    """N or LO..HI, each a run of decimal digits of any script, as int reads
    them, around optional whitespace."""
    first, dots, last = text.strip().partition("..")
    if not first.isdecimal() or (dots and not last.isdecimal()):
        raise ValueError(f"expected a port count N or a range LO..HI, got {text!r}")
    lo = int(first)
    hi = int(last) if dots else lo
    if lo < 1 or hi < lo:
        raise ValueError(f"bad port range {text!r}")
    return lo, hi


def _half(twice: int | None) -> str:
    return "-" if twice is None else str(Fraction(twice, 2))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# ---------------------------------------------------------------- schur ----

def _vector_text(vec: np.ndarray, n: int) -> str:
    terms = []
    for idx in np.flatnonzero(np.abs(vec) > 1e-12):
        terms.append(f"{vec[idx]:+.5f}|{idx:0{n}b}>")
    return " ".join(terms)


def _label_blocks(labels: np.ndarray) -> Iterator[Iterator[tuple[int, int, int]]]:
    """The label table in blocks of _BLOCK_ROWS rows, each row as (index,
    chain, m) with its chain counted in table order: a chain's rows follow
    its first row, where m = s."""
    n = labels.shape[1] - 1
    m = labels[:, n]
    chain = np.cumsum(m == labels[:, n - 1]) - 1
    for start in range(0, len(labels), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield zip(range(start, stop), chain[start:stop].tolist(), m[start:stop].tolist())


def cmd_schur(args: SimpleNamespace) -> int:
    n = args.n
    _check_cap(n, MAX_ENUMERATE_QUBITS)
    labels = enumerate_labels(n)
    # each chain's running spins once; ks / j / s follow the N-port reading,
    # and a single qubit has no penultimate spin j
    chains = labels[labels[:, n] == labels[:, n - 1], :n].tolist()
    js = [c[-2] if n > 1 else None for c in chains]
    if args.format == "json":
        # each chain's record up to m, as json.dumps(indent=2) writes it two
        # levels deep; every record but the first is led by a comma
        ks = [json.dumps(c[1:-2], indent=2).replace("\n", "\n      ") for c in chains]
        heads = [f'\n    {{\n      "ks": {k},\n      "j": {json.dumps(j)},\n      "s": {c[-1]},'
                 '\n      "m": ' for c, j, k in zip(chains, js, ks)]
        head = json.dumps({"schema": SCHEMA, "command": "schur", "n_qubits": n, "labels": []},
                          indent=2)
        # the document up to its label list, cut before the empty list's "[]\n}"
        _write_blocks(head[:-4] + "[",
                      ("".join([f'{"," if i else ""}{heads[c]}{m},\n      "index": {i}\n    }}'
                                for i, c, m in block]) for block in _label_blocks(labels)),
                      "\n  ]\n}\n")
        return 0
    if args.format == "csv":
        heads = [f"{';'.join(map(str, c[1:-2]))},{'' if j is None else j},{c[-1]}"
                 for c, j in zip(chains, js)]
        _write_blocks("index,ks_twice,j_twice,s_twice,m_twice\r\n",
                      ("".join([f"{i},{heads[c]},{m}\r\n" for i, c, m in block])
                       for block in _label_blocks(labels)))
        return 0
    show_vectors = n <= 4
    # a vector is its label's column, so only shown vectors build the transform
    vectors = ["  " + _vector_text(col, n) for col in coupling_unitary(n).T] \
        if show_vectors else None
    halves = {v: _half(v) for v in range(-n, n + 1)}
    heads = [f"{' '.join(halves[k] for k in c[:-2]) or '-':<18}{_half(j):>5}{halves[c[-1]]:>5}"
             for c, j in zip(chains, js)]
    head = (f"coupled basis for n={n} qubits ({len(labels)} labels)\n"
            f"{'index':>5}  {'chain':<18}{'j':>5}{'s':>5}{'m':>6}"
            f"{'  vector' if show_vectors else ''}\n")
    _write_blocks(head, ("".join([f"{i:>5}  {heads[c]}{halves[m]:>6}"
                                  f"{vectors[i] if show_vectors else ''}\n"
                                  for i, c, m in block])
                         for block in _label_blocks(labels)),
                  "" if show_vectors else
                  "(vectors omitted for n > 4; use --format json for the labels)\n")
    return 0


# ----------------------------------------------------------- povm-check ----

def cmd_povm_check(args: SimpleNamespace) -> int:
    lo, hi = args.ports
    _check_cap(hi, _CHECK_CAP)
    regimes = list(Regime) if args.regime == "all" else [Regime(args.regime)]
    worst = 0.0
    failures = 0
    # every suite in reverse, the largest N first, so a library limit it
    # breaks raises before any build; stdout gets the lines once all have run
    lines = []
    for regime, n in itertools.product(regimes[::-1], range(hi, lo - 1, -1)):
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
        ok = residual <= 1e-10 and low >= -1e-10 and frob <= _CHECK_TOLERANCE
        failures += 0 if ok else 1
        lines.append(f"[{'PASS' if ok else 'FAIL'}] regime={regime.value} ports={n} "
                     f"outcomes={closed.n_outcomes} completeness={residual:.3e} "
                     f"min_eig={low:+.3e} max_frobenius={frob:.3e}\n")
    lines.reverse()
    lines.append(f"{len(lines) - failures}/{len(lines)} suites passed; "
                 f"worst frobenius {worst:.3e} (tolerance {_CHECK_TOLERANCE:g})\n")
    sys.stdout.write("".join(lines))
    return 1 if failures else 0


# ------------------------------------------------------------- teleport ----

def _outcome_z(counts: np.ndarray, expected: np.ndarray, trials: int) -> list[float]:
    scores = []
    for count, p in zip(counts, expected):
        var = trials * p * (1.0 - p)
        if var <= 0.0:
            scores.append(0.0 if count == round(trials * p) else math.inf)
        else:
            scores.append((count - trials * p) / math.sqrt(var))
    return scores


def _row_blocks(outcome: np.ndarray, tails: Sequence[str], head: str = "", width: int = 0,
                sep: str = "", offset: int = 0) -> Iterator[str]:
    """Trial rows as strings of at most _BLOCK_ROWS rows each: row i is
    `head`, the trial number offset + i + 1 right-justified to `width`, then
    the tail of its outcome, `tails[outcome - 1]`, and rows are joined by
    `sep`, which also leads every block but the run's first. Every success
    has the one fidelity of its protocol, so a run formats one tail per
    outcome and each row is a lookup."""
    for start in range(0, len(outcome), _BLOCK_ROWS):
        out = outcome[start:start + _BLOCK_ROWS] - 1
        numbers = range(offset + start + 1, offset + start + len(out) + 1)
        if width:
            numbers = [str(i).rjust(width) for i in numbers]
        rows = [f"{head}{i}{tails[k]}" for i, k in zip(numbers, out.tolist())]
        if offset + start:
            rows[0] = sep + rows[0]
        yield sep.join(rows)


def _write_blocks(head: str, blocks: Iterable[str], tail: str = "") -> None:
    """Write `head`, each block and `tail` to stdout, one write each: under
    PYTHONUNBUFFERED stdout is write-through, so every write is a system
    call. Blocks are rendered only as they are written."""
    sys.stdout.write(head)
    for block in blocks:
        sys.stdout.write(block)
    sys.stdout.write(tail)


def _json_tail(outcome: int, fidelity: float | None) -> str:
    """A trial record after its number, as json.dumps(indent=2) writes it two
    levels deep; a failed trial has a null fidelity."""
    result = ("false,\n      \"fidelity\": null" if fidelity is None
              else f"true,\n      \"fidelity\": {fidelity!r}")
    return f',\n      "outcome": {outcome},\n      "success": {result}\n    }}'


def _csv_tail(outcome: int, fidelity: float | None) -> str:
    return f",{outcome},false,\r\n" if fidelity is None \
        else f",{outcome},true,{_fmt(fidelity)}\r\n"


def _human_tail(outcome: int, fidelity: float | None) -> str:
    return f" {outcome:>7} fail    -\n" if fidelity is None \
        else f" {outcome:>7} ok      {_fmt(fidelity)}\n"


def cmd_teleport(args: SimpleNamespace) -> int:
    if args.ports < 1:
        raise ValueError(f"--ports must be positive, got {args.ports}")
    _check_cap(args.ports, _TELEPORT_CAP)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    kind = ProtocolKind(args.regime)
    n, trials = args.ports, args.trials
    # imported here, so that only the command that draws loads the stream
    from .pcg64 import Pcg64
    rng = Pcg64(args.seed)
    batches = (teleport_batch(kind, n, min(_CHUNK_TRIALS, trials - start), rng)
               for start in range(0, trials, _CHUNK_TRIALS))
    # the first chunk checks the amplification precondition before any output
    first = next(batches)
    expected = first.expected
    counts = np.zeros(len(expected), dtype=np.int64)
    # every success has the one closed-form fidelity that the batches sample
    exact_f = success_fidelity(kind, n)

    def rows(tail, **layout):
        # each chunk's row blocks, adding to the counts as they go
        tails = [tail(k, exact_f if k <= n else None) for k in range(1, len(expected) + 1)]
        for start, batch in zip(range(0, trials, _CHUNK_TRIALS),
                                itertools.chain([first], batches)):
            counts[:] += np.bincount(batch.outcomes - 1, minlength=len(expected))
            yield from _row_blocks(batch.outcomes, tails, offset=start, **layout)

    if args.format == "csv":
        _write_blocks("trial,outcome,success,fidelity\r\n", rows(_csv_tail))
        return 0
    if args.format == "json":
        head = json.dumps({
            "schema": SCHEMA, "command": "teleport", "regime": kind.value,
            "n_ports": n, "trials": trials, "seed": args.seed, "rounds": first.rounds,
            "c_star": first.c_star, "generator": "PCG64", "trial_results": []}, indent=2)
        # the document up to its trial list, cut before the empty list's "[]\n}"
        _write_blocks(head[:-4] + "[",
                      rows(_json_tail, head='\n    {\n      "trial": ', sep=","))
    else:
        _write_blocks(f"# teleport regime={kind.value} ports={n} trials={trials} "
                      f"seed={args.seed} rounds={first.rounds} c_star={_fmt(first.c_star)} "
                      f"generator=PCG64\n{'trial':>6} {'outcome':>7} {'result':<7} fidelity\n",
                      rows(_human_tail, width=6))

    successes = int(counts[:n].sum())
    z_scores = _outcome_z(counts, expected, trials)
    max_z = max(abs(z) for z in z_scores)
    rate = successes / trials
    mean_fid = exact_f if successes else float("nan")
    exact_p = None if kind.deterministic else success_probability(kind, n)

    if args.format == "json":
        # the summary follows the trial list, one level deep
        sys.stdout.write("\n  ]," + json.dumps({"summary": {
            "counts": [int(c) for c in counts],
            "expected_probabilities": [float(p) for p in expected],
            "outcome_z": z_scores, "max_abs_z": max_z,
            "success_rate": rate, "exact_success_probability": exact_p,
            # NaN is not JSON: no successful trial gives null, as a failed
            # trial's fidelity does
            "mean_success_fidelity": mean_fid if successes else None,
            "exact_fidelity": exact_f,
        }}, indent=2)[1:] + "\n")
        return 0
    summary = ["summary:\n"]
    for slot, (count, p, z) in enumerate(zip(counts, expected, z_scores), start=1):
        tag = "fail" if (not kind.deterministic and slot == len(expected)) else f"port {slot}"
        summary.append(f"  {tag:<8} count {int(count):>6}  "
                       f"expected {trials * p:10.2f}  z {z:+.3f}\n")
    if kind.deterministic:
        summary.append(f"  mean fidelity {_fmt(mean_fid)}  exact {_fmt(exact_f)}  "
                       f"|dev| {abs(mean_fid - exact_f):.3e}\n")
    else:
        var = exact_p * (1.0 - exact_p) / trials
        rate_z = (rate - exact_p) / math.sqrt(var) if var > 0 else 0.0
        summary.append(f"  success rate {_fmt(rate)}  exact {_fmt(exact_p)}  z {rate_z:+.3f}\n")
        summary.append(f"  mean success fidelity {_fmt(mean_fid)}  exact 1  "
                       f"|dev| {abs(mean_fid - 1.0):.3e}\n")
    summary.append(f"  max outcome |z| {max_z:.3f}\n")
    sys.stdout.write("".join(summary))
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


def cmd_table(args: SimpleNamespace) -> int:
    lo, hi = args.ports
    _check_cap(hi, _TABLE_CAP)
    if not 0.0 < args.epsilon < 1.0:
        raise ValueError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    variant = SchurVariant(args.schur_variant)
    # the largest N first, so a library limit it breaks raises before any work
    ports = range(hi, lo - 1, -1)
    rows = []
    if args.metric == "fidelity":
        header = _FIDELITY_HEADER
        for n in ports:
            f_mes = average_fidelity(ProtocolKind.DPBT_MES, n)
            f_opt = average_fidelity(ProtocolKind.DPBT_OPT, n)
            rows.append([n, f_mes, f_opt, (1 - f_mes) * n, (1 - f_opt) * n ** 2])
    elif args.metric == "success":
        header = _SUCCESS_HEADER
        for n in ports:
            p_mes = success_probability(ProtocolKind.PPBT_MES, n)
            p_opt = success_probability(ProtocolKind.PPBT_OPT, n)
            rows.append([n, p_mes, p_opt,
                         (1 - p_mes) * math.sqrt(n), (1 - p_opt) * n])
    else:
        header = _resource_header()
        for n in ports:
            row: list = [n]
            for kind in ProtocolKind:
                est = resource_estimate(kind, n, epsilon=args.epsilon,
                                        schur_variant=variant)
                row += [est.two_level_rotations, est.rounds,
                        est.ancilla_qubits, est.total_cost]
            rows.append(row)
    rows.reverse()
    if args.format == "json":
        sys.stdout.write(json.dumps({
            "schema": SCHEMA, "command": "table", "metric": args.metric,
            "epsilon": args.epsilon, "schur_variant": variant.value, "columns": header,
            "rows": [dict(zip(header, row)) for row in rows]}, indent=2) + "\n")
        return 0
    cells = [header] + [[str(cell) if isinstance(cell, int) else _fmt(cell) for cell in row]
                        for row in rows]
    if args.format == "csv":
        sys.stdout.write("".join(",".join(row) + "\r\n" for row in cells))
        return 0
    widths = [max(len(h), 14) for h in header]
    sys.stdout.write("".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n"
                             for row in cells))
    return 0


# ----------------------------------------------------------------- main ----

_REQUIRED = ...
_FORMAT = ("--format", ("human", "json", "csv"), "human", "FORMAT", "output format")
_HELP = ("--help", bool)

# command: (help line, handler, options); an option is (name, type or choice
# tuple, default as argv text or _REQUIRED, metavar, help). A bool option is
# a flag that takes no value. No name is a prefix of another in its command,
# so a unique prefix of a name is never also another option's whole name.
COMMANDS = {
    "schur": ("enumerate the coupled spin basis", cmd_schur, (
        ("--n", int, _REQUIRED, "QUBITS",
         "number of qubits, capped unless PORTSIM_MAX_PORTS is set"),
        _FORMAT)),
    "povm-check": ("closed-form measurement elements vs the dense oracle", cmd_povm_check, (
        ("--regime", ("dpbt", "ppbt-mes", "ppbt-opt", "all"), "all", "REGIME",
         "measurement regime to check"),
        ("--ports", _port_range, "1..3", "LO..HI", "port count N or range of them"),
        ("--inject-fault", bool, False, "",
         "corrupt one closed-form scalar; the run must then fail"))),
    "teleport": ("sample seeded protocol runs", cmd_teleport, (
        ("--regime", tuple(k.value for k in ProtocolKind), _REQUIRED, "KIND",
         "protocol to run"),
        ("--ports", int, _REQUIRED, "N", "number of ports"),
        ("--trials", int, "1000", "TRIALS", "number of sampled runs"),
        ("--seed", int, "0", "SEED", "PCG64 seed; equal seeds give byte-identical output"),
        _FORMAT)),
    "table": ("figures of merit and resource counts", cmd_table, (
        ("--metric", ("fidelity", "success", "resources"), _REQUIRED, "METRIC",
         "quantity to tabulate against N"),
        ("--ports", _port_range, "1..6", "LO..HI", "port count N or range of them"),
        ("--epsilon", float, "1e-10", "EPSILON", "target precision for the resource model"),
        ("--schur-variant", tuple(v.value for v in SchurVariant), "bch", "VARIANT",
         "basis-transform cost model"),
        _FORMAT)),
}


def _help(command: str) -> int:
    """Write the help of `command`, or of the program when it is ""."""
    if command not in COMMANDS:
        sys.stdout.write(
            "usage: portsim COMMAND [options]\n\nExact simulator and verification suite for "
            "qubit port-based teleportation at desk scale.\n\ncommands:\n"
            + "".join(f"  {name:<12}{line}\n" for name, (line, _, _) in COMMANDS.items())
            + "\nRun 'portsim COMMAND --help' for a command's options.\n")
        return 0
    line, _, options = COMMANDS[command]
    text = [f"usage: portsim {command} [options]\n\n{line}\n\n"
            "options:\n  -h, --help\n      show this help and exit\n"]
    for name, kind, default, metavar, info in options:
        if isinstance(kind, tuple):
            info += f": {', '.join(kind)}"
        if kind is not bool:
            info += " (required)" if default is _REQUIRED else f" (default {default})"
        text.append(f"  {name} {metavar}".rstrip() + f"\n      {info}\n")
    sys.stdout.write("".join(text))
    return 0


def _parse(argv: Sequence[str]):
    """A command line's handler and the argument it takes: the command's
    options, or for a help request `_help` and the command. A bad argument
    raises ValueError."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        return _help, ""
    if command not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    _, func, options = COMMANDS[command]
    values = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
        # a whole name or a unique prefix of one; a bare "--", a lone "-" or
        # a positional matches no name or more than one
        matches = [opt for opt in (*options, _HELP) if opt[0].startswith(flag)]
        if len(matches) != 1:
            raise ValueError(f"unrecognized or ambiguous argument {token!r}")
        name, kind = matches[0][:2]
        if kind is bool:
            if eq:
                raise ValueError(f"argument {name}: takes no value, got {value!r}")
            if name == "--help":
                return _help, command
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"argument {name}: expected one value")
        values[name] = _convert(name, kind, value)
    for name, kind, default, _, _ in options:
        if name not in values:
            if default is _REQUIRED:
                raise ValueError(f"argument {name} is required")
            values[name] = _convert(name, kind, default)
    return func, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                    for name, value in values.items()})


def _convert(name: str, kind, text: str):
    """An option's argv text as its type, or checked against its choices."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"argument {name}: invalid choice {text!r}: "
                             f"choose from {', '.join(kind)}")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def main(argv: Sequence[str] | None = None) -> int:
    try:
        func, args = _parse(sys.argv[1:] if argv is None else argv)
        code = func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head -1`): keep the final flush off the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NumericalInvariantError as exc:
        # a broken identity of the compiled circuits is a failed check;
        # the message carries the residual
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad arguments: the command line's checks and the library's own
        # range checks, e.g. past a cap raised by PORTSIM_MAX_PORTS
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
