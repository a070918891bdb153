"""Acceptance sweep: nine go/no-go checks with pinned tolerances.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s); the
assertions carry the details. Tolerances and ranges are fixed here on
purpose; loosening them is a release decision, not a test fix.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import branch_weights, haar_qubit
from portsim.circuit import c_star
from portsim.povm_analytic import analytic_povm
from portsim.povm_oracle import build_povm, ensemble_average, psd_sqrt
from portsim.protocols import (
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    build_program,
    expected_outcome_distribution,
    ppbt_mes_no_aa,
    resource_estimate,
    success_probability,
    success_probability_exact,
    teleport_batch,
)
from portsim.spinalg import Regime, rho_eigenvalue
from portsim.schur import enumerate_labels

REGIMES = [Regime.DPBT, Regime.PPBT_MES, Regime.PPBT_OPT]
KINDS = list(ProtocolKind)


def report(number: int, label: str, problems: list, extra: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number}: {label}{tail}")
    assert not problems, "; ".join(str(p) for p in problems)


def haar_columns(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    block = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return block / np.linalg.norm(block, axis=0)


def test_criterion_1_povm_validity():
    problems = []
    start = time.perf_counter()
    for regime in REGIMES:
        for n in range(1, 6):
            povm = build_povm(regime, n)
            residual = povm.completeness_residual()
            low = povm.min_eigenvalue()
            if residual > 1e-10:
                problems.append(f"{regime.value} N={n}: completeness {residual:.3e}")
            if low < -1e-10:
                problems.append(f"{regime.value} N={n}: min eigenvalue {low:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 30:
        problems.append(f"sweep took {elapsed:.1f}s, budget 30s")
    report(1, "measurement sets complete and positive, N=1..5", problems,
           f"{elapsed:.1f}s")


def test_criterion_2_analytic_matches_oracle():
    problems = []
    start = time.perf_counter()
    worst = 0.0
    for regime in REGIMES:
        for n in range(1, 6):
            closed = analytic_povm(regime, n)
            dense = build_povm(regime, n)
            for i in range(1, dense.n_outcomes + 1):
                gap = float(np.linalg.norm(closed.element(i) - dense.element(i)))
                worst = max(worst, gap)
                if gap > 1e-9:
                    problems.append(f"{regime.value} N={n} element {i}: {gap:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed > 120:
        problems.append(f"sweep took {elapsed:.1f}s, budget 120s")
    report(2, "closed-form elements equal dense builds, N=1..5", problems,
           f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_state_spectrum():
    problems = []
    for n in range(2, 6):
        rho = ensemble_average(n)
        eigs = np.sort(np.linalg.eigvalsh(rho))
        expected = np.sort([float(rho_eigenvalue(n, lab.spins[-2], lab.s))
                            for lab in enumerate_labels(n + 1)])
        if np.abs(eigs - expected).max() > 1e-10:
            problems.append(f"N={n}: spectrum off by "
                            f"{np.abs(eigs - expected).max():.3e}")
        if int(np.sum(np.abs(eigs) < 1e-10)) != n + 2:
            problems.append(f"N={n}: null space is not {n + 2}-dimensional")
        if abs(eigs.sum() - n) > 1e-10:
            problems.append(f"N={n}: trace {eigs.sum()!r}")
    report(3, "averaged state spectrum and null space, N=2..5", problems)


def _naimark_deviation(kind: ProtocolKind, n: int, trials: int) -> float:
    prog = build_program(kind, n)
    povm = build_povm(kind.regime, n)
    roots = [psd_sqrt(povm.element(i)) for i in range(1, povm.n_outcomes + 1)]
    rng = np.random.default_rng(np.random.PCG64(1000 + n))
    psis = haar_columns(rng, 2 ** (n + 1), trials)
    out = prog.apply(prog.initial_state(psis))
    worst = 0.0
    branches = list(range(n)) + list(prog.failure_branches)
    for slot, root in zip(branches, roots):
        worst = max(worst, float(np.abs(out.amps[:, slot, 0] - root @ psis).max()))
    return worst


def test_criterion_4_circuits_reproduce_roots():
    problems = []
    worst = 0.0
    for kind in KINDS:
        for n in range(1, 5):
            gap = _naimark_deviation(kind, n, trials=20)
            worst = max(worst, gap)
            if gap > 1e-8:
                problems.append(f"{kind.value} N={n}: deviation {gap:.3e}")
    report(4, "compiled measurements match operator roots, N=1..4", problems,
           f"worst {worst:.2e}")


@pytest.mark.slow
def test_criterion_4_circuits_reproduce_roots_large():
    problems = []
    worst = 0.0
    for kind in KINDS:
        for n in (5, 6):
            gap = _naimark_deviation(kind, n, trials=20)
            worst = max(worst, gap)
            if gap > 1e-8:
                problems.append(f"{kind.value} N={n}: deviation {gap:.3e}")
    report(4, "compiled measurements match operator roots, N=5..6", problems,
           f"worst {worst:.2e}")


def test_criterion_5_amplification_schedules():
    problems = []
    for n in range(1, 7):
        mes = build_program(ProtocolKind.PPBT_MES, n)
        if mes.rounds != 5:
            problems.append(f"rescaled heralded N={n}: {mes.rounds} rounds")
        for kind, raw in [(ProtocolKind.DPBT_MES, 1 / math.sqrt(n)),
                          (ProtocolKind.DPBT_OPT, 1 / math.sqrt(n)),
                          (ProtocolKind.PPBT_OPT, 1 / math.sqrt(n + 1))]:
            prog = build_program(kind, n)
            expect_c, expect_n = c_star(raw)
            if prog.rounds != expect_n or abs(prog.c_star - expect_c) > 1e-12:
                problems.append(f"{kind.value} N={n}: schedule "
                                f"({prog.c_star}, {prog.rounds}) vs "
                                f"({expect_c}, {expect_n})")
            bound = math.ceil(math.pi * math.sqrt(n + 1))
            bound += (bound + 1) % 2
            if prog.rounds > bound:
                problems.append(f"{kind.value} N={n}: rounds {prog.rounds} "
                                f"exceed {bound}")
    for n in range(1, 4):
        prog = ppbt_mes_no_aa(n)
        if prog.rounds != 0:
            problems.append(f"unamplified N={n}: rounds {prog.rounds}")
        povm = analytic_povm(Regime.PPBT_MES, n)
        rng = np.random.default_rng(np.random.PCG64(50 + n))
        psis = haar_columns(rng, 2 ** (n + 1), 3)
        out = prog.apply(prog.initial_state(psis))
        got = branch_weights(out, "port")[:n].sum(axis=0)
        want = sum(np.einsum("bt,bc,ct->t", psis.conj(),
                             povm.element(i + 1), psis).real
                   for i in range(n)) / 4
        if np.abs(got - want).max() > 1e-9:
            problems.append(f"unamplified N={n}: success weight off by "
                            f"{np.abs(got - want).max():.3e}")
    report(5, "round counts and the unamplified quarter rule", problems)


def test_criterion_6_small_case_anchors():
    problems = []
    f1 = average_fidelity(ProtocolKind.DPBT_MES, 1)
    if abs(f1 - 0.5) > 1e-10:
        problems.append(f"single-port deterministic fidelity {f1!r}")
    p1 = success_probability(ProtocolKind.PPBT_MES, 1)
    if abs(p1 - 0.25) > 1e-10:
        problems.append(f"single-port heralded success {p1!r}")
    rng = np.random.default_rng(np.random.PCG64(6))
    for kind in (ProtocolKind.PPBT_MES, ProtocolKind.PPBT_OPT):
        for n in (1, 2):
            chi = haar_columns(rng, 2, 50)
            batch = teleport_batch(kind, n, chi, rng=60 + n)
            good = batch.outcomes <= n
            if good.any():
                gap = float(np.abs(batch.fidelities[good] - 1.0).max())
                if gap > 1e-9:
                    problems.append(f"{kind.value} N={n}: success fidelity "
                                    f"off by {gap:.3e}")
    report(6, "single-port anchors and perfect heralded output", problems)


def test_criterion_7_scaling_windows():
    problems = []
    f_mes = {n: average_fidelity(ProtocolKind.DPBT_MES, n) for n in range(2, 7)}
    f_opt = {n: average_fidelity(ProtocolKind.DPBT_OPT, n) for n in range(2, 7)}
    p_mes = {n: success_probability_exact(ProtocolKind.PPBT_MES, n)
             for n in range(2, 7)}
    p_opt = {n: success_probability_exact(ProtocolKind.PPBT_OPT, n)
             for n in range(2, 7)}
    series = {
        "(1-f_mes)N": {n: (1 - f_mes[n]) * n for n in f_mes},
        "(1-f_opt)N^2": {n: (1 - f_opt[n]) * n * n for n in f_opt},
        "(1-p_mes)sqrt(N)": {n: (1 - float(p_mes[n])) * math.sqrt(n)
                             for n in p_mes},
        "(1-p_opt)N": {n: (1 - float(p_opt[n])) * n for n in p_opt},
    }
    for name, values in series.items():
        for n in range(2, 6):
            ratio = values[n + 1] / values[n]
            if not 0.5 <= ratio <= 2.0:
                problems.append(f"{name}: ratio {ratio:.3f} at N={n}->{n + 1}")
    for n in range(1, 7):
        if average_fidelity(ProtocolKind.DPBT_OPT, n) < average_fidelity(
                ProtocolKind.DPBT_MES, n):
            problems.append(f"fidelity ordering fails at N={n}")
        if success_probability_exact(ProtocolKind.PPBT_OPT, n) < \
                success_probability_exact(ProtocolKind.PPBT_MES, n):
            problems.append(f"success ordering fails at N={n}")
    report(7, "error scalings stay in their windows, N=2..6", problems)


def test_criterion_8_sampled_outcome_frequencies():
    problems = []
    trials = 10_000
    chunk = 2_000
    worst = 0.0
    for kind in KINDS:
        for n in (1, 2, 3):
            gen = np.random.default_rng(np.random.PCG64(7000 + n))
            expected = expected_outcome_distribution(kind, n)
            counts = np.zeros(len(expected))
            for _ in range(trials // chunk):
                chi = np.column_stack([haar_qubit(gen) for _ in range(chunk)])
                batch = teleport_batch(kind, n, chi, rng=gen)
                counts += np.bincount(batch.outcomes - 1,
                                      minlength=len(expected))
            for value, p in zip(counts, expected):
                var = trials * p * (1 - p)
                if var <= 0:
                    if value != trials * p:
                        problems.append(f"{kind.value} N={n}: degenerate "
                                        f"outcome count {value}")
                    continue
                z = (value - trials * p) / math.sqrt(var)
                worst = max(worst, abs(z))
                if abs(z) >= 4:
                    problems.append(f"{kind.value} N={n}: |z| = {abs(z):.2f}")
    report(8, "sampled outcomes match exact distributions, 10^4 trials",
           problems, f"max |z| {worst:.2f}")


def test_criterion_9_resource_growth_and_classes():
    problems = []
    expected_n_class = {kind: ("Theta(1)" if kind is ProtocolKind.PPBT_MES
                               else "O(sqrt(N))") for kind in KINDS}
    for kind in KINDS:
        rotations = {n: resource_estimate(kind, n).two_level_rotations
                     for n in range(2, 7)}
        for small, big in ((2, 4), (3, 6)):
            ratio = rotations[big] / rotations[small]
            if not 1.5 <= ratio <= 2.5:
                problems.append(f"{kind.value}: rotation ratio {ratio:.2f} "
                                f"for N={small}->{big}")
        for variant, ancilla_class in ((SchurVariant.BCH, "O(N log N)"),
                                       (SchurVariant.SPIN, "O(log N)")):
            est = resource_estimate(kind, 4, schur_variant=variant)
            triple = (est.p_class, est.n_class, est.ancilla_class)
            expect = ("O(N)", expected_n_class[kind], ancilla_class)
            if triple != expect:
                problems.append(f"{kind.value} {variant.value}: classes "
                                f"{triple} vs {expect}")
    report(9, "rotation growth is linear and class labels agree", problems)
