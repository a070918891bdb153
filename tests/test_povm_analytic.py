import math
from fractions import Fraction

import numpy as np
import pytest

from portsim import povm_analytic
from portsim.povm_analytic import (
    MAX_STATE_PORTS,
    analytic_povm,
    failure_eigensystem,
    port_eigensystem,
)
from portsim.povm_oracle import build_povm
from portsim.schur import schur_vector
from portsim.spinalg import Regime, failure_eigenvalue, pair_weights

REGIMES = [Regime.DPBT, Regime.PPBT_MES, Regime.PPBT_OPT]


def entry_vector(entry) -> np.ndarray:
    vec = sum(c * schur_vector(lab) for c, lab in zip(entry.coeffs, entry.labels))
    return np.asarray(vec)


# ---------------------------------------------------- against the oracle ----

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_analytic_elements_match_dense_oracle(regime, n):
    closed = analytic_povm(regime, n)
    dense = build_povm(regime, n)
    assert closed.n_outcomes == dense.n_outcomes
    for i in range(1, dense.n_outcomes + 1):
        np.testing.assert_allclose(closed.element(i), dense.element(i), atol=1e-9)


@pytest.mark.parametrize("regime", REGIMES)
def test_analytic_povm_validates(regime):
    povm = analytic_povm(regime, 2)
    assert povm.completeness_residual() <= 1e-10
    assert povm.min_eigenvalue() >= -1e-10


# ----------------------------------------------------------- eigensystem ----

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", range(1, 9))
def test_eigensystem_spans_the_full_space(regime, n):
    # the symbolic tables are uncapped; only the dense assembly has a cap
    es = port_eigensystem(regime, n)
    assert len(es.entries) == 2 ** (n + 1)
    if regime != Regime.DPBT:
        assert len(failure_eigensystem(regime, n).entries) == 2 ** (n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvectors_are_orthonormal(n):
    es = port_eigensystem(Regime.PPBT_OPT, n)
    basis = np.column_stack([entry_vector(e) for e in es.entries])
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2 ** (n + 1)),
                               atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_entries_satisfy_the_eigen_relation(regime, n):
    # the dense element must reproduce value * vector for every entry
    dense = build_povm(regime, n)
    for es, which in [(port_eigensystem(regime, n), n)] + (
            [(failure_eigensystem(regime, n), n + 1)] if regime != Regime.DPBT else []):
        op = dense.element(which)
        for entry in es.entries:
            vec = entry_vector(entry)
            np.testing.assert_allclose(op @ vec, float(entry.value_exact) * vec, atol=1e-10)


def test_two_port_pgm_spectrum():
    values = sorted(float(e.value_exact) for e in port_eigensystem(Regime.DPBT, 2).entries)
    np.testing.assert_allclose(values, [0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_agrees_with_dense_eigensolve(n):
    claimed = sorted(float(e.value_exact) for e in port_eigensystem(Regime.DPBT, n).entries)
    solved = np.sort(np.linalg.eigvalsh(build_povm(Regime.DPBT, n).element(1)))
    np.testing.assert_allclose(claimed, solved, atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_values_back_the_floats(regime, n):
    # the assembled port-N element carries the exact spectrum as floats
    es = port_eigensystem(regime, n)
    assert all(isinstance(e.value_exact, Fraction) for e in es.entries)
    trace = np.trace(analytic_povm(regime, n).element(n))
    assert trace == pytest.approx(float(sum(e.value_exact for e in es.entries)), abs=1e-12)


@pytest.mark.parametrize("regime", [Regime.PPBT_MES, Regime.PPBT_OPT])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_failure_values_come_from_sector_scalars(regime, n):
    for entry in failure_eigensystem(regime, n).entries:
        (lab,) = entry.labels
        assert entry.value_exact == failure_eigenvalue(regime, n, lab.spins[-2], lab.s)


def test_failure_eigensystem_rejects_deterministic_regime():
    with pytest.raises(ValueError):
        failure_eigensystem(Regime.DPBT, 2)


# ---------------------------------------------------------- pair families ----

def test_pair_families_carry_rotation_data():
    # the compile reads its rotations off the nonzero entries alone
    fams = [e for e in port_eigensystem(Regime.PPBT_MES, 2).entries
            if e.value_exact != 0 and len(e.labels) == 2]
    assert len(fams) == 2
    for fam in fams:
        s = fam.labels[0].s
        lo, hi = pair_weights(Regime.PPBT_MES, 2, s)
        assert fam.value_exact == lo + hi
        assert fam.coeffs[0] >= 0 > fam.coeffs[1]
        assert fam.coeffs[0] ** 2 == pytest.approx(lo / (lo + hi), abs=1e-15)
        assert fam.coeffs[0] ** 2 + fam.coeffs[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert {lab.s for lab in fam.labels} == {s}
    for regime in REGIMES:
        for n in range(1, 5):
            kept = [e for e in port_eigensystem(regime, n).entries
                    if e.value_exact != 0 and e.labels[0].s.twice < n]
            assert kept
            for entry in kept:
                s = entry.labels[0].s
                assert {lab.s for lab in entry.labels} == {s}
                assert len(entry.labels) == (1 if s.twice == 0 else 2)
                lo, hi = pair_weights(regime, n, s)
                assert entry.value_exact == lo + hi
                assert entry.coeffs[-1] == -math.sqrt(hi / (lo + hi))


def test_label_pattern_values():
    # a family pairs the j = s - 1/2 and j = s + 1/2 labels of pre-pair spin s;
    # every other label is unpaired and sits in the kernel
    for regime in REGIMES:
        for n in (1, 2, 3):
            entries = port_eigensystem(regime, n).entries
            for entry in entries:
                s = entry.labels[0].s
                if len(entry.labels) == 2:
                    assert [lab.j.twice - s.twice for lab in entry.labels] == [-1, 1]
                if entry.value_exact != 0 and s.twice <= n:
                    assert all(lab.k_pair == s for lab in entry.labels)
                    assert entry.labels[-1].j.twice == s.twice + 1
            # the deterministic measurement keeps the top sector, heralded ones drop it
            top = entries[0]
            assert top.labels[0].s.twice == n + 1
            assert top.value_exact == (Fraction(1, n) if regime is Regime.DPBT else 0)


def test_analytic_build_respects_cap():
    with pytest.raises(ValueError):
        analytic_povm(Regime.DPBT, MAX_STATE_PORTS + 1)


@pytest.mark.parametrize("regime, assemblies",
                         [(Regime.DPBT, 1), (Regime.PPBT_MES, 2), (Regime.PPBT_OPT, 2)])
def test_analytic_povm_assembles_each_eigensystem_once(monkeypatch, regime, assemblies):
    # ports 1..N-1 are swap conjugates of the one port-N assembly
    calls = []
    assemble = povm_analytic._assemble
    monkeypatch.setattr(povm_analytic, "_assemble",
                        lambda es, *args: calls.append(es) or assemble(es, *args))
    povm = analytic_povm(regime, 3)
    assert len(calls) == assemblies
    assert povm.n_outcomes == 3 + assemblies - 1
