import numpy as np
import pytest

from portsim.povm_analytic import (
    MAX_STATE_PORTS,
    analytic_povm,
    failure_eigensystem,
    label_pattern,
    pair_families,
    port_eigensystem,
)
from portsim.povm_oracle import build_povm
from portsim.schur import enumerate_labels, schur_vector
from portsim.spinalg import Regime, regime_scalars

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
    analytic_povm(regime, 2).validate()


# ----------------------------------------------------------- eigensystem ----

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_eigensystem_spans_the_full_space(regime, n):
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
            np.testing.assert_allclose(op @ vec, entry.value * vec, atol=1e-10)


def test_two_port_pgm_spectrum():
    values = sorted(e.value for e in port_eigensystem(Regime.DPBT, 2).entries)
    np.testing.assert_allclose(values, [0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_agrees_with_dense_eigensolve(n):
    claimed = sorted(e.value for e in port_eigensystem(Regime.DPBT, n).entries)
    solved = np.sort(np.linalg.eigvalsh(build_povm(Regime.DPBT, n).element(1)))
    np.testing.assert_allclose(claimed, solved, atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_values_back_the_floats(regime, n):
    for entry in port_eigensystem(regime, n).entries:
        assert entry.value == pytest.approx(float(entry.value_exact), abs=1e-15)


@pytest.mark.parametrize("regime", [Regime.PPBT_MES, Regime.PPBT_OPT])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_failure_values_come_from_sector_scalars(regime, n):
    scal = regime_scalars(regime, n)
    for entry in failure_eigensystem(regime, n).entries:
        (lab,) = entry.labels
        assert entry.value_exact == scal.failure_eigenvalue(lab.spins[-2], lab.s)


def test_failure_eigensystem_rejects_deterministic_regime():
    with pytest.raises(ValueError):
        failure_eigensystem(Regime.DPBT, 2)


# ---------------------------------------------------------- pair families ----

def test_pair_families_carry_rotation_data():
    scal = regime_scalars(Regime.PPBT_MES, 2)
    fams = pair_families(Regime.PPBT_MES, 2)
    assert len(fams) == 2
    for fam in fams:
        assert fam.pair == scal.rotation_pair(fam.s)
        assert fam.eigenvalue == scal.sector_eigenvalue(fam.s)
        assert fam.pair[0] ** 2 + fam.pair[1] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert len(fam.labels) == 2
        assert {lab.s for lab in fam.labels} == {fam.s}


def test_label_pattern_values():
    pats = {label_pattern(Regime.DPBT, 2, lab) for lab in enumerate_labels(3)}
    assert pats == {"++", "-+"}
    # the deterministic measurement keeps the top sector, heralded ones drop it
    top = enumerate_labels(4)[0]
    assert label_pattern(Regime.DPBT, 3, top) == "++"
    assert label_pattern(Regime.PPBT_OPT, 3, top) == "--"
    for n in (2, 3):
        for regime in REGIMES:
            for lab in enumerate_labels(n + 1):
                assert label_pattern(regime, n, lab) in {"++", "-+", "+-", "--"}


def test_analytic_build_respects_cap():
    with pytest.raises(ValueError):
        analytic_povm(Regime.DPBT, MAX_STATE_PORTS + 1)
