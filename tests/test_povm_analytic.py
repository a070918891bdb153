import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import failure_families, port_families
from portsim import povm_analytic
from portsim.povm_analytic import (
    MAX_STATE_PORTS,
    analytic_povm,
    failure_eigensystem,
    port_eigensystem,
)
from portsim.povm_oracle import build_povm
from portsim.schur import coupling_unitary, enumerate_labels
from portsim.spinalg import (Regime, adjacent_pairs, chain_multiplicity, failure_eigenvalue,
                             pair_weights)

REGIMES = [Regime.DPBT, Regime.PPBT_MES, Regime.PPBT_OPT]


def sector_vectors(es, sector) -> np.ndarray:
    """The sector's eigenvectors as columns, one per family."""
    return coupling_unitary(es.n_ports + 1)[:, sector.families] @ np.array(sector.coeffs)


def element_tables(regime, n):
    """(eigensystem, outcome) of the port-N element and, if any, the failure
    element."""
    tables = [(port_eigensystem(regime, n), n)]
    if regime != Regime.DPBT:
        tables.append((failure_eigensystem(regime, n), n + 1))
    return tables


def exact_trace(es) -> Fraction:
    return sum(sector.value * len(sector.families) for sector in es.sectors)


def spectrum(es) -> list[float]:
    """All 2^(N+1) eigenvalues, ascending: the sector values with one copy
    per family, and zeros on the labels no sector lists."""
    values = [float(sector.value) for sector in es.sectors for _ in sector.families]
    return sorted(values + [0.0] * (2 ** (es.n_ports + 1) - len(values)))


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
    # the symbolic tables are uncapped; only the dense assembly has a cap.
    # The N port elements and the failure element sum to the identity, so
    # their exact traces fill the whole 2^(N+1)-dimensional space
    total = n * exact_trace(port_eigensystem(regime, n))
    if regime != Regime.DPBT:
        total += exact_trace(failure_eigensystem(regime, n))
    assert total == 2 ** (n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvectors_are_orthonormal(n):
    es = port_eigensystem(Regime.PPBT_OPT, n)
    basis = np.column_stack([sector_vectors(es, sector) for sector in es.sectors])
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_entries_satisfy_the_eigen_relation(regime, n):
    # the dense element must reproduce value * vector for every family
    dense = build_povm(regime, n)
    for es, which in element_tables(regime, n):
        op = dense.element(which)
        for sector in es.sectors:
            vecs = sector_vectors(es, sector)
            np.testing.assert_allclose(op @ vecs, float(sector.value) * vecs, atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_families_partition_labels_and_rebuild_the_oracle(regime, n):
    # the unlisted labels are the kernel, so the sectors alone give the element
    labels = enumerate_labels(n + 1)
    dense = build_povm(regime, n)
    for es, which in element_tables(regime, n):
        listed = np.concatenate([sector.families.ravel() for sector in es.sectors])
        assert len(np.unique(listed)) == len(listed)
        element = np.zeros((2 ** (n + 1),) * 2)
        for sector in es.sectors:
            kept = labels[sector.families[:, -1], -3:-1].tolist()
            assert {(s, j) for j, s in kept} == {(sector.s, sector.j)}
            vecs = sector_vectors(es, sector)
            element += float(sector.value) * vecs @ vecs.T
        np.testing.assert_allclose(element, dense.element(which), atol=1e-9)


def test_two_port_pgm_spectrum():
    values = spectrum(port_eigensystem(Regime.DPBT, 2))
    np.testing.assert_allclose(values, [0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_agrees_with_dense_eigensolve(n):
    claimed = spectrum(port_eigensystem(Regime.DPBT, n))
    solved = np.sort(np.linalg.eigvalsh(build_povm(Regime.DPBT, n).element(1)))
    np.testing.assert_allclose(claimed, solved, atol=1e-10)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_values_back_the_floats(regime, n):
    # the assembled port-N element carries the exact spectrum as floats
    es = port_eigensystem(regime, n)
    assert all(isinstance(sector.value, Fraction) for sector in es.sectors)
    trace = np.trace(analytic_povm(regime, n).element(n))
    assert trace == pytest.approx(float(exact_trace(es)), abs=1e-12)


@pytest.mark.parametrize("regime", [Regime.PPBT_MES, Regime.PPBT_OPT])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_failure_values_come_from_sector_scalars(regime, n):
    labels = enumerate_labels(n + 1)
    listed = set()
    for sector in failure_eigensystem(regime, n).sectors:
        j, s = sector.j, sector.s
        assert sector.value == failure_eigenvalue(regime, n, j, s) != 0
        assert sector.families.shape == (chain_multiplicity(n, j) * (s + 1), 1)
        assert set(map(tuple, labels[sector.families[:, 0], -3:-1].tolist())) == {(j, s)}
        listed.add((j, s))
    # the sectors left out are exactly the zero eigenvalues
    for j, s in adjacent_pairs(n):
        assert ((j, s) in listed) == (failure_eigenvalue(regime, n, j, s) != 0)


def test_failure_eigensystem_rejects_deterministic_regime():
    with pytest.raises(ValueError):
        failure_eigensystem(Regime.DPBT, 2)


@pytest.mark.parametrize("builder", [port_eigensystem, failure_eigensystem])
@pytest.mark.parametrize("regime", [Regime.PPBT_MES, Regime.PPBT_OPT])
@pytest.mark.parametrize("n", [0, -1])
def test_eigensystems_reject_fewer_than_one_port(builder, regime, n):
    with pytest.raises(ValueError, match="n_ports must be >= 1"):
        builder(regime, n)


# ---------------------------------------------------------- pair families ----

def test_pair_families_carry_rotation_data():
    # the compile reads its rotations off the pair sectors alone
    labels = enumerate_labels(3)
    (fam,) = [sector for sector in port_eigensystem(Regime.PPBT_MES, 2).sectors
              if len(sector.coeffs) == 2]
    assert fam.families.shape == (2, 2)
    s = fam.s
    lo, hi = pair_weights(Regime.PPBT_MES, 2, s)
    assert fam.value == lo + hi
    assert fam.coeffs[0] >= 0 > fam.coeffs[1]
    assert fam.coeffs[0] ** 2 == pytest.approx(lo / (lo + hi), abs=1e-15)
    assert fam.coeffs[0] ** 2 + fam.coeffs[1] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert set(labels[fam.families.ravel(), -2].tolist()) == {s}
    for regime in REGIMES:
        for n in range(1, 5):
            labels = enumerate_labels(n + 1)
            kept = [sector for sector in port_eigensystem(regime, n).sectors if sector.s < n]
            assert kept
            for sector in kept:
                s = sector.s
                assert set(labels[sector.families.ravel(), -2].tolist()) == {s}
                assert sector.families.shape[1] == len(sector.coeffs) == (1 if s == 0 else 2)
                lo, hi = pair_weights(regime, n, s)
                assert sector.value == lo + hi
                assert sector.coeffs[-1] == -math.sqrt(hi / (lo + hi))


def test_label_pattern_values():
    # a family pairs the j = s - 1/2 and j = s + 1/2 labels of pre-pair spin s
    # and keeps the second; every label no sector lists is in the kernel
    for regime in REGIMES:
        for n in (1, 2, 3):
            # (k_pair, j) per label, k_pair = 0 when n = 1
            pairs = np.pad(enumerate_labels(n + 1), ((0, 0), (1, 0)))[:, -4:-2]
            sectors = port_eigensystem(regime, n).sectors
            for sector in sectors:
                for row in sector.families:
                    labs = pairs[row].tolist()
                    if len(labs) == 2:
                        assert [j - sector.s for _, j in labs] == [-1, 1]
                    if sector.s <= n:
                        assert all(k_pair == sector.s for k_pair, _ in labs)
                        assert labs[-1][1] == sector.s + 1
            # the deterministic measurement keeps the top sector, heralded ones drop it
            top = [sector for sector in sectors if sector.s == n + 1]
            if regime is Regime.DPBT:
                assert [sector.value for sector in top] == [Fraction(1, n)]
                assert top[0].families.shape == (n + 2, 1)
            else:
                assert top == []


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", range(1, 12))
def test_families_match_the_label_by_label_grouping(regime, n):
    systems = [(port_eigensystem(regime, n), port_families(regime, n))]
    if regime is not Regime.DPBT:
        systems.append((failure_eigensystem(regime, n), failure_families(regime, n)))
    for es, expected in systems:
        got = [(sector.s, sector.j, sector.families.tolist()) for sector in es.sectors]
        assert got == expected
        assert all(sector.families.dtype == np.intp for sector in es.sectors)


def test_analytic_build_respects_cap():
    with pytest.raises(ValueError):
        analytic_povm(Regime.DPBT, MAX_STATE_PORTS + 1)


@pytest.mark.parametrize("regime, assemblies",
                         [(Regime.DPBT, 1), (Regime.PPBT_MES, 2), (Regime.PPBT_OPT, 2)])
def test_analytic_povm_assembles_each_eigensystem_once(monkeypatch, regime, assemblies):
    # ports 1..N-1 are swap conjugates of the one port-N assembly
    calls = []
    assemble = povm_analytic._dense_element
    monkeypatch.setattr(povm_analytic, "_dense_element",
                        lambda es, *args: calls.append(es) or assemble(es, *args))
    povm = analytic_povm(regime, 3)
    assert len(calls) == assemblies
    assert povm.n_outcomes == 3 + assemblies - 1
