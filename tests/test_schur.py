import json
import math

import numpy as np
import pytest

from portsim.halfint import HALF, ZERO, HalfInt
from portsim.schur import (
    MAX_DENSE_QUBITS,
    MAX_ENUMERATE_QUBITS,
    SchurLabel,
    coupling_unitary,
    enumerate_labels,
    label_index,
    label_table,
    schur_vector,
    spin_projector,
)
from portsim.spinalg import chain_multiplicity, spin_values

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def total_spin_squared(n: int) -> np.ndarray:
    """S^2 assembled directly from Pauli matrices, an independent route."""
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for axis in "xyz":
        component = np.zeros((dim, dim), dtype=complex)
        for q in range(n):
            factors = [PAULI[axis] / 2 if k == q else np.eye(2) for k in range(n)]
            term = factors[0]
            for f in factors[1:]:
                term = np.kron(term, f)
            component += term
        total += component @ component
    return total


def z_spin(bits: int, n: int) -> float:
    return (n - 2 * bin(bits).count("1")) / 2


# -------------------------------------------------------------- labels ----

@pytest.mark.parametrize("n, count", [(1, 2), (2, 4), (3, 8), (5, 32)])
def test_label_count_is_two_to_the_n(n, count):
    assert len(enumerate_labels(n)) == count


def test_two_qubit_labels_cover_triplet_and_singlet():
    labels = enumerate_labels(2)
    sm = [(lab.s.twice, lab.m.twice) for lab in labels]
    assert sm == [(2, 2), (2, 0), (2, -2), (0, 0)]


def test_canonical_order_descending_spin_then_m():
    labels = enumerate_labels(3)
    keys = [lab.sort_key() for lab in labels]
    assert keys == sorted(keys)
    assert labels[0].s.twice == 3 and labels[0].m.twice == 3


def test_label_chain_steps_are_half_unit():
    for lab in enumerate_labels(5):
        assert lab.spins[0] == HALF
        for a, b in zip(lab.spins, lab.spins[1:]):
            assert abs(a.twice - b.twice) == 1
            assert b.twice >= 0


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_labels(0)
    with pytest.raises(ValueError):
        enumerate_labels(MAX_ENUMERATE_QUBITS + 1)


# ------------------------------------------------------------- vectors ----

def test_singlet_vector():
    lab = next(l for l in enumerate_labels(2) if l.s == ZERO)
    np.testing.assert_allclose(
        schur_vector(lab), [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0], atol=1e-15)


def test_stretched_vector_is_all_zeros_bitstring():
    lab = enumerate_labels(2)[0]
    assert lab.m.twice == 2
    np.testing.assert_allclose(schur_vector(lab), [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vectors_are_total_spin_eigenstates(n):
    s_sq = total_spin_squared(n)
    for lab in enumerate_labels(n):
        vec = schur_vector(lab)
        s = float(lab.s)
        np.testing.assert_allclose(s_sq @ vec, s * (s + 1) * vec, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vector_support_respects_z_spin(n):
    for lab in enumerate_labels(n):
        vec = schur_vector(lab)
        for idx in np.flatnonzero(np.abs(vec) > 1e-14):
            assert z_spin(int(idx), n) == float(lab.m)


def test_gram_matrix_is_identity_at_four_qubits():
    vectors = np.column_stack([schur_vector(l) for l in enumerate_labels(4)])
    np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(16), atol=1e-12)


def test_three_qubit_vector_matches_direct_product_sum():
    # independent evaluation: couple qubit by qubit with explicit 2x2 blocks
    lab = next(l for l in enumerate_labels(3)
               if l.spins[1] == ZERO and l.m == HALF)
    vec = schur_vector(lab)
    # chain 1/2 -> 0 -> 1/2: first two qubits form the singlet, third is free
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    expect = np.kron(singlet, [1, 0])
    np.testing.assert_allclose(vec, expect, atol=1e-14)


# ---------------------------------------------------------- the unitary ----

@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_coupling_unitary_is_unitary(n):
    u = coupling_unitary(n)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)


def test_coupling_unitary_columns_match_vectors():
    u = coupling_unitary(3)
    for i, lab in enumerate(enumerate_labels(3)):
        np.testing.assert_allclose(u[:, i], schur_vector(lab), atol=1e-14)


def test_singlet_column_values():
    u = coupling_unitary(2)
    lab = next(l for l in enumerate_labels(2) if l.s == ZERO)
    col = u[:, label_index(lab)]
    np.testing.assert_allclose(col, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0],
                               atol=1e-15)


def test_coupling_unitary_respects_dense_cap():
    with pytest.raises(ValueError):
        coupling_unitary(MAX_DENSE_QUBITS + 1)


# ----------------------------------------------------------- bijection ----

@pytest.mark.parametrize("n", [1, 3, 6])
def test_label_index_round_trip(n):
    for i, lab in enumerate(enumerate_labels(n)):
        assert label_index(lab) == i


def test_label_table_serializes_to_json():
    rows = label_table(3)
    assert len(rows) == 8
    parsed = json.loads(json.dumps(rows))
    assert parsed[0]["index"] == 0
    assert all(isinstance(r["s"], int) and isinstance(r["m"], int) for r in parsed)
    # one-qubit rows have no penultimate spin
    assert label_table(1)[0]["j"] is None


# ------------------------------------------------------ spin projectors ----

@pytest.mark.parametrize("n", [2, 3, 4])
def test_spin_projectors_resolve_identity(n):
    total = sum(spin_projector(n, s) for s in spin_values(n))
    np.testing.assert_allclose(total, np.eye(2 ** n), atol=1e-12)


def test_spin_projector_is_idempotent_with_known_rank():
    p = spin_projector(4, HalfInt(2))
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
    rank = chain_multiplicity(4, HalfInt(2)) * 3
    assert round(np.trace(p).real) == rank


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_projector_is_the_gram_of_its_sector_vectors(n):
    for s in spin_values(n):
        cols = np.array([schur_vector(lab) for lab in enumerate_labels(n) if lab.s == s]).T
        assert np.array_equal(spin_projector(n, s), cols @ cols.T)
