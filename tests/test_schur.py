import hashlib
import math
from functools import reduce

import numpy as np
import pytest

from helpers import clebsch_gordan, coupling_oracle, label_oracle
from portsim.schur import (
    MAX_DENSE_QUBITS,
    MAX_ENUMERATE_QUBITS,
    coupling_entries,
    coupling_level,
    coupling_unitary,
    enumerate_labels,
    sector_operator,
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
    assert enumerate_labels(n).shape == (count, n + 1)


def test_two_qubit_labels_cover_triplet_and_singlet():
    labels = enumerate_labels(2)
    assert labels[:, 1:].tolist() == [[2, 2], [2, 0], [2, -2], [0, 0]]


def test_canonical_order_descending_spin_then_m():
    labels = enumerate_labels(3)
    keys = [(-lab[-2], lab[1:-2], -lab[-1]) for lab in labels.tolist()]
    assert keys == sorted(keys)
    assert labels[0, -2] == 3 and labels[0, -1] == 3


@pytest.mark.parametrize("n", range(1, 15))
def test_label_table_matches_the_sorted_chains(n):
    assert enumerate_labels(n).tolist() == [[*spins, m] for spins, m in label_oracle(n)]


@pytest.mark.parametrize("n", [1, 2, 7, 14])
def test_each_spin_has_its_multiplicity_of_rows(n):
    spins = enumerate_labels(n)[:, n - 1]
    for s in spin_values(n):
        assert np.count_nonzero(spins == s) == chain_multiplicity(n, s) * (s + 1)
    assert len(spins) == sum(chain_multiplicity(n, s) * (s + 1) for s in spin_values(n))


def test_label_chain_steps_are_half_unit():
    labels = enumerate_labels(5)
    assert (labels[:, 0] == 1).all()
    assert (np.abs(np.diff(labels[:, :5], axis=1)) == 1).all()
    assert (labels[:, :5] >= 0).all()


def test_label_table_is_cached_and_read_only():
    labels = enumerate_labels(4)
    assert enumerate_labels(4) is labels
    assert labels.dtype == np.int8
    with pytest.raises(ValueError):
        labels[0, 0] = 3


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_labels(0)
    with pytest.raises(ValueError):
        enumerate_labels(MAX_ENUMERATE_QUBITS + 1)


# ------------------------------------------------------------- vectors ----

def test_singlet_vector():
    (i,) = np.flatnonzero(enumerate_labels(2)[:, 1] == 0)
    np.testing.assert_allclose(
        coupling_unitary(2)[:, i], [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0], atol=1e-15)


def test_stretched_vector_is_all_zeros_bitstring():
    assert enumerate_labels(2)[0, -1] == 2
    np.testing.assert_allclose(coupling_unitary(2)[:, 0], [1, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vectors_are_total_spin_eigenstates(n):
    s_sq = total_spin_squared(n)
    u = coupling_unitary(n)
    for vec, twice in zip(u.T, enumerate_labels(n)[:, n - 1].tolist()):
        s = twice / 2
        np.testing.assert_allclose(s_sq @ vec, s * (s + 1) * vec, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vector_support_respects_z_spin(n):
    u = coupling_unitary(n)
    for vec, m in zip(u.T, enumerate_labels(n)[:, n].tolist()):
        for idx in np.flatnonzero(np.abs(vec) > 1e-14):
            assert z_spin(int(idx), n) == m / 2


def test_three_qubit_vector_matches_direct_product_sum():
    # independent evaluation: couple qubit by qubit with explicit 2x2 blocks
    labels = enumerate_labels(3)
    (i,) = np.flatnonzero((labels[:, 1] == 0) & (labels[:, 3] == 1))
    vec = coupling_unitary(3)[:, i]
    # chain 1/2 -> 0 -> 1/2: first two qubits form the singlet, third is free
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    expect = np.kron(singlet, [1, 0])
    np.testing.assert_allclose(vec, expect, atol=1e-14)


# ---------------------------------------------------------- the unitary ----

@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_coupling_unitary_is_unitary(n):
    u = coupling_unitary(n)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_columns_are_eigenstates_of_every_running_total(n):
    # column i is label i: its column t - 1 is the total spin of the first t qubits
    u = coupling_unitary(n)
    labels = enumerate_labels(n)
    for t in range(1, n + 1):
        s_sq = np.kron(total_spin_squared(t), np.eye(2 ** (n - t)))
        spin = labels[:, t - 1] / 2
        np.testing.assert_allclose(s_sq @ u, u * (spin * (spin + 1)), atol=1e-10)


@pytest.mark.parametrize("n", range(1, 7))
def test_coupling_unitary_matches_the_per_label_products(n):
    np.testing.assert_allclose(coupling_unitary(n), coupling_oracle(n), rtol=0, atol=1e-14)


# sha256 of the transform's bytes: every seeded output rests on these floats,
# so the qubit-by-qubit recurrence must reproduce them bit for bit (n = 9 and
# 10 as the earlier column-by-column recurrence built them)
UNITARY_SHA256 = {
    1: "7b38b86d9a7e623764dc234b5d8aa67afbf388f139b4dc5a266ed0b4b7a258ea",
    2: "883a40cbd9062560ef18f4e734f8aebfdf402ed67eb1226b68dda6b877362d3c",
    3: "b5f5fac06783f7f6ac040e6e831f3be4dba74037405e0a9bce5c45a5c2a0042d",
    4: "8afc29fea50b8b4110895d33996bd3d39296360cef2d459d3dd154467ad2e28f",
    5: "3e992012d18112ad3f4fe590e6c24dff1cf8a28f42e3b1e83f83488d5c0a1b6b",
    6: "cf5bc545967ffa88ebebd7fb7bb152066ae52be4c37ce7765dd64fde6472eb13",
    7: "24cb0676d7c9f7351bf1bf649fe853c95db9edcfab39a35188f01793d7a08f10",
    8: "07d934ee9e6eecaebfd08713b64b1d2209abff800dbabaabfa20cfc5c02014bc",
    9: "abb22c41ec283aea237bd9505cf5c15ac5000963c7da12f576341b9090d0d8be",
    10: "9b8736ed1afb6d752a2f738507b22d2cae00c950b30702b6406a0039402c512c",
}


@pytest.mark.parametrize("n", sorted(UNITARY_SHA256))
def test_coupling_unitary_bytes_are_pinned(n):
    assert hashlib.sha256(coupling_unitary(n).tobytes()).hexdigest() == UNITARY_SHA256[n]


def test_coupling_unitary_is_built_once_and_read_only():
    u = coupling_unitary(4)
    assert coupling_unitary(4) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_coupling_unitary_respects_dense_cap():
    with pytest.raises(ValueError):
        coupling_unitary(MAX_DENSE_QUBITS + 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_coupling_level_holds_one_clebsch_gordan_factor_per_piece(n):
    prev, coeff = coupling_level(n)
    assert prev.shape == coeff.shape == (2, 2 ** n)
    assert not prev.flags.writeable and not coeff.flags.writeable
    assert coupling_level(n)[0] is prev
    below, labels = enumerate_labels(n - 1).tolist(), enumerate_labels(n).tolist()
    for bit, x in ((0, 1), (1, -1)):
        for label, p, c in zip(labels, prev[bit].tolist(), coeff[bit].tolist()):
            if p < 0:
                # m - x leaves the parent chain: the piece reads a zero column
                assert c == 1.0 and abs(label[-1] - x) > label[-3]
                continue
            assert below[p][:-1] == label[:-2] and below[p][-1] == label[-1] - x
            assert c == pytest.approx(
                clebsch_gordan(label[-3], label[-1] - x, x, label[-2], label[-1]), abs=1e-15)


@pytest.mark.parametrize("n", range(1, 10))
def test_coupling_entries_are_the_transform_bit_for_bit(n):
    # read one level up from the transform below, signed zeros included
    rows = np.arange(2 ** n)[:, None]
    labels = np.arange(2 ** n)[None]
    entries = coupling_entries(n, rows, labels)
    unitary = coupling_unitary(n)
    np.testing.assert_array_equal(entries, unitary)
    assert (np.signbit(entries) == np.signbit(unitary)).all()
    # broadcast like a gather
    picked = coupling_entries(n, rows[::3, 0], labels[0, ::3][::-1])
    np.testing.assert_array_equal(picked, unitary[rows[::3, 0], labels[0, ::3][::-1]])


@pytest.mark.parametrize("n", range(1, 11))
def test_singlet_chain_is_a_signed_m_reversal(n):
    # u eps u^T = eps for u in SU(2): in the coupled basis eps^(x)n sends
    # label L = (chain, m) to L + m = (chain, -m), with sign (-1)^((s-m)/2)
    u = coupling_unitary(n)
    labels = enumerate_labels(n).astype(np.int64)
    s, m = labels[:, -2], labels[:, -1]
    reversal = np.zeros((2 ** n, 2 ** n))
    reversal[np.arange(2 ** n), np.arange(2 ** n) + m] = (-1.0) ** ((s - m) // 2)
    eps = reduce(np.kron, [np.array([[0.0, 1.0], [-1.0, 0.0]])] * n)
    np.testing.assert_allclose(u.T @ eps @ u, reversal, rtol=0, atol=1e-13)


# ------------------------------------------------------ spin projectors ----

@pytest.mark.parametrize("n", [2, 3, 4])
def test_spin_projectors_resolve_identity(n):
    total = sector_operator(n, {s: 1 for s in spin_values(n)})
    np.testing.assert_allclose(total, np.eye(2 ** n), atol=1e-12)


def test_spin_projector_is_idempotent_with_known_rank():
    p = sector_operator(4, {2: 1})
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
    rank = chain_multiplicity(4, 2) * 3
    assert round(np.trace(p).real) == rank


@pytest.mark.parametrize("n", range(1, 7))
def test_spin_projector_is_the_gram_of_its_sector_vectors(n):
    u = coupling_unitary(n)
    spins = enumerate_labels(n)[:, n - 1]
    for s in spin_values(n):
        cols = u[:, spins == s]
        assert np.array_equal(sector_operator(n, {s: 1}), cols @ cols.T)
    # weighted: each sector keeps its own weight on its own vectors
    weights = {s: 1 + s for s in spin_values(n)}
    scale = np.array([weights[s] for s in spins])
    np.testing.assert_allclose(sector_operator(n, weights) @ u, u * scale, atol=1e-12)


def test_sector_operator_of_no_qubits_and_inadmissible_spins():
    # zero qubits: the one state of spin 0
    assert np.array_equal(sector_operator(0, {0: 3}), [[3.0]])
    for n, s in ((0, 1), (3, 0), (3, 5)):
        with pytest.raises(ValueError, match="admissible"):
            sector_operator(n, {s: 1})
