"""Sequential spin-coupling basis for n qubits.

A basis label stores the running totals of coupling one qubit at a time:
spins[t] is the total spin of the first t+1 qubits, so spins[0] = 1/2 and
spins[-1] is the overall spin; m is the z-projection. Adjacent entries differ
by exactly 1/2 and never go negative. There are exactly 2^n labels.

Qubit convention: |0> carries z-spin +1/2, |1> carries -1/2; qubit 1 is the
most significant bit of a basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .halfint import HALF, HalfInt, valid_total_spin, valid_z_component
from .spinalg import clebsch_gordan

MAX_ENUMERATE_QUBITS = 20
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class SchurLabel:
    spins: tuple[HalfInt, ...]
    m: HalfInt

    def __post_init__(self) -> None:
        if not self.spins:
            raise ValueError("label needs at least one qubit")
        if self.spins[0] != HALF:
            raise ValueError("chain must start at spin 1/2")
        for a, b in zip(self.spins, self.spins[1:]):
            if abs(a.twice - b.twice) != 1 or b.twice < 0:
                raise ValueError(f"invalid chain step {a} -> {b}")
        if not valid_z_component(self.spins[-1], self.m):
            raise ValueError(f"m = {self.m} invalid for total spin {self.spins[-1]}")

    @property
    def n_qubits(self) -> int:
        return len(self.spins)

    @property
    def s(self) -> HalfInt:
        """Total spin of all qubits."""
        return self.spins[-1]

    @property
    def j(self) -> HalfInt:
        """Total spin of all but the last qubit (n >= 2)."""
        if len(self.spins) < 2:
            raise ValueError("single-qubit label has no penultimate spin")
        return self.spins[-2]

    @property
    def k_pair(self) -> HalfInt:
        """Total spin of all but the last two qubits; 0 when n <= 2."""
        return self.spins[-3] if len(self.spins) >= 3 else HalfInt(0)

    @property
    def ks(self) -> tuple[HalfInt, ...]:
        """Intermediate chain between the leading 1/2 and the final two spins."""
        return self.spins[1:-2] if len(self.spins) >= 3 else ()

    def sort_key(self) -> tuple:
        inner = tuple(k.twice for k in self.spins[1:-1])
        return (-self.s.twice, inner, -self.m.twice)


def _chains(n: int) -> list[tuple[HalfInt, ...]]:
    chains = [(HALF,)]
    for _ in range(n - 1):
        nxt = []
        for c in chains:
            t = c[-1].twice
            if t - 1 >= 0:
                nxt.append(c + (HalfInt(t - 1),))
            nxt.append(c + (HalfInt(t + 1),))
        chains = nxt
    return chains


@lru_cache(maxsize=None)
def enumerate_labels(n: int) -> tuple[SchurLabel, ...]:
    """All 2^n labels in canonical order: total spin descending, then the
    intermediate chain ascending lexicographically, then m descending."""
    if not 1 <= n <= MAX_ENUMERATE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_ENUMERATE_QUBITS}, got {n}")
    labels = []
    for chain in _chains(n):
        s = chain[-1]
        for mt in range(s.twice, -s.twice - 2, -2):
            labels.append(SchurLabel(chain, HalfInt(mt)))
    labels.sort(key=SchurLabel.sort_key)
    return tuple(labels)


@lru_cache(maxsize=None)
def _index_map(n: int) -> dict[SchurLabel, int]:
    return {lab: i for i, lab in enumerate(enumerate_labels(n))}


def label_index(label: SchurLabel) -> int:
    return _index_map(label.n_qubits)[label]


def _build_vector(spins: tuple[HalfInt, ...], m: HalfInt, memo: dict) -> np.ndarray:
    key = (spins, m)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(spins) == 1:
        vec = np.zeros(2)
        vec[0 if m.twice == 1 else 1] = 1.0
    else:
        prev = spins[-2]
        vec = np.zeros(2 ** len(spins))
        for bit, xt in ((0, 1), (1, -1)):
            m_prev = HalfInt(m.twice - xt)
            if not valid_z_component(prev, m_prev):
                continue
            coeff = clebsch_gordan(prev, m_prev, HALF, HalfInt(xt), spins[-1], m)
            if coeff == 0.0:
                continue
            vec[bit::2] = coeff * _build_vector(spins[:-1], m_prev, memo)
    memo[key] = vec
    return vec


def schur_vector(label: SchurLabel) -> np.ndarray:
    """Computational-basis amplitudes of the labelled coupling state.

    The amplitude on bitstring x is the product of one Clebsch-Gordan factor
    per coupling step; support is restricted to bitstrings whose z-spins sum
    to m.
    """
    return _build_vector(label.spins, label.m, {})


def coupling_unitary(n: int) -> np.ndarray:
    """Dense 2^n x 2^n change of basis; column label_index(L) holds the
    amplitudes of label L. Capped at n = 12 (the matrix alone is 2^24 floats)."""
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_DENSE_QUBITS} for the dense unitary, got {n}")
    labels = enumerate_labels(n)
    out = np.zeros((2 ** n, 2 ** n))
    memo: dict = {}
    for col, lab in enumerate(labels):
        out[:, col] = _build_vector(lab.spins, lab.m, memo)
    return out


def spin_projector(n: int, s) -> np.ndarray:
    """Projector onto the total-spin-s sector of n qubits."""
    s = HalfInt.of(s)
    if not valid_total_spin(n, s):
        raise ValueError(f"s = {s} is not an admissible {n}-qubit spin")
    memo: dict = {}
    cols = [_build_vector(lab.spins, lab.m, memo) for lab in enumerate_labels(n) if lab.s == s]
    mat = np.array(cols).T
    return mat @ mat.T


def label_table(n: int) -> list[dict]:
    """Serialization-ready rows, half-integers as twice-value ints.

    ks / j / s follow the N-port protocol reading of a chain: j is the
    penultimate running total, s the final one. A single-qubit label has no
    penultimate spin and emits j = None.
    """
    rows = []
    for i, lab in enumerate(enumerate_labels(n)):
        rows.append({
            "ks": [k.twice for k in lab.ks],
            "j": lab.j.twice if lab.n_qubits >= 2 else None,
            "s": lab.s.twice,
            "m": lab.m.twice,
            "index": i,
        })
    return rows
