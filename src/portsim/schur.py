"""Sequential spin-coupling basis for n qubits.

A basis label stores the running totals of coupling one qubit at a time:
spins[t] is the total spin of the first t+1 qubits, so spins[0] = 1/2 and
spins[-1] is the overall spin; m is the z-projection. Like every spin in
portsim, each is an int holding twice its value, so spins[0] == 1 and
adjacent entries differ by exactly 1, never going negative. There are
exactly 2^n labels.

Qubit convention: |0> carries z-spin +1/2, |1> carries -1/2; qubit 1 is the
most significant bit of a basis index.

The dense transform `coupling_unitary` is built qubit by qubit from the one
below it and shared read-only up to 12 qubits; basis vectors are its columns,
and every spin-sector operator sum_s w_s P_s (the oracle's weights, the
optimised resources) is read off them by `sector_operator`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spinalg import valid_total_spin, valid_z_component

MAX_ENUMERATE_QUBITS = 20
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class SchurLabel:
    spins: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if not self.spins:
            raise ValueError("label needs at least one qubit")
        if self.spins[0] != 1:
            raise ValueError("chain must start at spin 1/2")
        for a, b in zip(self.spins, self.spins[1:]):
            if abs(a - b) != 1 or b < 0:
                raise ValueError(f"invalid chain step {Fraction(a, 2)} -> {Fraction(b, 2)}")
        if not valid_z_component(self.spins[-1], self.m):
            raise ValueError(f"m = {Fraction(self.m, 2)} invalid for total spin "
                             f"{Fraction(self.spins[-1], 2)}")

    @property
    def n_qubits(self) -> int:
        return len(self.spins)

    @property
    def s(self) -> int:
        """Total spin of all qubits."""
        return self.spins[-1]

    @property
    def j(self) -> int:
        """Total spin of all but the last qubit (n >= 2)."""
        if len(self.spins) < 2:
            raise ValueError("single-qubit label has no penultimate spin")
        return self.spins[-2]

    @property
    def k_pair(self) -> int:
        """Total spin of all but the last two qubits; 0 when n <= 2."""
        return self.spins[-3] if len(self.spins) >= 3 else 0

    @property
    def ks(self) -> tuple[int, ...]:
        """Intermediate chain between the leading 1/2 and the final two spins."""
        return self.spins[1:-2] if len(self.spins) >= 3 else ()

    def sort_key(self) -> tuple:
        return (-self.s, self.spins[1:-1], -self.m)


def _chains(n: int) -> list[tuple[int, ...]]:
    chains = [(1,)]
    for _ in range(n - 1):
        nxt = []
        for c in chains:
            if c[-1] >= 1:
                nxt.append(c + (c[-1] - 1,))
            nxt.append(c + (c[-1] + 1,))
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
        for m in range(s, -s - 2, -2):
            labels.append(SchurLabel(chain, m))
    labels.sort(key=SchurLabel.sort_key)
    return tuple(labels)


@lru_cache(maxsize=None)
def coupling_unitary(n: int) -> np.ndarray:
    """Dense 2^n x 2^n change of basis; column i holds the amplitudes of
    label enumerate_labels(n)[i]. Built qubit by qubit from
    `coupling_unitary(n - 1)` (the sequential Clebsch-Gordan construction of
    Bacon, Chuang and Harrow, PRL 97, 170502, 2006). Spins are twice-value
    ints here too. On the rows where the last qubit carries z-spin x = +-1,
    column L is the parent chain's column at m - x times the factor of
    coupling that qubit to spin j: sqrt((j + 1 + x m) / (2 (j + 1))) for
    s = j + 1 and -x sqrt((j + 1 - x m) / (2 (j + 1))) for s = j - 1, as
    `clebsch_gordan` gives it. One level is a few array expressions over the labels'
    (s, j, m) and one gather per bit; a ratio of two exact integer floats
    rounds as the exact fraction does, so the bytes match `clebsch_gordan`'s.
    Cached with every level below, read-only and capped at n = 12 (the
    matrix alone is 2^24 floats)."""
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_DENSE_QUBITS} for the dense unitary, got {n}")
    if n == 1:
        out = np.eye(2)
    else:
        parent = coupling_unitary(n - 1)
        # a piece whose m - x leaves the parent chain reads this zero column
        # at factor +1, so it stays +0.0
        padded = np.concatenate([parent, np.zeros((len(parent), 1))], axis=1)
        # a chain's labels are consecutive in its level, m descending
        first = {}
        for i, lab in enumerate(enumerate_labels(n - 1)):
            first.setdefault(lab.spins, i)
        s, j, m, start = np.array([(lab.s, lab.j, lab.m, first[lab.spins[:-1]])
                                   for lab in enumerate_labels(n)]).T
        up = s > j
        out = np.empty((2 ** n, 2 ** n))
        # axes: the first n - 1 qubits, the last one, the label
        rows = out.reshape(len(parent), 2, 2 ** n)
        # the last qubit is 0 (z-spin +1/2) or 1 (-1/2)
        for bit, x in ((0, 1), (1, -1)):
            m_prev = m - x
            inside = np.abs(m_prev) <= j
            ratio = (j + 1 + np.where(up, x, -x) * m) / (2 * (j + 1))
            coeff = np.where(inside, np.where(up, 1, -x) * np.sqrt(ratio), 1.0)
            prev = np.where(inside, start + (j - m_prev) // 2, -1)
            np.multiply(padded[:, prev], coeff, out=rows[:, bit])
    out.flags.writeable = False
    return out


def sector_operator(n: int, weights: Mapping) -> np.ndarray:
    """sum_s weights[s] * P_s, where P_s projects n qubits onto total spin s
    and is the Gram of the spin-s columns of `coupling_unitary(n)`. No qubits
    (n = 0) means the one state of spin 0."""
    if n == 0:
        basis, spins = np.ones((1, 1)), np.zeros(1, dtype=int)
    else:
        basis = coupling_unitary(n)
        spins = np.array([lab.s for lab in enumerate_labels(n)])
    out = np.zeros((2 ** n, 2 ** n))
    for s, weight in weights.items():
        if not valid_total_spin(n, s):
            raise ValueError(f"s = {Fraction(s, 2)} is not an admissible {n}-qubit spin")
        cols = basis[:, spins == s]
        out += float(weight) * (cols @ cols.T)
    return out


def label_table(n: int) -> list[dict]:
    """Serialization-ready rows, spins as the twice-value ints they are.

    ks / j / s follow the N-port protocol reading of a chain: j is the
    penultimate running total, s the final one. A single-qubit label has no
    penultimate spin and emits j = None.
    """
    rows = []
    for i, lab in enumerate(enumerate_labels(n)):
        rows.append({
            "ks": list(lab.ks),
            "j": lab.j if lab.n_qubits >= 2 else None,
            "s": lab.s,
            "m": lab.m,
            "index": i,
        })
    return rows
