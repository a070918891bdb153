"""Sequential spin-coupling basis for n qubits.

A basis label stores the running totals of coupling one qubit at a time and
the z-projection m. `enumerate_labels(n)` holds all 2^n labels as one
read-only (2^n, n + 1) int8 table, a row per label: column t < n is the
total spin of the first t + 1 qubits, so column 0 is 1/2 and column n - 1
the overall spin s, and column n is m. Like every spin in portsim, each is
an int holding twice its value, so column 0 is 1 and adjacent spins differ
by exactly 1, never going negative. For N + 1 qubits, column N - 1 is the
protocols' j and column N - 2 their pre-pair spin k.

Qubit convention: |0> carries z-spin +1/2, |1> carries -1/2; qubit 1 is the
most significant bit of a basis index.

The dense transform `coupling_unitary` is built qubit by qubit from the one
below it, one Clebsch-Gordan level (`coupling_level`) at a time, and shared
read-only up to 12 qubits; basis vectors are its columns, and the dense
oracle's spin-sector operators sum_s w_s P_s are read off them by
`sector_operator`. `coupling_entries` reads single entries of the transform
one level up without building it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spinalg import valid_total_spin

MAX_ENUMERATE_QUBITS = 20
MAX_DENSE_QUBITS = 12


@lru_cache(maxsize=None)
def enumerate_labels(n: int) -> np.ndarray:
    """All 2^n labels in canonical order, one row each: total spin
    descending, then the intermediate chain ascending lexicographically, then
    m descending. Columns 0..n-1 hold the running spins and column n holds m.
    Cached per n and read-only."""
    if not 1 <= n <= MAX_ENUMERATE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_ENUMERATE_QUBITS}, got {n}")
    # every parent emits its down child before its up child, so the chains
    # stay in lexicographic order; the spins one below and one above each
    # spin 0..n are read off by index, which maps no int8 arithmetic kernel
    # into the process
    below, above = np.arange(-1, n, dtype=np.int8), np.arange(1, n + 2, dtype=np.int8)
    chains = np.ones((1, 1), dtype=np.int8)
    for t in range(1, n):
        kids = np.empty((len(chains), 2, t + 1), dtype=np.int8)
        kids[:, :, :t] = chains[:, None]
        kids[:, 0, t] = below[chains[:, -1]]
        kids[:, 1, t] = above[chains[:, -1]]
        # a down step from spin 0 is no chain
        chains = kids[kids[:, :, t] >= 0]
    spins = chains[:, -1]
    chains = chains[np.concatenate([np.flatnonzero(spins == s) for s in range(n, -1, -2)])]
    size = chains[:, -1].astype(np.intp) + 1
    out = np.empty((2 ** n, n + 1), dtype=np.int8)
    out[:, :n] = np.repeat(chains, size, axis=0)
    # m runs s, s - 2, ..., -s along each chain's rows
    step = np.arange(2 ** n) - np.repeat(np.cumsum(size) - size, size)
    out[:, n] = out[:, n - 1] - 2 * step
    out.flags.writeable = False
    return out


def _chain_key(chains: np.ndarray) -> np.ndarray:
    """Per row of k running spins: (k - s) above the up-step bits, first step
    most significant, so keys increase in canonical chain order."""
    k = chains.shape[1]
    code = (chains[:, 1:] > chains[:, :-1]) @ (1 << np.arange(k - 2, -1, -1))
    return (k - chains[:, -1].astype(np.int64)) << (k - 1) | code


@lru_cache(maxsize=None)
def coupling_level(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Clebsch-Gordan level coupling qubit n to the first n - 1 (Bacon,
    Chuang and Harrow, PRL 97, 170502, 2006) as (prev, coeff), each (2, 2^n):
    where the last qubit is `bit`, with z-spin x = +-1, column L of
    `coupling_unitary(n)` is column prev[bit, L] (the parent chain at m - x;
    -1 off it, coeff 1) of `coupling_unitary(n - 1)` times coeff[bit, L],
    sqrt((j + 1 + x m) / (2 (j + 1))) for s = j + 1 and -x sqrt((j + 1 - x m)
    / (2 (j + 1))) for s = j - 1, twice-value spins. A ratio of two exact
    integer floats rounds as the exact fraction does. Cached, read-only."""
    # a chain's labels are consecutive in its level, m descending from its
    # first row, where m = s
    below = enumerate_labels(n - 1)
    first = np.flatnonzero(below[:, -1] == below[:, -2])
    labels = enumerate_labels(n)
    start = first[np.searchsorted(_chain_key(below[first, :-1]), _chain_key(labels[:, :-2]))]
    j, s, m = labels[:, -3:].astype(np.int64).T
    up = s > j
    # the last qubit is 0 (z-spin +1/2) or 1 (-1/2)
    x = np.array([[1], [-1]])
    inside = np.abs(m - x) <= j
    ratio = (j + 1 + np.where(up, x, -x) * m) / (2 * (j + 1))
    coeff = np.where(inside, np.where(up, 1, -x) * np.sqrt(ratio), 1.0)
    prev = np.where(inside, start + (j - m + x) // 2, -1)
    for part in (prev, coeff):
        part.flags.writeable = False
    return prev, coeff


@lru_cache(maxsize=None)
def coupling_unitary(n: int) -> np.ndarray:
    """Dense 2^n x 2^n change of basis; column i holds the amplitudes of
    the label in row i of enumerate_labels(n), built from
    `coupling_unitary(n - 1)` one `coupling_level(n)` gather per bit. Cached
    with every level below, read-only and capped at n = 12 (2^24 floats)."""
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_DENSE_QUBITS} for the dense unitary, got {n}")
    if n == 1:
        out = np.eye(2)
    else:
        parent = coupling_unitary(n - 1)
        # a piece whose m - x leaves the parent chain reads this zero column
        # at factor +1, so it stays +0.0
        padded = np.concatenate([parent, np.zeros((len(parent), 1))], axis=1)
        out = np.empty((2 ** n, 2 ** n))
        # axes: the first n - 1 qubits, the last one, the label
        rows = out.reshape(len(parent), 2, 2 ** n)
        for bit, (prev, coeff) in enumerate(zip(*coupling_level(n))):
            np.multiply(padded[:, prev], coeff, out=rows[:, bit])
    out.flags.writeable = False
    return out


def coupling_entries(n: int, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The entries coupling_unitary(n)[rows, labels], broadcast, read off
    `coupling_unitary(n - 1)` and `coupling_level(n)` the way that transform
    is built, bit for bit, without building it: for n = 12 a gather from
    the 2^22 floats below it instead of 2^24."""
    if n == 1:
        return np.eye(2)[rows, labels]
    prev, coeff = coupling_level(n)
    bit = rows & 1
    parent = prev[bit, labels]
    return np.where(parent >= 0, coupling_unitary(n - 1)[rows >> 1, parent] * coeff[bit, labels],
                    0.0)


def sector_operator(n: int, weights: Mapping) -> np.ndarray:
    """sum_s weights[s] * P_s, where P_s projects n qubits onto total spin s
    and is the Gram of the spin-s columns of `coupling_unitary(n)`. No qubits
    (n = 0) means the one state of spin 0."""
    if n == 0:
        basis, spins = np.ones((1, 1)), np.zeros(1, dtype=int)
    else:
        basis = coupling_unitary(n)
        spins = enumerate_labels(n)[:, n - 1]
    out = np.zeros((2 ** n, 2 ** n))
    for s, weight in weights.items():
        if not valid_total_spin(n, s):
            raise ValueError(f"s = {Fraction(s, 2)} is not an admissible {n}-qubit spin")
        cols = basis[:, spins == s]
        out += float(weight) * (cols @ cols.T)
    return out
