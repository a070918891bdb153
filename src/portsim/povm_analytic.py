"""Closed-form eigensystems of the port measurement elements.

The port-N element acts inside two-dimensional families of coupling labels
that agree everywhere except the penultimate spin j = s -+ 1/2, provided the
pre-pair spin equals the total spin s. Each family carries exactly one
nonzero eigenvalue, a pure function of s; every label outside such a family
is in the kernel, except that the pretty good measurement spreads 1/N over
the otherwise-unreached maximal-spin sector. The failure element of the
probabilistic regimes is diagonal on single labels.

These tables have two readers: `analytic_povm` assembles dense elements
from them, one U D U^T per table with U the coupling unitary, which the
brute-force oracle is tested against, and
`protocols` compiles its family rotations and attach amplitudes from their
nonzero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .povm_oracle import MAX_STATE_PORTS, PovmSet, qubit_swap_permutation
from .schur import SchurLabel, coupling_unitary, enumerate_labels, label_index
from .spinalg import Regime, failure_eigenvalue, pair_weights


@dataclass(frozen=True)
class EigenEntry:
    """One eigenvector: exact value, the labels it combines (one or two, the
    j = s - 1/2 label first) and matching coefficients."""

    value_exact: Fraction
    labels: tuple[SchurLabel, ...]
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class EigenSystem:
    """Complete eigenbasis of one measurement element, symbolic over labels."""

    regime: Regime
    n_ports: int
    entries: tuple[EigenEntry, ...]

    def __post_init__(self) -> None:
        expected = 2 ** (self.n_ports + 1)
        if len(self.entries) != expected:
            raise ValueError(f"expected {expected} entries, got {len(self.entries)}")


def port_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the port-N element. Each family (the labels with
    s <= (N-1)/2 and pre-pair spin s, keyed on chain, s and m) contributes
    its engineered eigenvector plus its in-family orthogonal complement at 0;
    a single-label family (s = 0) keeps the pair's j = s + 1/2 coefficient.
    Unpaired labels sit in the kernel, or at 1/N on the maximal-spin sector
    under the pretty good measurement. The sector scalars are computed once
    per sector.
    """
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    groups: dict[tuple, list[SchurLabel]] = {}
    for lab in enumerate_labels(n_ports + 1):
        paired = lab.s < n_ports and lab.k_pair == lab.s
        groups.setdefault((lab.spins[:-2], lab.s, lab.m) if paired else (lab,), []).append(lab)
    sectors: dict[int, tuple[Fraction, tuple[float, float]]] = {}
    entries = []
    for key, group in groups.items():
        labs, s = tuple(group), group[0].s
        if len(key) == 1:
            maximal = regime is Regime.DPBT and s == n_ports + 1
            value = Fraction(1, n_ports) if maximal else Fraction(0)
            entries.append(EigenEntry(value_exact=value, labels=labs, coeffs=(1.0,)))
            continue
        if s not in sectors:
            lo, hi = pair_weights(regime, n_ports, s)
            sectors[s] = lo + hi, (math.sqrt(lo / (lo + hi)), -math.sqrt(hi / (lo + hi)))
        value, pair = sectors[s]
        entries.append(EigenEntry(value_exact=value, labels=labs, coeffs=pair[-len(labs):]))
        if len(labs) == 2:
            entries.append(EigenEntry(value_exact=Fraction(0), labels=labs,
                                      coeffs=(pair[1], -pair[0])))
    return EigenSystem(regime=regime, n_ports=n_ports, entries=tuple(entries))


def failure_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the failure element (outcome N+1), diagonal on labels.
    Each eigenvalue is computed once per (j, s) sector."""
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    values: dict[tuple[int, int], Fraction] = {}
    entries = []
    for lab in enumerate_labels(n_ports + 1):
        key = (lab.j, lab.s)
        if key not in values:
            values[key] = failure_eigenvalue(regime, n_ports, *key)
        entries.append(EigenEntry(value_exact=values[key], labels=(lab,), coeffs=(1.0,)))
    return EigenSystem(regime=regime, n_ports=n_ports, entries=tuple(entries))


def _assemble(es: EigenSystem, basis: np.ndarray) -> np.ndarray:
    """Dense element U D U^T: D holds the sum of value * c c^T over the
    entries on their label indices (2x2 family blocks plus a diagonal), and
    U is the coupling unitary `basis`."""
    coupled = np.zeros_like(basis)
    for entry in es.entries:
        value = float(entry.value_exact)
        for a, ca in zip(entry.labels, entry.coeffs):
            for b, cb in zip(entry.labels, entry.coeffs):
                coupled[label_index(a), label_index(b)] += value * ca * cb
    return basis @ coupled @ basis.T


def analytic_povm(regime: Regime, n_ports: int) -> PovmSet:
    """Full measurement set rebuilt from the closed-form tables alone: the
    port-N element is assembled once and ports 1..N-1 are its qubit-swap
    conjugates; every assembly reads one coupling unitary. Capped at
    `MAX_STATE_PORTS`, since every element is dense."""
    if not 1 <= n_ports <= MAX_STATE_PORTS:
        raise ValueError(f"n_ports must be in 1..{MAX_STATE_PORTS}, got {n_ports}")
    basis = coupling_unitary(n_ports + 1)
    last = _assemble(port_eigensystem(regime, n_ports), basis)
    elements = []
    for i in range(1, n_ports):
        perm = qubit_swap_permutation(n_ports + 1, i, n_ports)
        elements.append(last[np.ix_(perm, perm)])
    elements.append(last)
    if regime is not Regime.DPBT:
        elements.append(_assemble(failure_eigensystem(regime, n_ports), basis))
    return PovmSet(regime=regime, n_ports=n_ports, elements=elements)
