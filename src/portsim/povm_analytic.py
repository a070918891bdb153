"""Closed-form eigensystems of the port measurement elements, one table of
spin sectors per element.

The port-N element acts inside two-dimensional families of coupling labels
that agree everywhere except the penultimate spin j = s -+ 1/2, provided the
pre-pair spin equals the total spin s. Each family carries exactly one
nonzero eigenvalue, a pure function of s, so the element is one rank-one
piece per pair sector s; the pretty good measurement adds 1/N on the
otherwise-unreached maximal-spin sector. The failure element of the
probabilistic regimes is one scalar per (j, s) sector, diagonal on labels.
Every label no sector lists is in the element's kernel.

These tables have two readers: `analytic_povm` assembles dense elements from
them, one U D U^T per table with U the coupling unitary, which the
brute-force oracle is tested against, and `protocols` builds from them both
the whole-register circuit, one family rotation and attach reflection per
sector, and the amplification check's element-root run, one rank-one piece
a c c^T per sector and weight class, shared by the sector's families there
(`protocols._element_roots`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .povm_oracle import MAX_STATE_PORTS, PovmSet, qubit_swap_permutation
from .schur import coupling_unitary, enumerate_labels
from .spinalg import Regime, adjacent_pairs, failure_eigenvalue, pair_weights


class Sector:
    """One nonzero (s, j) sector of an element: the exact eigenvalue `value`,
    shared by one eigenvector per family. `families` holds the label indices
    of each family, one row per family with the kept label (of spins s, j)
    last; `coeffs` are the eigenvector's coefficients on a row's labels."""

    __slots__ = ("s", "j", "value", "coeffs", "families")

    def __init__(self, s: int, j: int, value: Fraction, coeffs: tuple[float, ...],
                 families: np.ndarray):
        self.s = s
        self.j = j
        self.value = value
        self.coeffs = coeffs
        self.families = families


class EigenSystem(NamedTuple):
    """The nonzero spectrum of one measurement element, sector by sector in
    ascending (s, j)."""

    regime: Regime
    n_ports: int
    sectors: tuple[Sector, ...]


def port_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the port-N element. Each pair sector s <= (N-1)/2 lists
    its families (the labels of pre-pair spin s, keyed on chain and m, in
    first-label order), each keeping its j = s + 1/2 label; a single-label
    family (s = 0) keeps the pair's j = s + 1/2 coefficient alone. Under the
    pretty good measurement the maximal-spin labels form one more sector at
    1/N. The sector scalars are computed once per sector.
    """
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    labels = enumerate_labels(n_ports + 1)
    spin = labels[:, n_ports]
    k_pair = labels[:, n_ports - 2] if n_ports >= 2 else 0
    sectors = []
    for s in range((n_ports + 1) % 2, n_ports, 2):
        # each prefix's rows are its j = s - 1/2 chain, then its j = s + 1/2
        # chain, m descending in both; a family pairs the two at one m
        idx = np.flatnonzero((spin == s) & (k_pair == s))
        rows = (idx.reshape(-1, 2, s + 1).transpose(0, 2, 1).reshape(-1, 2) if s
                else idx[:, None])
        lo, hi = pair_weights(regime, n_ports, s)
        pair = (math.sqrt(lo / (lo + hi)), -math.sqrt(hi / (lo + hi)))
        sectors.append(Sector(s=s, j=s + 1, value=lo + hi, coeffs=pair[-rows.shape[1]:],
                              families=rows))
    if regime is Regime.DPBT:
        sectors.append(Sector(s=n_ports + 1, j=n_ports, value=Fraction(1, n_ports),
                              coeffs=(1.0,),
                              families=np.flatnonzero(spin == n_ports + 1)[:, None]))
    return EigenSystem(regime=regime, n_ports=n_ports, sectors=tuple(sectors))


def failure_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the failure element (outcome N+1): one single-label
    family per label of each (j, s) sector with a nonzero eigenvalue, computed
    once per sector."""
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    labels = enumerate_labels(n_ports + 1)
    sectors = []
    for s, j in sorted((s, j) for j, s in adjacent_pairs(n_ports)):
        value = failure_eigenvalue(regime, n_ports, j, s)
        if value:
            rows = np.flatnonzero((labels[:, n_ports] == s) & (labels[:, n_ports - 1] == j))
            sectors.append(Sector(s=s, j=j, value=value, coeffs=(1.0,), families=rows[:, None]))
    return EigenSystem(regime=regime, n_ports=n_ports, sectors=tuple(sectors))


def _dense_element(es: EigenSystem, basis: np.ndarray) -> np.ndarray:
    """Dense element U D U^T: D adds value * c c^T on every family's label
    indices of each sector, and U is the coupling unitary `basis`."""
    coupled = np.zeros_like(basis)
    for sector in es.sectors:
        coeffs = np.array(sector.coeffs)
        rows = sector.families
        coupled[rows[:, :, None], rows[:, None, :]] += np.multiply.outer(
            float(sector.value) * coeffs, coeffs)
    return basis @ coupled @ basis.T


def analytic_povm(regime: Regime, n_ports: int) -> PovmSet:
    """Full measurement set rebuilt from the closed-form tables alone: the
    port-N element is assembled once and ports 1..N-1 are its qubit-swap
    conjugates; every assembly reads one coupling unitary. Capped at
    `MAX_STATE_PORTS`, since every element is dense."""
    if not 1 <= n_ports <= MAX_STATE_PORTS:
        raise ValueError(f"n_ports must be in 1..{MAX_STATE_PORTS}, got {n_ports}")
    basis = coupling_unitary(n_ports + 1)
    last = _dense_element(port_eigensystem(regime, n_ports), basis)
    elements = []
    for i in range(1, n_ports):
        perm = qubit_swap_permutation(n_ports + 1, i, n_ports)
        elements.append(last[perm[:, None], perm])
    elements.append(last)
    if regime is not Regime.DPBT:
        elements.append(_dense_element(failure_eigensystem(regime, n_ports), basis))
    return PovmSet(regime=regime, n_ports=n_ports, elements=elements)
