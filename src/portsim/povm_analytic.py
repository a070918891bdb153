"""Closed-form eigensystems of the port measurement elements.

The port-N element acts inside two-dimensional families of coupling labels
that agree everywhere except the penultimate spin j = s -+ 1/2, provided the
pre-pair spin equals the total spin s. Each family carries exactly one
nonzero eigenvalue, a pure function of s; every label outside such a family
is in the kernel, except that the pretty good measurement spreads 1/N over
the otherwise-unreached maximal-spin sector. The failure element of the
probabilistic regimes is diagonal on single labels.

These tables have two readers: `analytic_povm` assembles dense elements
from them, which the brute-force oracle is tested against, and
`protocols` compiles its rotation and attach amplitudes from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .halfint import HalfInt
from .povm_oracle import MAX_STATE_PORTS, PovmSet, qubit_swap_permutation
from .schur import SchurLabel, coupling_unitary, enumerate_labels, label_index
from .spinalg import Regime, failure_eigenvalue, rotation_pair, sector_eigenvalue


def label_pattern(regime: Regime, n_ports: int, label: SchurLabel) -> str:
    """Two-character branch tag for a label of the N+1 qubit system.

    First character: sign of j - s. Second: "+" when the pre-pair spin equals
    s (the label belongs to a paired family), "-" otherwise. The maximal-spin
    sector mechanically tags as "--"; the pretty good measurement treats it as
    "++" so that one attachment rule covers every eigenvalue it produces. That
    tag choice is free: the sector is 1-dimensional either way.
    """
    if regime is Regime.DPBT and label.s.twice == n_ports + 1:
        return "++"
    a = "+" if label.j.twice > label.s.twice else "-"
    b = "+" if label.k_pair == label.s else "-"
    return a + b


@dataclass(frozen=True)
class PairFamily:
    """One invariant family of the port element: both labels share everything
    but j. At s = 0 the j = s - 1/2 label does not exist and the family is a
    single label; the pair coefficients then live entirely on the second slot.
    """

    labels: tuple[SchurLabel, ...]
    s: HalfInt
    m: HalfInt
    pair: tuple[float, float]
    eigenvalue: Fraction


def pair_families(regime: Regime, n_ports: int) -> tuple[PairFamily, ...]:
    """All paired families, in canonical label order of their first member.
    The sector scalars are computed once per sector."""
    groups: dict[tuple, list[SchurLabel]] = {}
    for lab in enumerate_labels(n_ports + 1):
        if lab.s.twice <= n_ports - 1 and lab.k_pair == lab.s:
            groups.setdefault((lab.spins[:-2], lab.s, lab.m), []).append(lab)
    sectors = {s for _, s, _ in groups}
    pairs = {s: rotation_pair(regime, n_ports, s) for s in sectors}
    values = {s: sector_eigenvalue(regime, n_ports, s) for s in sectors}
    out = []
    for (_, s, m), labs in groups.items():
        labs.sort(key=lambda lab: lab.j.twice)
        out.append(PairFamily(labels=tuple(labs), s=s, m=m, pair=pairs[s],
                              eigenvalue=values[s]))
    out.sort(key=lambda fam: fam.labels[0].sort_key())
    return tuple(out)


@dataclass(frozen=True)
class EigenEntry:
    """One eigenvector: exact value, the labels it combines (one or two, the
    j = s - 1/2 label first), matching coefficients, and the branch tag of the
    slot it occupies."""

    value_exact: Fraction
    labels: tuple[SchurLabel, ...]
    coeffs: tuple[float, ...]
    tag: str


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
    """Eigensystem of the port-N element. Paired families contribute their
    engineered eigenvector plus its in-family orthogonal complement at 0;
    unpaired labels sit in the kernel, or at 1/N on the maximal-spin sector
    under the pretty good measurement."""
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")
    in_family: dict[SchurLabel, PairFamily] = {}
    for fam in pair_families(regime, n_ports):
        for lab in fam.labels:
            in_family[lab] = fam
    entries = []
    emitted: set[SchurLabel] = set()
    for lab in enumerate_labels(n_ports + 1):
        if lab in emitted:
            continue
        fam = in_family.get(lab)
        if fam is None:
            if regime is Regime.DPBT and lab.s.twice == n_ports + 1:
                value = Fraction(1, n_ports)
            else:
                value = Fraction(0)
            entries.append(EigenEntry(value_exact=value, labels=(lab,), coeffs=(1.0,),
                                      tag=label_pattern(regime, n_ports, lab)))
            continue
        emitted.update(fam.labels)
        w_minus, w_plus = fam.pair
        if len(fam.labels) == 1:
            entries.append(EigenEntry(value_exact=fam.eigenvalue, labels=fam.labels,
                                      coeffs=(1.0,), tag="++"))
            continue
        entries.append(EigenEntry(value_exact=fam.eigenvalue, labels=fam.labels,
                                  coeffs=(w_minus, w_plus), tag="++"))
        entries.append(EigenEntry(value_exact=Fraction(0), labels=fam.labels,
                                  coeffs=(w_plus, -w_minus), tag="-+"))
    return EigenSystem(regime=regime, n_ports=n_ports, entries=tuple(entries))


def failure_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the failure element (outcome N+1), diagonal on labels.
    Each eigenvalue is computed once per (j, s) sector."""
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    values: dict[tuple[HalfInt, HalfInt], Fraction] = {}
    entries = []
    for lab in enumerate_labels(n_ports + 1):
        key = (lab.j, lab.s)
        if key not in values:
            values[key] = failure_eigenvalue(regime, n_ports, *key)
        entries.append(EigenEntry(value_exact=values[key], labels=(lab,), coeffs=(1.0,),
                                  tag=label_pattern(regime, n_ports, lab)))
    return EigenSystem(regime=regime, n_ports=n_ports, entries=tuple(entries))


def _assemble(es: EigenSystem) -> np.ndarray:
    """Dense element: the sum of value * |v><v| over the nonzero entries, each
    eigenvector combined from columns of the coupling unitary."""
    basis = coupling_unitary(es.n_ports + 1)
    out = np.zeros_like(basis)
    for entry in es.entries:
        if entry.value_exact == 0:
            continue
        vec = sum(c * basis[:, label_index(lab)] for c, lab in zip(entry.coeffs, entry.labels))
        out += float(entry.value_exact) * np.outer(vec, vec)
    return out


def analytic_povm(regime: Regime, n_ports: int) -> PovmSet:
    """Full measurement set rebuilt from the closed-form tables alone: the
    port-N element is assembled once and ports 1..N-1 are its qubit-swap
    conjugates. Capped at `MAX_STATE_PORTS`, since every element is dense."""
    if not 1 <= n_ports <= MAX_STATE_PORTS:
        raise ValueError(f"n_ports must be in 1..{MAX_STATE_PORTS}, got {n_ports}")
    last = _assemble(port_eigensystem(regime, n_ports))
    elements = []
    for i in range(1, n_ports):
        perm = qubit_swap_permutation(n_ports + 1, i, n_ports)
        elements.append(last[np.ix_(perm, perm)])
    elements.append(last)
    if regime is not Regime.DPBT:
        elements.append(_assemble(failure_eigensystem(regime, n_ports)))
    return PovmSet(regime=regime, n_ports=n_ports, elements=elements)
