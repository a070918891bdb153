"""Closed-form eigensystems of the port measurement elements.

The port-N element acts inside two-dimensional families of coupling labels
that agree everywhere except the penultimate spin j = s -+ 1/2, provided the
pre-pair spin equals the total spin s. Each family carries exactly one
nonzero eigenvalue, a pure function of s; every label outside such a family
is in the kernel, except that the pretty good measurement spreads 1/N over
the otherwise-unreached maximal-spin sector. The failure element of the
probabilistic regimes is diagonal on single labels. Dense matrices
reconstructed from these tables are what the brute-force oracle is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .halfint import HalfInt
from .povm_oracle import MAX_STATE_PORTS, PovmSet, qubit_swap_permutation
from .schur import SchurLabel, enumerate_labels, schur_vector
from .spinalg import Regime, failure_eigenvalue, regime_scalars

PORT_ELEMENT = "port"
FAILURE_ELEMENT = "failure"


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
    """All paired families, in canonical label order of their first member."""
    scal = regime_scalars(regime, n_ports)
    groups: dict[tuple, list[SchurLabel]] = {}
    for lab in enumerate_labels(n_ports + 1):
        if lab.s.twice <= n_ports - 1 and lab.k_pair == lab.s:
            groups.setdefault((lab.spins[:-2], lab.s, lab.m), []).append(lab)
    out = []
    for (_, s, m), labs in groups.items():
        labs.sort(key=lambda lab: lab.j.twice)
        out.append(PairFamily(labels=tuple(labs), s=s, m=m,
                              pair=scal.rotation_pair(s),
                              eigenvalue=scal.sector_eigenvalue(s)))
    out.sort(key=lambda fam: fam.labels[0].sort_key())
    return tuple(out)


@dataclass(frozen=True)
class EigenEntry:
    """One eigenvector: value, the labels it combines (one or two, the
    j = s - 1/2 label first), matching coefficients, and the branch tag of the
    slot it occupies."""

    value: float
    value_exact: Fraction
    labels: tuple[SchurLabel, ...]
    coeffs: tuple[float, ...]
    tag: str


@dataclass(frozen=True)
class EigenSystem:
    """Complete eigenbasis of one measurement element, symbolic over labels."""

    regime: Regime
    n_ports: int
    element: str
    entries: tuple[EigenEntry, ...]

    def __post_init__(self) -> None:
        expected = 2 ** (self.n_ports + 1)
        if len(self.entries) != expected:
            raise ValueError(f"expected {expected} entries, got {len(self.entries)}")


def _check_analytic_ports(n_ports: int) -> None:
    if not 1 <= n_ports <= MAX_STATE_PORTS:
        raise ValueError(f"n_ports must be in 1..{MAX_STATE_PORTS}, got {n_ports}")


def port_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the port-N element. Paired families contribute their
    engineered eigenvector plus its in-family orthogonal complement at 0;
    unpaired labels sit in the kernel, or at 1/N on the maximal-spin sector
    under the pretty good measurement."""
    _check_analytic_ports(n_ports)
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
            entries.append(EigenEntry(value=float(value), value_exact=value,
                                      labels=(lab,), coeffs=(1.0,),
                                      tag=label_pattern(regime, n_ports, lab)))
            continue
        emitted.update(fam.labels)
        w_minus, w_plus = fam.pair
        if len(fam.labels) == 1:
            entries.append(EigenEntry(value=float(fam.eigenvalue),
                                      value_exact=fam.eigenvalue,
                                      labels=fam.labels, coeffs=(1.0,), tag="++"))
            continue
        entries.append(EigenEntry(value=float(fam.eigenvalue),
                                  value_exact=fam.eigenvalue,
                                  labels=fam.labels, coeffs=(w_minus, w_plus),
                                  tag="++"))
        entries.append(EigenEntry(value=0.0, value_exact=Fraction(0),
                                  labels=fam.labels, coeffs=(w_plus, -w_minus),
                                  tag="-+"))
    return EigenSystem(regime=regime, n_ports=n_ports,
                       element=PORT_ELEMENT, entries=tuple(entries))


def failure_eigensystem(regime: Regime, n_ports: int) -> EigenSystem:
    """Eigensystem of the failure element (outcome N+1), diagonal on labels."""
    _check_analytic_ports(n_ports)
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    entries = []
    for lab in enumerate_labels(n_ports + 1):
        value = failure_eigenvalue(regime, n_ports, lab.j, lab.s)
        entries.append(EigenEntry(value=float(value), value_exact=value,
                                  labels=(lab,), coeffs=(1.0,),
                                  tag=label_pattern(regime, n_ports, lab)))
    return EigenSystem(regime=regime, n_ports=n_ports,
                       element=FAILURE_ELEMENT, entries=tuple(entries))


def _entry_vector(entry: EigenEntry) -> np.ndarray:
    vec = entry.coeffs[0] * schur_vector(entry.labels[0])
    for coeff, lab in zip(entry.coeffs[1:], entry.labels[1:]):
        vec = vec + coeff * schur_vector(lab)
    return vec


def _assemble(es: EigenSystem) -> np.ndarray:
    dim = 2 ** (es.n_ports + 1)
    out = np.zeros((dim, dim))
    for entry in es.entries:
        if entry.value == 0.0:
            continue
        vec = _entry_vector(entry)
        out += float(entry.value_exact) * np.outer(vec, vec)
    return out


def reconstruct_povm(es: EigenSystem, which: int) -> np.ndarray:
    """Dense element for outcome `which` (1-based).

    A port eigensystem reconstructs outcome N directly and the other ports by
    swap conjugation; a failure eigensystem only reconstructs outcome N+1.
    """
    if es.element == FAILURE_ELEMENT:
        if which != es.n_ports + 1:
            raise ValueError("a failure eigensystem only describes outcome N+1")
        return _assemble(es)
    if not 1 <= which <= es.n_ports:
        raise ValueError(f"port outcome must be in 1..{es.n_ports}, got {which}")
    out = _assemble(es)
    if which < es.n_ports:
        perm = qubit_swap_permutation(es.n_ports + 1, which, es.n_ports)
        out = out[np.ix_(perm, perm)]
    return out


def analytic_povm(regime: Regime, n_ports: int) -> PovmSet:
    """Full measurement set rebuilt from the closed-form tables alone."""
    es = port_eigensystem(regime, n_ports)
    elements = [reconstruct_povm(es, i) for i in range(1, n_ports + 1)]
    if regime is not Regime.DPBT:
        elements.append(reconstruct_povm(failure_eigensystem(regime, n_ports), n_ports + 1))
    return PovmSet(regime=regime, n_ports=n_ports, elements=elements)

