"""Spin-coupling scalars for the port teleportation measurements.

Every spin and z-component, here and in the modules above, is a plain int
holding twice its value: 1 is spin 1/2, 4 is spin 2, -3 is m = -3/2. That
keeps every admissibility check exact. Everything rational is computed with
Fraction and big-int factorials so the verification suite can pin values
exactly; square roots are deferred to the last moment and returned as floats.

Conventions. N ports means N+1 qubits on the sender side. For a basis label
the letter j is the total spin of the first N qubits, s the total spin of all
N+1, and k the spin of the first N-1. The port-average state is diagonal in
that basis with eigenvalue depending on (j, s) only. On each pair family the
port measurement element is rank one, |v><v|; `pair_weights` gives the
squared entries of v, from which its eigenvalue and normalized coefficients
follow.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple


class Regime(Enum):
    """Measurement family: pretty good measurement, or one of the two
    probabilistic (conclusive) families."""

    DPBT = "dpbt"
    PPBT_MES = "ppbt-mes"
    PPBT_OPT = "ppbt-opt"


def valid_total_spin(n_qubits: int, s: int) -> bool:
    """Whether s can be the total spin of n_qubits spin-1/2 systems."""
    return 0 <= s <= n_qubits and (s - n_qubits) % 2 == 0


def spin_values(n_qubits: int) -> tuple[int, ...]:
    """Admissible total spins of n_qubits qubits, descending."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be nonnegative")
    return tuple(range(n_qubits, -1, -2))


def _check_adjacent(n_ports: int, j: int, s: int) -> None:
    """Raise unless (j, s) is a label pair of the N+1 qubit system."""
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    if not valid_total_spin(n_ports, j):
        raise ValueError(f"j = {Fraction(j, 2)} is not an admissible {n_ports}-qubit spin")
    if not valid_total_spin(n_ports + 1, s) or abs(s - j) != 1:
        raise ValueError(f"(j, s) = ({Fraction(j, 2)}, {Fraction(s, 2)}) is not an adjacent pair")


def rho_eigenvalue(n_ports: int, j: int, s: int) -> Fraction:
    """Eigenvalue of the port-average state on the (j, s) sector.

    (N/2 - j)/2^N when s = j + 1/2, (N/2 + j + 1)/2^N when s = j - 1/2.
    """
    _check_adjacent(n_ports, j, s)
    if s == j + 1:
        return Fraction(n_ports - j, 2 ** (n_ports + 1))
    return Fraction(n_ports + j + 2, 2 ** (n_ports + 1))


def chain_multiplicity(n_qubits: int, j: int) -> int:
    """Number of sequential-coupling chains on n_qubits qubits ending at total
    spin j; equals the multiplicity of that spin sector."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be nonnegative")
    if not valid_total_spin(n_qubits, j):
        raise ValueError(f"j = {Fraction(j, 2)} is not an admissible {n_qubits}-qubit spin")
    # the ballot count (j+1) N! / (((N-j)/2)! ((N+j)/2 + 1)!), as a difference
    # of two binomials
    down = (n_qubits - j) // 2
    return math.comb(n_qubits, down) - (math.comb(n_qubits, down - 1) if down else 0)


def weight_norm(n_ports: int) -> Fraction:
    """Normalization 6/((N+1)(N+2)(N+3)); the inverse of the sum of squared
    sector dimensions of N qubits."""
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    return Fraction(6, (n_ports + 1) * (n_ports + 2) * (n_ports + 3))


class OptScalars(NamedTuple):
    """Exact tables for the optimised probabilistic measurement on N ports.

    nu: deformation weight per N-qubit spin j (the port-side operator is
        sum_j sqrt(nu(j)) times the spin-j projector).
    u: spectator weight per (N-1)-qubit spin s.

    The tables are read-only views, since one instance is shared per N.
    """

    n_ports: int
    nu: Mapping[int, Fraction]
    u: Mapping[int, Fraction]


@lru_cache(maxsize=32)
def optimal_scalars(n_ports: int) -> OptScalars:
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    h = weight_norm(n_ports)
    nu = {j: 2 ** n_ports * h * Fraction(j + 1, chain_multiplicity(n_ports, j))
          for j in spin_values(n_ports)}
    u = {s: 2 ** (n_ports + 1) * h * Fraction(s + 1, n_ports * chain_multiplicity(n_ports - 1, s))
         for s in spin_values(n_ports - 1)}
    return OptScalars(n_ports=n_ports, nu=MappingProxyType(nu), u=MappingProxyType(u))


def pair_weights(regime: Regime, n_ports: int, s: int) -> tuple[Fraction, Fraction]:
    """Exact squared entries (lo, hi) of the unnormalized eigenvector
    v = (sqrt(lo), -sqrt(hi)) of the port measurement element on the spin-s
    pair family, on its j = s-1/2 and j = s+1/2 labels; the element's
    nonzero eigenvalue there is lo + hi.

    The pair sectors are the total spins s <= (N-1)/2 of the N+1 qubit
    system, where the port measurement element has its rank-one piece. With
    t = 2s the pretty good measurement has lo = 2t/((t+1)(N+1-t)) and
    hi = (2t+4)/((t+1)(N+3+t)); the singlet-resource measurement the same
    with N+3+t in both denominators; the optimised one lo = u_s gamma^2 and
    hi = u_s delta^2. At s = 0 the j = s-1/2 label does not exist and lo is 0.
    """
    N, t = n_ports, s
    if not (0 <= t < N and (t - N - 1) % 2 == 0):
        raise ValueError(f"s = {Fraction(t, 2)} is not a pair sector for N = {N}")
    if regime is Regime.PPBT_OPT:
        opt = optimal_scalars(N)
        gamma2 = Fraction(t, t + 1) / (2 * opt.nu[t - 1]) if t > 0 else Fraction(0)
        delta2 = Fraction(t + 2, t + 1) / (2 * opt.nu[t + 1])
        return opt.u[t] * gamma2, opt.u[t] * delta2
    lo_den = N + 1 - t if regime is Regime.DPBT else N + 3 + t
    return Fraction(2 * t, (t + 1) * lo_den), Fraction(2 * t + 4, (t + 1) * (N + 3 + t))


def failure_eigenvalue(regime: Regime, n_ports: int, j: int, s: int) -> Fraction:
    """Eigenvalue of the failure element (outcome N+1) on the label (j, s).

    Only the probabilistic regimes have a failure outcome. The result is
    diagonal in the coupling basis: in the maximally entangled regime it is
    2(2s+1)/(N+3+2s) on j = s-1/2 branches and 0 on j = s+1/2; in the
    optimised regime it is 1 minus the (rescaled) acceptance weight.
    """
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    N = n_ports
    _check_adjacent(N, j, s)
    if regime is Regime.PPBT_MES:
        return Fraction(2 * (s + 1), N + 3 + s) if j == s - 1 else Fraction(0)
    lam = rho_eigenvalue(N, j, s)
    if lam == 0:
        return Fraction(1)
    opt = optimal_scalars(N)
    return 1 - 2 ** (N - 1) * lam * opt.u[s] / opt.nu[j]


def adjacent_pairs(n_ports: int):
    """All admissible (j, s) label pairs of the N+1 qubit system."""
    for s in spin_values(n_ports + 1):
        for j in (s - 1, s + 1):
            if valid_total_spin(n_ports, j):
                yield j, s
