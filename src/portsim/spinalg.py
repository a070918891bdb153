"""Spin-coupling scalars for the port teleportation measurements.

Everything rational is computed with Fraction and big-int factorials so the
verification suite can pin values exactly; square roots are deferred to the
last moment and returned as floats.

Conventions. N ports means N+1 qubits on the sender side. For a basis label
the letter j is the total spin of the first N qubits, s the total spin of all
N+1, and k the spin of the first N-1. The port-average state is diagonal in
that basis with eigenvalue depending on (j, s) only.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .halfint import HalfInt, valid_total_spin, valid_z_component


class Regime(Enum):
    """Measurement family: pretty good measurement, or one of the two
    probabilistic (conclusive) families."""

    DPBT = "dpbt"
    PPBT_MES = "ppbt-mes"
    PPBT_OPT = "ppbt-opt"


class UnsupportedCouplingError(ValueError):
    """Raised when a Clebsch-Gordan coupling outside j2 = 1/2 is requested."""


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> for j2 = 1/2.

    Returns 0.0 when a selection rule (m = m1 + m2, triangle bound, range or
    parity of any z-component) is violated; raises for j2 != 1/2 since the
    closed form implemented here only covers coupling a single qubit.
    """
    j1, m1, j2, m2, j, m = (HalfInt.of(x) for x in (j1, m1, j2, m2, j, m))
    if j2.twice != 1:
        raise UnsupportedCouplingError(f"only j2 = 1/2 couplings supported, got j2 = {j2}")
    if m.twice != m1.twice + m2.twice:
        return 0.0
    if not (valid_z_component(j1, m1) and valid_z_component(j2, m2) and valid_z_component(j, m)):
        return 0.0
    if not abs(j1.twice - j2.twice) <= j.twice <= j1.twice + j2.twice:
        return 0.0
    if (j1.twice + j2.twice + j.twice) % 2 != 0:
        return 0.0
    # ratio m / (j1 + 1/2), exact
    x = Fraction(m.twice, j1.twice + 1)
    if m2.twice == 1:
        if j.twice == j1.twice + 1:
            return math.sqrt((1 + x) / 2)
        return -math.sqrt((1 - x) / 2)
    if j.twice == j1.twice + 1:
        return math.sqrt((1 - x) / 2)
    return math.sqrt((1 + x) / 2)


def spin_values(n_qubits: int) -> tuple[HalfInt, ...]:
    """Admissible total spins of n_qubits qubits, descending."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be nonnegative")
    return tuple(HalfInt(t) for t in range(n_qubits, -1, -2))


def rho_eigenvalue(n_ports: int, j, s) -> Fraction:
    """Eigenvalue of the port-average state on the (j, s) sector.

    (N/2 - j)/2^N when s = j + 1/2, (N/2 + j + 1)/2^N when s = j - 1/2.
    """
    j, s = HalfInt.of(j), HalfInt.of(s)
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    if not valid_total_spin(n_ports, j):
        raise ValueError(f"j = {j} is not an admissible {n_ports}-qubit spin")
    if not valid_total_spin(n_ports + 1, s) or abs(s.twice - j.twice) != 1:
        raise ValueError(f"(j, s) = ({j}, {s}) is not an adjacent pair")
    if s.twice == j.twice + 1:
        return Fraction(n_ports - j.twice, 2 ** (n_ports + 1))
    return Fraction(n_ports + j.twice + 2, 2 ** (n_ports + 1))


def chain_multiplicity(n_qubits: int, j) -> int:
    """Number of sequential-coupling chains on n_qubits qubits ending at total
    spin j; equals the multiplicity of that spin sector."""
    j = HalfInt.of(j)
    if n_qubits < 0:
        raise ValueError("n_qubits must be nonnegative")
    if not valid_total_spin(n_qubits, j):
        raise ValueError(f"j = {j} is not an admissible {n_qubits}-qubit spin")
    down = (n_qubits - j.twice) // 2
    up = (n_qubits + j.twice) // 2
    return (j.twice + 1) * math.factorial(n_qubits) // (math.factorial(down) * math.factorial(up + 1))


def weight_norm(n_ports: int) -> Fraction:
    """Normalization 6/((N+1)(N+2)(N+3)); the inverse of the sum of squared
    sector dimensions of N qubits."""
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    return Fraction(6, (n_ports + 1) * (n_ports + 2) * (n_ports + 3))


@dataclass(frozen=True)
class OptScalars:
    """Exact tables for the optimised probabilistic measurement on N ports.

    nu: deformation weight per N-qubit spin j (the port-side operator is
        sum_j sqrt(nu(j)) times the spin-j projector).
    u: spectator weight per (N-1)-qubit spin s.
    multiplicity: chain count per N-qubit spin j.
    norm: the weight normalization for N ports.

    The tables are read-only views, since one instance is shared per N.
    """

    n_ports: int
    nu: Mapping[HalfInt, Fraction]
    u: Mapping[HalfInt, Fraction]
    multiplicity: Mapping[HalfInt, int]
    norm: Fraction


@lru_cache(maxsize=32)
def optimal_scalars(n_ports: int) -> OptScalars:
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    h = weight_norm(n_ports)
    nu = {}
    mult = {}
    for j in spin_values(n_ports):
        m = chain_multiplicity(n_ports, j)
        mult[j] = m
        nu[j] = 2 ** n_ports * h * Fraction(j.twice + 1, m)
    u = {}
    for s in spin_values(n_ports - 1):
        m = chain_multiplicity(n_ports - 1, s)
        u[s] = 2 ** (n_ports + 1) * h * Fraction(s.twice + 1, n_ports * m)
    return OptScalars(n_ports=n_ports, nu=MappingProxyType(nu), u=MappingProxyType(u),
                      multiplicity=MappingProxyType(mult), norm=h)


def pair_sectors(n_ports: int) -> tuple[HalfInt, ...]:
    """Total spins s <= (N-1)/2 of the N+1 qubit system, ascending. These are
    the sectors where the port measurement element has its rank-one piece."""
    if n_ports < 1:
        raise ValueError("n_ports must be >= 1")
    start = 0 if (n_ports + 1) % 2 == 0 else 1
    return tuple(HalfInt(t) for t in range(start, n_ports, 2))


def _is_pair_sector(n_ports: int, s: HalfInt) -> bool:
    """Membership in `pair_sectors(n_ports)` by range and parity."""
    return 0 <= s.twice < n_ports and (s.twice - n_ports - 1) % 2 == 0


def sector_eigenvalue(regime: Regime, n_ports: int, s) -> Fraction:
    """The unique nonzero eigenvalue of the port measurement element on the
    spin-s sector (exact rational).

    For the pretty good measurement s = (N+1)/2 is also admitted and returns
    1/N, the uniform value on the otherwise-unreached maximal-spin states.
    """
    s = HalfInt.of(s)
    N = n_ports
    if regime is Regime.DPBT and s.twice == N + 1:
        return Fraction(1, N)
    if not _is_pair_sector(N, s):
        raise ValueError(f"s = {s} is not a pair sector for N = {N}")
    st = s.twice
    if regime is Regime.DPBT:
        return Fraction(4 * (N + 1), (N + 1 - st) * (N + 3 + st))
    if regime is Regime.PPBT_MES:
        return Fraction(4, N + 3 + st)
    opt = optimal_scalars(N)
    gamma2 = Fraction(st, st + 1) / (2 * opt.nu[HalfInt(st - 1)]) if st > 0 else Fraction(0)
    delta2 = Fraction(st + 2, st + 1) / (2 * opt.nu[HalfInt(st + 1)])
    return opt.u[s] * (gamma2 + delta2)


def rotation_pair(regime: Regime, n_ports: int, s) -> tuple[float, float]:
    """Normalized coefficients (on the j = s-1/2 label, on the j = s+1/2
    label) of the nonzero-eigenvalue combination in the spin-s sector.

    At s = 0 the j = s-1/2 label does not exist and the first coefficient
    is 0; the maximal sector s = (N+1)/2 has no pair and is rejected.
    """
    s = HalfInt.of(s)
    N = n_ports
    if not _is_pair_sector(N, s):
        raise ValueError(f"s = {s} is not a pair sector for N = {N}")
    st = s.twice
    if regime is Regime.PPBT_MES:
        lo = Fraction(st, 2 * (st + 1))
        hi = Fraction(st + 2, 2 * (st + 1))
        return math.sqrt(lo), -math.sqrt(hi)
    if regime is Regime.DPBT:
        lo = Fraction(2 * st, (st + 1) * (N + 1 - st))
        hi = Fraction(2 * st + 4, (st + 1) * (N + 3 + st))
    else:
        opt = optimal_scalars(N)
        lo = Fraction(st, st + 1) / (2 * opt.nu[HalfInt(st - 1)]) if st > 0 else Fraction(0)
        hi = Fraction(st + 2, st + 1) / (2 * opt.nu[HalfInt(st + 1)])
    total = lo + hi
    return math.sqrt(lo / total), -math.sqrt(hi / total)


def failure_eigenvalue(regime: Regime, n_ports: int, j, s) -> Fraction:
    """Eigenvalue of the failure element (outcome N+1) on the label (j, s).

    Only the probabilistic regimes have a failure outcome. The result is
    diagonal in the coupling basis: in the maximally entangled regime it is
    2(2s+1)/(N+3+2s) on j = s-1/2 branches and 0 on j = s+1/2; in the
    optimised regime it is 1 minus the (rescaled) acceptance weight.
    """
    if regime is Regime.DPBT:
        raise ValueError("the deterministic regime has no failure outcome")
    j, s = HalfInt.of(j), HalfInt.of(s)
    N = n_ports
    lam = rho_eigenvalue(N, j, s)
    if regime is Regime.PPBT_MES:
        if j.twice == s.twice - 1:
            return Fraction(2 * (s.twice + 1), N + 3 + s.twice)
        return Fraction(0)
    if lam == 0:
        return Fraction(1)
    opt = optimal_scalars(N)
    return 1 - 2 ** (N - 1) * lam * opt.u[s] / opt.nu[j]


@dataclass(frozen=True)
class RegimeScalars:
    """Tabulated per-sector scalars for one (regime, N) pair.

    Rational quantities (sector eigenvalues, failure eigenvalues, the
    port-average eigenvalues) are Fractions; the rotation pairs carry square
    roots and are floats.
    """

    regime: Regime
    n_ports: int
    lam: dict[tuple[HalfInt, HalfInt], Fraction] = field(repr=False)
    sector_eig: dict[HalfInt, Fraction] = field(repr=False)
    pairs: dict[HalfInt, tuple[float, float]] = field(repr=False)
    failure_eig: dict[tuple[HalfInt, HalfInt], Fraction] | None = field(default=None, repr=False)

    def sector_eigenvalue(self, s) -> Fraction:
        return self.sector_eig[HalfInt.of(s)]

    def rotation_pair(self, s) -> tuple[float, float]:
        return self.pairs[HalfInt.of(s)]

    def failure_eigenvalue(self, j, s) -> Fraction:
        if self.failure_eig is None:
            raise ValueError("the deterministic regime has no failure outcome")
        return self.failure_eig[(HalfInt.of(j), HalfInt.of(s))]


def adjacent_pairs(n_ports: int):
    """All admissible (j, s) label pairs of the N+1 qubit system."""
    for s in spin_values(n_ports + 1):
        for dt in (-1, 1):
            j = HalfInt(s.twice + dt)
            if valid_total_spin(n_ports, j):
                yield j, s


def regime_scalars(regime: Regime, n_ports: int) -> RegimeScalars:
    lam = {(j, s): rho_eigenvalue(n_ports, j, s) for j, s in adjacent_pairs(n_ports)}
    sector_eig = {s: sector_eigenvalue(regime, n_ports, s) for s in pair_sectors(n_ports)}
    if regime is Regime.DPBT:
        sector_eig[HalfInt(n_ports + 1)] = Fraction(1, n_ports)
    pairs = {s: rotation_pair(regime, n_ports, s) for s in pair_sectors(n_ports)}
    failure = None
    if regime is not Regime.DPBT:
        failure = {(j, s): failure_eigenvalue(regime, n_ports, j, s)
                   for j, s in adjacent_pairs(n_ports)}
    return RegimeScalars(regime=regime, n_ports=n_ports, lam=lam,
                         sector_eig=sector_eig, pairs=pairs, failure_eig=failure)
