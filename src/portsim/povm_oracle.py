"""Dense reference builds of the port measurement operators.

Everything here is deliberately brute force: operators are materialized as
2^(N+1) x 2^(N+1) matrices straight from their definitions, with no reuse of
the eigenstructure results, so the analytic module has an independent target
to be checked against. Memory is O(4^N); builds are hard-capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfint import HalfInt
from .schur import enumerate_labels, spin_projector
from .spinalg import Regime, optimal_scalars, rho_eigenvalue, spin_values

MAX_STATE_PORTS = 7
MAX_POVM_PORTS = 6

PSD_TOLERANCE = 1e-8
SUPPORT_RTOL = 1e-12

# (|01> - |10>)/sqrt(2) as a projector on two qubits
_SINGLET = np.zeros(4)
_SINGLET[1] = 1 / math.sqrt(2)
_SINGLET[2] = -1 / math.sqrt(2)
SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET)


def _check_ports(n_ports: int, cap: int) -> None:
    if not 1 <= n_ports <= cap:
        raise ValueError(f"n_ports must be in 1..{cap} for dense builds, got {n_ports}")


def qubit_swap_permutation(n_qubits: int, qa: int, qb: int) -> np.ndarray:
    """Basis-index permutation exchanging qubits qa and qb (1-based, qubit 1
    most significant)."""
    if not (1 <= qa <= n_qubits and 1 <= qb <= n_qubits):
        raise ValueError("qubit out of range")
    idx = np.arange(2 ** n_qubits)
    if qa == qb:
        return idx
    pa, pb = n_qubits - qa, n_qubits - qb
    bit_a = (idx >> pa) & 1
    bit_b = (idx >> pb) & 1
    swapped = idx & ~(1 << pa) & ~(1 << pb)
    return swapped | (bit_b << pa) | (bit_a << pb)


def _swap_conjugate(op: np.ndarray, n_qubits: int, qa: int, qb: int) -> np.ndarray:
    perm = qubit_swap_permutation(n_qubits, qa, qb)
    return op[np.ix_(perm, perm)]


def signal_state(i: int, n_ports: int) -> np.ndarray:
    """Ensemble member for port i (1-based): the singlet projector on qubits
    (i, N+1) tensored with identity, normalized to unit trace."""
    _check_ports(n_ports, MAX_STATE_PORTS)
    if not 1 <= i <= n_ports:
        raise ValueError(f"port {i} out of range 1..{n_ports}")
    base = np.kron(np.eye(2 ** (n_ports - 1)), SINGLET_PROJECTOR) / 2 ** (n_ports - 1)
    return _swap_conjugate(base, n_ports + 1, i, n_ports)


def ensemble_average(n_ports: int) -> np.ndarray:
    """Unnormalized sum of the N signal states; trace N, rank 2^(N+1)-(N+2)."""
    _check_ports(n_ports, MAX_STATE_PORTS)
    out = np.zeros((2 ** (n_ports + 1), 2 ** (n_ports + 1)))
    for i in range(1, n_ports + 1):
        out += signal_state(i, n_ports)
    return out


def psd_sqrt(op: np.ndarray, tol: float = PSD_TOLERANCE) -> np.ndarray:
    """Hermitian square root; eigenvalues below -tol raise, small negatives
    from roundoff are clipped to zero.

    Eigenvalues under the relative support cutoff are zeroed outright: the
    square root amplifies ~1e-15 solver noise on a true null direction to
    ~3e-8, which would dominate every downstream comparison.
    """
    w, v = np.linalg.eigh(op)
    if w.min() < -tol:
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    if w.max() > 0.0:
        w[w < SUPPORT_RTOL * w.max()] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def support_pinv_sqrt(op: np.ndarray, rtol: float = SUPPORT_RTOL) -> np.ndarray:
    """Inverse square root on the support; eigenvalues at or below
    rtol * max(eigenvalue) are treated as exact zeros."""
    w, v = np.linalg.eigh(op)
    if w.min() < -PSD_TOLERANCE:
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {w.min():.3e})")
    cutoff = rtol * w.max()
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


@dataclass
class PovmSet:
    """Measurement elements in port order; the probabilistic regimes carry the
    failure element last (outcome N+1)."""

    regime: Regime
    n_ports: int
    elements: list[np.ndarray]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def element(self, outcome: int) -> np.ndarray:
        """1-based outcome accessor; outcome N+1 is the failure element."""
        if not 1 <= outcome <= self.n_outcomes:
            raise ValueError(f"outcome {outcome} out of range 1..{self.n_outcomes}")
        return self.elements[outcome - 1]

    def completeness_residual(self) -> float:
        total = sum(self.elements)
        return np.abs(total - np.eye(total.shape[0])).max()

    def min_eigenvalue(self) -> float:
        return min(np.linalg.eigvalsh(e).min() for e in self.elements)

    def validate(self, sum_tol: float = 1e-10, psd_tol: float = -1e-10) -> None:
        residual = self.completeness_residual()
        if residual > sum_tol:
            raise ValueError(f"elements do not sum to identity (residual {residual:.3e})")
        low = self.min_eigenvalue()
        if low < psd_tol:
            raise ValueError(f"element not positive semidefinite (min eigenvalue {low:.3e})")


def _port_covariant_set(regime: Regime, n_ports: int, pi_last: np.ndarray,
                        with_failure: bool) -> PovmSet:
    """Complete a POVM from its port-N element by swap covariance."""
    elements = []
    for i in range(1, n_ports):
        elements.append(_swap_conjugate(pi_last, n_ports + 1, i, n_ports))
    elements.append(pi_last)
    if with_failure:
        total = sum(elements)
        elements.append(np.eye(pi_last.shape[0]) - total)
    return PovmSet(regime=regime, n_ports=n_ports, elements=elements)


def pgm_povm(n_ports: int) -> PovmSet:
    """Pretty good measurement of the signal ensemble. The ensemble average
    has an (N+2)-dimensional null space (the maximal-spin sector); the PGM is
    completed there by 1/N times the null projector, split evenly."""
    _check_ports(n_ports, MAX_POVM_PORTS)
    rho = ensemble_average(n_ports)
    root = support_pinv_sqrt(rho)
    support = root @ rho @ root
    delta = (np.eye(rho.shape[0]) - support) / n_ports
    pi_last = root @ signal_state(n_ports, n_ports) @ root + delta
    return _port_covariant_set(Regime.DPBT, n_ports, pi_last, with_failure=False)


def _spectator_weighted(n_ports: int, weight) -> np.ndarray:
    """sum_s weight(s) * spin projector on the N-1 spectator qubits."""
    if n_ports == 1:
        return np.array([[float(weight(HalfInt(0)))]])
    out = np.zeros((2 ** (n_ports - 1), 2 ** (n_ports - 1)))
    for s in spin_values(n_ports - 1):
        out += float(weight(s)) * spin_projector(n_ports - 1, s)
    return out


def ppbt_mes_povm(n_ports: int) -> PovmSet:
    """Conclusive measurement tuned to the product-of-singlets resource."""
    _check_ports(n_ports, MAX_POVM_PORTS)
    theta = _spectator_weighted(
        n_ports,
        lambda s: 1 / (2 ** (n_ports - 1) * rho_eigenvalue(n_ports, HalfInt(s.twice + 1), s)),
    )
    pi_last = np.kron(theta, SINGLET_PROJECTOR)
    return _port_covariant_set(Regime.PPBT_MES, n_ports, pi_last, with_failure=True)


def ppbt_opt_povm(n_ports: int) -> PovmSet:
    """Conclusive measurement tuned to the deformed resource; the deformation
    operator acts on the N port qubits and is inverted against the element."""
    _check_ports(n_ports, MAX_POVM_PORTS)
    opt = optimal_scalars(n_ports)
    dim_ports = 2 ** n_ports
    o_inv = np.zeros((dim_ports, dim_ports))
    if n_ports == 1:
        o_inv = np.eye(2) / math.sqrt(float(opt.nu[HalfInt(1)]))
    else:
        for j in spin_values(n_ports):
            o_inv += spin_projector(n_ports, j) / math.sqrt(float(opt.nu[j]))
    theta = _spectator_weighted(n_ports, lambda s: opt.u[s])
    o_inv_full = np.kron(o_inv, np.eye(2))
    pi_last = o_inv_full @ np.kron(theta, SINGLET_PROJECTOR) @ o_inv_full
    return _port_covariant_set(Regime.PPBT_OPT, n_ports, pi_last, with_failure=True)


def build_povm(regime: Regime, n_ports: int) -> PovmSet:
    if regime is Regime.DPBT:
        return pgm_povm(n_ports)
    if regime is Regime.PPBT_MES:
        return ppbt_mes_povm(n_ports)
    return ppbt_opt_povm(n_ports)


def deformation_operator(n_ports: int) -> np.ndarray:
    """The port-side operator whose square reweights spin sectors in the
    optimised resource state."""
    opt = optimal_scalars(n_ports)
    if n_ports == 1:
        return np.eye(2) * math.sqrt(float(opt.nu[HalfInt(1)]))
    out = np.zeros((2 ** n_ports, 2 ** n_ports))
    for j in spin_values(n_ports):
        out += math.sqrt(float(opt.nu[j])) * spin_projector(n_ports, j)
    return out

