"""Dense reference builds of the port measurement operators.

Everything here is deliberately brute force: operators are materialized as
2^(N+1) x 2^(N+1) matrices straight from their definitions, with no reuse of
the eigenstructure results, so the analytic module has an independent target
to be checked against. Spin-sector weights (the spectator operator and the
inverse deformation) become matrices through `schur.sector_operator`. Memory
is O(4^N); builds are hard-capped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .schur import sector_operator
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products in one broadcast multiply,
    without np.kron's general-rank set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _check_ports(n_ports: int, cap: int) -> None:
    if not 1 <= n_ports <= cap:
        raise ValueError(f"n_ports must be in 1..{cap} for dense builds, got {n_ports}")


@lru_cache(maxsize=256)
def qubit_swap_permutation(n_qubits: int, qa: int, qb: int) -> np.ndarray:
    """Basis-index permutation exchanging qubits qa and qb (1-based, qubit 1
    most significant). Cached per (n_qubits, qa, qb) and read-only: the
    oracle, the analytic build, the compiled port swap and the amplification
    check's weight classes share it."""
    if not (1 <= qa <= n_qubits and 1 <= qb <= n_qubits):
        raise ValueError("qubit out of range")
    idx = np.arange(2 ** n_qubits)
    if qa != qb:
        pa, pb = n_qubits - qa, n_qubits - qb
        bit_a = (idx >> pa) & 1
        bit_b = (idx >> pb) & 1
        swapped = idx & ~(1 << pa) & ~(1 << pb)
        idx = swapped | (bit_b << pa) | (bit_a << pb)
    idx.flags.writeable = False
    return idx


def _swap_conjugate(op: np.ndarray, n_qubits: int, qa: int, qb: int) -> np.ndarray:
    perm = qubit_swap_permutation(n_qubits, qa, qb)
    return op[perm[:, None], perm]


def _last_signal(n_ports: int) -> np.ndarray:
    """The port-N signal state: the singlet on qubits (N, N+1) tensored with
    identity, normalized to unit trace."""
    return _kron(np.eye(2 ** (n_ports - 1)), SINGLET_PROJECTOR) / 2 ** (n_ports - 1)


def signal_state(i: int, n_ports: int) -> np.ndarray:
    """Ensemble member for port i (1-based): the singlet projector on qubits
    (i, N+1) tensored with identity, normalized to unit trace."""
    _check_ports(n_ports, MAX_STATE_PORTS)
    if not 1 <= i <= n_ports:
        raise ValueError(f"port {i} out of range 1..{n_ports}")
    return _swap_conjugate(_last_signal(n_ports), n_ports + 1, i, n_ports)


def ensemble_average(n_ports: int) -> np.ndarray:
    """Unnormalized sum of the N signal states; trace N, rank 2^(N+1)-(N+2).
    The port-N state is built once and conjugated into each port."""
    _check_ports(n_ports, MAX_STATE_PORTS)
    last = _last_signal(n_ports)
    out = np.zeros((2 ** (n_ports + 1), 2 ** (n_ports + 1)))
    for i in range(1, n_ports + 1):
        out += _swap_conjugate(last, n_ports + 1, i, n_ports)
    return out


def support_pinv_sqrt(op: np.ndarray) -> np.ndarray:
    """Inverse square root on the support; eigenvalues at or below
    SUPPORT_RTOL * max(eigenvalue) are treated as exact zeros."""
    w, v = np.linalg.eigh(op)
    if w.min() < -PSD_TOLERANCE:
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {w.min():.3e})")
    cutoff = SUPPORT_RTOL * w.max()
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


class PovmSet:
    """Measurement elements in port order; the probabilistic regimes carry the
    failure element last (outcome N+1)."""

    __slots__ = ("regime", "n_ports", "elements")

    def __init__(self, regime: Regime, n_ports: int, elements: list[np.ndarray]):
        self.regime = regime
        self.n_ports = n_ports
        self.elements = elements

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
        """The smallest eigenvalue of any element, from one eigensolve of
        the stacked elements: LAPACK runs the same routine on each."""
        return np.linalg.eigvalsh(np.stack(self.elements)).min()


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
    pi_last = root @ _last_signal(n_ports) @ root + delta
    return _port_covariant_set(Regime.DPBT, n_ports, pi_last, with_failure=False)


def ppbt_mes_povm(n_ports: int) -> PovmSet:
    """Conclusive measurement tuned to the product-of-singlets resource."""
    _check_ports(n_ports, MAX_POVM_PORTS)
    theta = sector_operator(n_ports - 1, {
        s: 1 / (2 ** (n_ports - 1) * rho_eigenvalue(n_ports, s + 1, s))
        for s in spin_values(n_ports - 1)})
    pi_last = _kron(theta, SINGLET_PROJECTOR)
    return _port_covariant_set(Regime.PPBT_MES, n_ports, pi_last, with_failure=True)


def ppbt_opt_povm(n_ports: int) -> PovmSet:
    """Conclusive measurement tuned to the deformed resource; the deformation
    operator acts on the N port qubits and is inverted against the element."""
    _check_ports(n_ports, MAX_POVM_PORTS)
    opt = optimal_scalars(n_ports)
    o_inv = sector_operator(n_ports, {j: 1 / math.sqrt(float(nu)) for j, nu in opt.nu.items()})
    theta = sector_operator(n_ports - 1, opt.u)
    o_inv_full = _kron(o_inv, np.eye(2))
    pi_last = o_inv_full @ _kron(theta, SINGLET_PROJECTOR) @ o_inv_full
    return _port_covariant_set(Regime.PPBT_OPT, n_ports, pi_last, with_failure=True)


def build_povm(regime: Regime, n_ports: int) -> PovmSet:
    if regime is Regime.DPBT:
        return pgm_povm(n_ports)
    if regime is Regime.PPBT_MES:
        return ppbt_mes_povm(n_ports)
    return ppbt_opt_povm(n_ports)
