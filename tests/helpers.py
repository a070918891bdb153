"""Test oracles shared by the test modules: dense matrices of circuit
actions, branch weights of a state, Haar-random qubit inputs and the list
of pair sectors."""

import numpy as np

from portsim.circuit import Registers, StateVector
from portsim.halfint import HalfInt


def action_matrix(action, registers: Registers) -> np.ndarray:
    """Dense matrix of an action via one batched application to the full
    computational basis; dimension grows as 4^N."""
    dim = registers.dim
    basis = np.eye(dim, dtype=np.complex128)
    amps = basis.reshape(registers.system_dim, registers.port_dim, registers.r_dim, dim)
    return action.apply(StateVector(registers, amps)).flat()


def branch_weights(state: StateVector, register: str) -> np.ndarray:
    """Probability weight per "port" or "r" register value and batch column."""
    density = np.abs(state.amps) ** 2
    return density.sum(axis=(0, 2) if register == "port" else (0, 1))


def haar_qubit(rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return amps / np.linalg.norm(amps)


def pair_sectors(n_ports: int) -> tuple[HalfInt, ...]:
    """Total spins s <= (N-1)/2 of the N+1 qubit system, ascending: the
    sectors where the port measurement element has its rank-one piece."""
    start = 0 if (n_ports + 1) % 2 == 0 else 1
    return tuple(HalfInt(t) for t in range(start, n_ports, 2))
