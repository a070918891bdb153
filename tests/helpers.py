"""Test oracles shared by the test modules: dense matrices of circuit
actions, branch weights of a state and Haar-random qubit inputs."""

import numpy as np

from portsim.circuit import Registers, StateVector


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
