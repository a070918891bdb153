"""Statevector primitives for the measurement circuits.

A state lives on (system qubits) x (port register) x (block qubit r), with a
trailing batch axis for anything that rides along unmeasured: Bob's halves of
the resource pairs during teleportation, or a stack of independent test
inputs. Amplitudes are stored as a dense complex array of shape
(2^n_system, port_dim, r_dim, batch).

Unitaries come in three shapes: dense operators on the system factor,
the port-controlled swap, and block operations defined by small matrices
repeated over explicit index tuples. Block operations carry a register-level
key per block so two-level rotations can be counted the way a real register
machine would implement them (one controlled rotation per key, not one per
amplitude pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm_oracle import qubit_swap_permutation


class InvalidSubspaceSpec(ValueError):
    """Raised when a requested subspace map does not extend to a unitary."""


@dataclass(frozen=True)
class Registers:
    """Shape of the composite space: n_system qubits, a port register of
    arbitrary dimension, and the block qubit (r_dim 1 when absent)."""

    n_system: int
    port_dim: int
    r_dim: int = 2

    def __post_init__(self) -> None:
        if self.n_system < 1 or self.port_dim < 1 or self.r_dim < 1:
            raise ValueError("register sizes must be positive")

    @property
    def system_dim(self) -> int:
        return 2 ** self.n_system

    @property
    def dim(self) -> int:
        return self.system_dim * self.port_dim * self.r_dim

    def flat_index(self, system: int, port: int, r: int) -> int:
        if not (0 <= system < self.system_dim and 0 <= port < self.port_dim
                and 0 <= r < self.r_dim):
            raise IndexError(f"({system}, {port}, {r}) outside {self}")
        return (system * self.port_dim + port) * self.r_dim + r


@dataclass
class StateVector:
    registers: Registers
    amps: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.registers.system_dim, self.registers.port_dim, self.registers.r_dim)
        if self.amps.shape[:3] != expected or self.amps.ndim != 4:
            raise ValueError(f"amplitude shape {self.amps.shape} does not match {expected} + batch")

    @classmethod
    def from_system(cls, registers: Registers, system_amps: np.ndarray,
                    port: int = 0, r: int = 0) -> "StateVector":
        """State with the system factor given and the registers in basis
        states; a 2-d input supplies one system vector per batch column."""
        sys_amps = np.asarray(system_amps, dtype=np.complex128)
        if sys_amps.ndim == 1:
            sys_amps = sys_amps[:, None]
        if sys_amps.shape[0] != registers.system_dim:
            raise ValueError("system amplitude length mismatch")
        amps = np.zeros((registers.system_dim, registers.port_dim, registers.r_dim,
                         sys_amps.shape[1]), dtype=np.complex128)
        amps[:, port, r, :] = sys_amps
        return cls(registers, amps)

    @property
    def batch(self) -> int:
        return self.amps.shape[3]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def flat(self) -> np.ndarray:
        """(dim, batch) view in register order (system, port, r)."""
        return self.amps.reshape(self.registers.dim, self.batch)


class DenseSystem:
    """Dense unitary on the system factor, identity on port and r."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("system matrix must be square")
        self.matrix = matrix
        self.rotation_count = 0

    def _apply(self, state: StateVector, matrix: np.ndarray) -> StateVector:
        if matrix.shape[0] != state.registers.system_dim:
            raise ValueError("system dimension mismatch")
        amps = np.tensordot(matrix, state.amps, axes=([1], [0]))
        return StateVector(state.registers, np.ascontiguousarray(amps))

    def apply(self, state: StateVector) -> StateVector:
        return self._apply(state, self.matrix)

    def apply_adjoint(self, state: StateVector) -> StateVector:
        return self._apply(state, self.matrix.conj().T)


class PortCswap:
    """Per-branch qubit swap: port value i (0-based) swaps system qubits i+1
    and N; branches at N and above idle. Self-adjoint."""

    def __init__(self, n_ports: int):
        if n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        self.n_ports = n_ports
        self.perms = [qubit_swap_permutation(n_ports + 1, i + 1, n_ports)
                      for i in range(n_ports)]
        self.rotation_count = n_ports

    def apply(self, state: StateVector) -> StateVector:
        regs = state.registers
        if regs.n_system != self.n_ports + 1:
            raise ValueError("system register must hold N+1 qubits")
        if regs.port_dim < self.n_ports:
            raise ValueError("port register smaller than port count")
        amps = state.amps.copy()
        for i, perm in enumerate(self.perms):
            amps[:, i] = amps[perm, i]
        return StateVector(regs, amps)

    apply_adjoint = apply


@dataclass(frozen=True)
class Block:
    """One register-level two-level (or k-level) rotation: a small unitary
    repeated over disjoint index tuples."""

    key: tuple
    matrix: np.ndarray
    instances: np.ndarray

    def is_identity(self) -> bool:
        return bool(np.allclose(self.matrix, np.eye(self.matrix.shape[0]), atol=1e-14))


class SubspaceBlocks:
    """Sequence of Blocks applied in order. Blocks may overlap (ordered
    cascades like the port preparation); instances within one block must be
    disjoint since they are gathered and scattered in one shot."""

    def __init__(self, registers: Registers, blocks: list[Block], name: str = "blocks"):
        self.registers = registers
        self.name = name
        for block in blocks:
            k = block.matrix.shape[0]
            if block.matrix.shape != (k, k):
                raise InvalidSubspaceSpec(f"{name}: block matrix must be square")
            gram = block.matrix.conj().T @ block.matrix
            if not np.allclose(gram, np.eye(k), atol=1e-10):
                raise InvalidSubspaceSpec(f"{name}: block {block.key} is not unitary")
            inst = block.instances
            if inst.ndim != 2 or inst.shape[1] != k or inst.dtype.kind not in "iu":
                raise InvalidSubspaceSpec(f"{name}: instance array {inst.dtype} {inst.shape}")
            if inst.size and (inst.min() < 0 or inst.max() >= registers.dim):
                raise InvalidSubspaceSpec(f"{name}: instance index out of range")
            # bincount, not np.unique: numpy 2's unique imports numpy.ma
            if np.bincount(inst.ravel(), minlength=registers.dim).max() > 1:
                raise InvalidSubspaceSpec(f"{name}: block {block.key} reuses an index")
        self.blocks = blocks
        self.rotation_count = sum(1 for b in blocks if not b.is_identity())

    def _apply(self, state: StateVector, adjoint: bool) -> StateVector:
        amps = state.amps.copy()
        flat = amps.reshape(self.registers.dim, state.batch)
        blocks = reversed(self.blocks) if adjoint else self.blocks
        for block in blocks:
            if block.instances.size == 0:
                continue
            matrix = block.matrix.conj().T if adjoint else block.matrix
            sub = flat[block.instances]
            flat[block.instances] = np.einsum("xy,iyb->ixb", matrix, sub)
        return StateVector(state.registers, amps)

    def apply(self, state: StateVector) -> StateVector:
        return self._apply(state, adjoint=False)

    def apply_adjoint(self, state: StateVector) -> StateVector:
        return self._apply(state, adjoint=True)


class AdjointOp:
    """Wrapper flipping apply and apply_adjoint of an op."""

    def __init__(self, op):
        self.op = op

    @property
    def rotation_count(self) -> int:
        return self.op.rotation_count

    def apply(self, state: StateVector) -> StateVector:
        return self.op.apply_adjoint(state)

    def apply_adjoint(self, state: StateVector) -> StateVector:
        return self.op.apply(state)


@dataclass(frozen=True)
class RegisterProjector:
    """Diagonal projector keeping listed port and r values (None = all)."""

    port_values: tuple[int, ...] | None = None
    r_values: tuple[int, ...] | None = None

    def mask(self, registers: Registers) -> np.ndarray:
        """Flat boolean mask over the register basis: True where kept."""
        keep = np.ones((registers.system_dim, registers.port_dim, registers.r_dim), dtype=bool)
        if self.port_values is not None:
            drop = np.ones(registers.port_dim, dtype=bool)
            drop[list(self.port_values)] = False
            keep[:, drop] = False
        if self.r_values is not None:
            drop = np.ones(registers.r_dim, dtype=bool)
            drop[list(self.r_values)] = False
            keep[:, :, drop] = False
        return keep.reshape(registers.dim)

    def apply(self, state: StateVector) -> StateVector:
        amps = state.amps.copy()
        amps.reshape(state.registers.dim, state.batch)[~self.mask(state.registers)] = 0
        return StateVector(state.registers, amps)


class CircuitAction:
    """Ordered unitary ops with a shared apply/apply_adjoint interface."""

    def __init__(self, ops: list):
        self.ops = list(ops)

    def apply(self, state: StateVector) -> StateVector:
        for op in self.ops:
            state = op.apply(state)
        return state

    def apply_adjoint(self, state: StateVector) -> StateVector:
        for op in reversed(self.ops):
            state = op.apply_adjoint(state)
        return state

    @property
    def rotation_count(self) -> int:
        return sum(op.rotation_count for op in self.ops)


class OaaAction:
    """Oblivious amplitude amplification: with U|x> = sin(pi/2n) W|x> + junk
    for every |x> in the start subspace (junk outside the flag subspace), the
    composite of n rounds lands exactly on W|x>.

    Each round after the first applies the flag-subspace reflection followed
    by the reflection through the image of the start subspace; both
    reflections together advance the good-branch angle by pi/n, so the n-th
    round ends at angle pi/2 with no residual junk.

    The guarantee covers start-subspace inputs only, and `apply` rejects any
    other. U acts only on the start-subspace basis: since Pi U^dagger =
    (U Pi)^dagger, the k-column image U Pi of that basis yields both U and
    the reflection U Pi U^dagger. So `apply` costs one circuit pass over k
    columns plus two matrix products per round, whatever n is.
    """

    def __init__(self, u, pi: RegisterProjector, pi_tilde: RegisterProjector, n: int):
        if n < 1 or n % 2 == 0:
            raise ValueError(f"round count must be odd and positive, got {n}")
        self.u = u
        self.pi = pi
        self.pi_tilde = pi_tilde
        self.n = n

    def apply(self, state: StateVector) -> StateVector:
        regs = state.registers
        start = self.pi.mask(regs)
        flat = state.flat()
        if np.any(flat[~start]):
            raise ValueError("amplitude amplification input leaves the start subspace")
        columns = np.flatnonzero(start)
        basis = np.zeros((regs.dim, columns.size), dtype=np.complex128)
        basis[columns, np.arange(columns.size)] = 1.0
        image = self.u.apply(StateVector(
            regs, basis.reshape(*state.amps.shape[:3], columns.size))).flat()
        current = image @ flat[columns]
        image_adjoint = image.conj().T
        junk = ~self.pi_tilde.mask(regs)
        for _ in range((self.n - 1) // 2):
            current[junk] *= -1
            current -= 2 * image @ (image_adjoint @ current)
        return StateVector(regs, current.reshape(state.amps.shape))


def oaa(u, pi: RegisterProjector, pi_tilde: RegisterProjector, n: int) -> OaaAction:
    return OaaAction(u, pi, pi_tilde, n)


def c_star(target_amp: float) -> tuple[float, int]:
    """Smallest rescale c* >= 1 with target_amp / c* = sin(pi/2n), n odd.

    Floating sin makes boundary cases (target exactly sin(pi/2n)) land a hair
    above or below; the relative slack keeps those exact and c* snaps to 1
    when it lands within rounding of it.
    """
    if not 0 < target_amp <= 1:
        raise ValueError(f"target amplitude must be in (0, 1], got {target_amp}")
    n = 1
    while math.sin(math.pi / (2 * n)) > target_amp * (1 + 1e-12):
        n += 2
    value = target_amp / math.sin(math.pi / (2 * n))
    if abs(value - 1.0) < 1e-12:
        value = 1.0
    return max(1.0, value), n


def branch_weights(state: StateVector, register: str) -> np.ndarray:
    """Probability weight per register value and batch column."""
    density = np.abs(state.amps) ** 2
    if register == "port":
        return density.sum(axis=(0, 2))
    if register == "r":
        return density.sum(axis=(0, 1))
    raise ValueError(f"unknown register {register!r}")


def action_matrix(action, registers: Registers) -> np.ndarray:
    """Dense matrix of an action via one batched application to the full
    computational basis. For testing; dimension grows as 4^N."""
    dim = registers.dim
    basis = np.eye(dim, dtype=np.complex128)
    amps = basis.reshape(registers.system_dim, registers.port_dim, registers.r_dim, dim)
    out = action.apply(StateVector(registers, amps))
    return out.flat()


def port_prepare(registers: Registers, amplitudes: np.ndarray) -> SubspaceBlocks:
    """Cascade of two-level rotations sending port basis state 0 to the given
    real unit vector (first entry positive), identity on empty tail slots."""
    t = np.asarray(amplitudes, dtype=float)
    if t.shape != (registers.port_dim,):
        raise ValueError("amplitude count must match the port dimension")
    if abs(np.linalg.norm(t) - 1.0) > 1e-12:
        raise ValueError("port preparation amplitudes must be a unit vector")
    if t[0] <= 0:
        raise ValueError("first amplitude must be positive")
    prefix = np.sqrt(np.cumsum(t ** 2))
    blocks = []
    sys_r = [(sys, r) for sys in range(registers.system_dim) for r in range(registers.r_dim)]
    for k in range(registers.port_dim - 1, 0, -1):
        if t[k] == 0.0:
            continue
        cos, sin = prefix[k - 1] / prefix[k], t[k] / prefix[k]
        matrix = np.array([[cos, -sin], [sin, cos]])
        inst = np.array([[registers.flat_index(sys, 0, r), registers.flat_index(sys, k, r)]
                         for sys, r in sys_r], dtype=np.intp)
        blocks.append(Block(key=("prep", k), matrix=matrix, instances=inst))
    return SubspaceBlocks(registers, blocks, name="port-prepare")
