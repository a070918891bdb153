"""Statevector primitives for the measurement circuits.

A state lives on (system qubits) x (port register) x (block qubit r), with a
trailing batch axis of independent inputs, one column each. Amplitudes are
stored as a dense array of shape (2^n_system, port_dim, 2, batch), float64
when the input is real and complex128 when it is complex; every op keeps
that dtype unless one of its own matrices is complex. The compiled circuits
are real throughout, so a real input runs in half the memory. The layout is
fixed: the block qubit's r = 0 level is the flag subspace, and the start
subspace is r = 0 on port value 0.

Unitaries come in two shapes: dense operators on the system factor, and
block operations defined by small matrices repeated over explicit index
tuples. The port-controlled swap is one of the latter, one swap block per
port value. Every op only applies forward; an inverse is built as an op of
its own. Each block counts one rotation, the way a real register machine
would implement it (one controlled rotation per block, not one per amplitude
pair).

A measurement whose elements never mix some classes of system rows can also
run on the flagged part alone (`ClassBlocks`): one block per class, each
over its own batch columns, with no r = 1 level and no padding. There the
elements' roots act as what they are, a sum of rank-one pieces a v v^T over
families of rows, each piece one vector v and one amplitude a shared by its
families (`FamilyRoots`), in place, so such a run holds one copy of its
state.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class InvalidSubspaceSpec(ValueError):
    """Raised when a requested subspace map does not extend to a unitary."""


class NumericalInvariantError(ArithmeticError):
    """A numerical identity of the compiled circuits fails by more than
    rounding; `residual` is the size of the violation."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class Registers:
    """Shape of the composite space: n_system qubits, a port register of
    arbitrary dimension, and the block qubit r (r_dim, always 2). Registers
    of equal sizes share one read-only `index`."""

    __slots__ = ("n_system", "port_dim")
    r_dim = 2

    def __init__(self, n_system: int, port_dim: int):
        if n_system < 1 or port_dim < 1:
            raise ValueError("register sizes must be positive")
        self.n_system = n_system
        self.port_dim = port_dim

    @property
    def system_dim(self) -> int:
        return 2 ** self.n_system

    @property
    def dim(self) -> int:
        return self.system_dim * self.port_dim * self.r_dim

    @property
    def index(self) -> np.ndarray:
        """Flat index of each (system, port, r): the grid ops index into.
        Built once per register size and read-only."""
        return _register_index(self.system_dim, self.port_dim, self.r_dim)


@lru_cache(maxsize=32)
def _register_index(system_dim: int, port_dim: int, r_dim: int) -> np.ndarray:
    index = np.arange(system_dim * port_dim * r_dim, dtype=np.intp).reshape(
        system_dim, port_dim, r_dim)
    index.flags.writeable = False
    return index


class StateVector:
    __slots__ = ("registers", "amps")

    def __init__(self, registers: Registers, amps: np.ndarray):
        expected = (registers.system_dim, registers.port_dim, registers.r_dim)
        if amps.shape[:3] != expected or amps.ndim != 4:
            raise ValueError(f"amplitude shape {amps.shape} does not match {expected} + batch")
        self.registers = registers
        self.amps = amps

    @classmethod
    def from_system(cls, registers: Registers, system_amps: np.ndarray) -> "StateVector":
        """State with the system factor given on port value 0 and r = 0, the
        start subspace; a 2-d input supplies one system vector per batch
        column. The amplitudes are float64 for a real input, complex128 for
        a complex one."""
        sys_amps = np.asarray(system_amps, dtype=np.complex128 if np.iscomplexobj(system_amps)
                              else np.float64)
        if sys_amps.ndim == 1:
            sys_amps = sys_amps[:, None]
        if sys_amps.shape[0] != registers.system_dim:
            raise ValueError("system amplitude length mismatch")
        amps = np.zeros((registers.system_dim, registers.port_dim, registers.r_dim,
                         sys_amps.shape[1]), dtype=sys_amps.dtype)
        amps[:, 0, 0] = sys_amps
        return cls(registers, amps)

    @property
    def batch(self) -> int:
        return self.amps.shape[3]


class ClassBlocks:
    """The flagged part (r = 0) of a state whose system rows fall into
    classes no op mixes, each class over its own batch columns: class c is a
    (port, rows, columns) block of shape `shapes[c]` on every port value.
    `amps` holds the classes one after another along its second axis,
    (port_dim, sum_c rows_c columns_c), so it stores no r = 1 level and no
    padding."""

    __slots__ = ("amps", "shapes")

    def __init__(self, amps: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        size = sum(rows * cols for rows, cols in shapes)
        if amps.ndim != 2 or amps.shape[1] != size:
            raise ValueError(f"amplitude shape {amps.shape} does not hold "
                             f"{size} amplitudes per port value")
        self.amps = amps
        self.shapes = shapes

    @classmethod
    def from_blocks(cls, shapes: tuple[tuple[int, int], ...], blocks: np.ndarray,
                    entry: Sequence[float]) -> "ClassBlocks":
        """State with the class blocks `blocks`, flat and one after another,
        times `entry[p]` on port value p; float64 for a real input,
        complex128 for a complex one."""
        blocks = np.asarray(blocks, dtype=np.complex128 if np.iscomplexobj(blocks)
                            else np.float64)
        return cls(np.multiply.outer(np.asarray(entry, dtype=float), blocks), shapes)

    def blocks(self) -> list[np.ndarray]:
        """Each class as a (port, rows, columns) view of `amps`."""
        views, start = [], 0
        for rows, cols in self.shapes:
            views.append(self.amps[:, start:start + rows * cols].reshape(-1, rows, cols))
            start += rows * cols
        return views


class DenseSystem:
    """Dense unitary on the system factor, identity on port and r."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("system matrix must be square")
        self.matrix = matrix
        self.rotation_count = 0

    def apply(self, state: StateVector) -> StateVector:
        if self.matrix.shape[0] != state.registers.system_dim:
            raise ValueError("system dimension mismatch")
        amps = np.tensordot(self.matrix, state.amps, axes=([1], [0]))
        return StateVector(state.registers, np.ascontiguousarray(amps))


class Block(NamedTuple):
    """One register-level two-level (or k-level) rotation: a small unitary
    repeated over disjoint index tuples."""

    matrix: np.ndarray
    instances: np.ndarray


class SubspaceBlocks:
    """Sequence of Blocks applied in order. Blocks may overlap (ordered
    cascades like the port preparation); instances within one block must be
    disjoint since they are gathered and scattered in one shot. Each block
    counts as one rotation."""

    def __init__(self, registers: Registers, blocks: list[Block], name: str = "blocks"):
        self.registers = registers
        self.name = name
        dim = registers.dim
        for pos, block in enumerate(blocks):
            k = block.matrix.shape[0]
            if block.matrix.shape != (k, k):
                raise InvalidSubspaceSpec(f"{name}: block matrix must be square")
            gram = block.matrix.conj().T @ block.matrix
            if np.abs(gram - np.eye(k)).max() > 1e-10:
                raise InvalidSubspaceSpec(f"{name}: block {pos} is not unitary")
            inst = block.instances
            if inst.ndim != 2 or inst.shape[1] != k or inst.dtype.kind not in "iu":
                raise InvalidSubspaceSpec(f"{name}: instance array {inst.dtype} {inst.shape}")
            if inst.size and (inst.min() < 0 or inst.max() >= dim):
                raise InvalidSubspaceSpec(f"{name}: instance index out of range")
            # bincount, not np.unique: numpy 2's unique imports numpy.ma
            if np.bincount(inst.ravel(), minlength=dim).max() > 1:
                raise InvalidSubspaceSpec(f"{name}: block {pos} reuses an index")
        self.blocks = blocks
        self.rotation_count = len(blocks)

    def apply(self, state: StateVector) -> StateVector:
        # a complex block promotes a real state; real blocks keep its dtype
        amps = state.amps.astype(np.result_type(state.amps, *(b.matrix for b in self.blocks)))
        flat = amps.reshape(self.registers.dim, state.batch)
        for block in self.blocks:
            if block.instances.size == 0:
                continue
            flat[block.instances] = block.matrix @ flat[block.instances]
        return StateVector(state.registers, amps)


class FamilyRoots:
    """A sum of rank-one pieces a v v^T on a `ClassBlocks` state, applied in
    place.

    `pieces[c][p]` lists the pieces of class c on port value p as
    (rows, v, a): rows (F, L) the positions of F families among the class's
    rows, v the L real coefficients of the one unit vector they share and a
    their one amplitude. A family's rows x_0 .. x_(L-1) become k v_0 ..
    k v_(L-1), where k = x_0 v_0 + x_1 v_1 + ... is summed in that order and
    then scaled by a. Families are disjoint rows of their class, and every
    row of a class that no piece of that port value lists is zeroed;
    `row_counts[c]` counts the class's rows."""

    def __init__(self, pieces: Sequence[Sequence[Sequence[tuple]]],
                 row_counts: Sequence[int]):
        self.steps = []
        for class_pieces, count in zip(pieces, row_counts):
            branches = []
            for port_pieces in class_pieces:
                listed = np.bincount(np.concatenate([np.zeros(0, dtype=np.intp)] + [
                    rows.ravel() for rows, _, _ in port_pieces]), minlength=count)
                if len(listed) > count or listed.max(initial=0) > 1:
                    raise InvalidSubspaceSpec("families must be disjoint rows of their class")
                # per piece, one row index per family and position
                branches.append(([(rows.T.copy(), v, a) for rows, v, a in port_pieces],
                                 np.flatnonzero(listed == 0)))
            self.steps.append(branches)

    def apply(self, state: ClassBlocks) -> ClassBlocks:
        for block, branches in zip(state.blocks(), self.steps):
            for rows, (port_pieces, zero) in zip(block, branches):
                for index, vector, amplitude in port_pieces:
                    k = rows[index[0]] * vector[0]
                    for at, entry in zip(index[1:], vector[1:]):
                        k += rows[at] * entry
                    k *= amplitude
                    for at, entry in zip(index, vector):
                        rows[at] = k * entry
                rows[zero] = 0
        return state


class CircuitAction:
    """Ordered unitary ops, applied first to last through their shared
    `apply`."""

    def __init__(self, ops: list):
        self.ops = list(ops)

    def apply(self, state: StateVector) -> StateVector:
        for op in self.ops:
            state = op.apply(state)
        return state

    @property
    def rotation_count(self) -> int:
        return sum(op.rotation_count for op in self.ops)


# a flagged run's scaled output -> its largest entry of |G_out - I| on the
# register the precondition holds on, for an input whose Gram there is I
Fold = Callable[[ClassBlocks], float]


class OaaAction:
    """Oblivious amplitude amplification by its lemma (Berry, Childs, Cleve,
    Kothari and Somma, arXiv:1312.1414): if Pi~ U Pi = sin(pi/2n) V with V an
    isometry, n rounds send every start-subspace input x exactly to
    Pi~ U x / sin(pi/2n). The register layout defines both projectors: Pi~
    keeps the block qubit's r = 0 level, Pi keeps r = 0 on port value 0,
    where every program's input enters.

    `apply` rejects inputs outside the start subspace, runs U once on the
    input, keeps its flagged rows and divides by s = sin(pi/2n). It checks
    the precondition on the input's own columns: the relative residual
    max|(Pi~ U x)^dagger (Pi~ U x) - s^2 x^dagger x| / (s^2 max diag x^dagger x)
    must stay below 1e-9, or `NumericalInvariantError` carries it. Input
    columns that span the start subspace make this the lemma's full
    precondition Pi U^dagger Pi~ U Pi = s^2 Pi.

    On a `ClassBlocks` state U is the flagged part Pi~ U Pi itself, such as
    `FamilyRoots`, and every port value the state holds is a start branch.
    U runs in place there, on the one copy of the state, so the input must
    be orthonormal on the register the precondition holds on, its Gram the
    identity, and `fold` checks the scaled output alone against it, once,
    after the run. The fold also says which register that is: when the
    state's branches stand in for a larger register, as the amplification
    check's do, it forms that register's Grams class by class. A
    `StateVector` run checks its own columns and takes no fold.
    """

    def __init__(self, u, n: int, fold: Fold | None = None):
        if n < 1 or n % 2 == 0:
            raise ValueError(f"round count must be odd and positive, got {n}")
        self.u = u
        self.n = n
        self.fold = fold

    def apply(self, state):
        s = math.sin(math.pi / (2 * self.n))
        if isinstance(state, ClassBlocks):
            if self.fold is None:
                raise ValueError("a flagged run needs a fold to check its precondition")
            result = self.u.apply(state)
            result.amps *= 1.0 / s
            miss, scale = self.fold(result), 1.0
        else:
            if self.fold is not None:
                raise ValueError("a fold checks only a flagged run")
            amps = state.amps
            if amps[:, 1:].any() or amps[:, :, 1].any():
                raise ValueError("amplitude amplification input leaves the start subspace")
            out = self.u.apply(state).amps
            # scaled in place, unless U hands back the input's own amplitudes
            if np.may_share_memory(out, amps):
                out = out.copy()
            out *= 1.0 / s
            out[:, :, 1] = 0
            rows_in, rows_out = (x[:, :, 0].reshape(-1, state.batch) for x in (amps, out))
            gram = rows_in.conj().T @ rows_in
            miss = float(np.abs(rows_out.conj().T @ rows_out - gram).max())
            scale = float(gram.diagonal().real.max())
            result = StateVector(state.registers, out)
        if miss > 1e-9 * scale:
            raise NumericalInvariantError(
                f"amplification precondition Pi~ U Pi = sin(pi/{2 * self.n}) V fails: "
                f"relative Gram residual {miss / scale:.3e}", miss / scale)
        return result


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


def port_prepare(registers: Registers, amplitudes: np.ndarray) -> SubspaceBlocks:
    """Cascade of two-level rotations sending port basis state 0 to the given
    positive unit vector, one rotation per entry after the first."""
    t = np.asarray(amplitudes, dtype=float)
    if t.shape != (registers.port_dim,):
        raise ValueError("amplitude count must match the port dimension")
    if abs(np.linalg.norm(t) - 1.0) > 1e-12:
        raise ValueError("port preparation amplitudes must be a unit vector")
    if (t <= 0).any():
        raise ValueError("port preparation amplitudes must be positive")
    prefix = np.sqrt(np.cumsum(t ** 2))
    index = registers.index
    blocks = []
    for k in range(registers.port_dim - 1, 0, -1):
        cos, sin = prefix[k - 1] / prefix[k], t[k] / prefix[k]
        matrix = np.array([[cos, -sin], [sin, cos]])
        # rows (system, r), columns (port 0, port k)
        inst = index[:, [0, k]].transpose(0, 2, 1).reshape(-1, 2)
        blocks.append(Block(matrix=matrix, instances=inst))
    return SubspaceBlocks(registers, blocks, name="port-prepare")


def port_cswap(registers: Registers, perms: Sequence[np.ndarray]) -> SubspaceBlocks:
    """Port-controlled swap: on port value i, the system basis involution
    perms[i] (a qubit swap), on both r levels; port values past len(perms)
    idle. One [[0, 1], [1, 0]] block per port value over the index pairs
    perms[i] moves, so each port value counts one rotation, even when its
    perm moves nothing."""
    if len(perms) > registers.port_dim or any(len(p) != registers.system_dim for p in perms):
        raise ValueError(f"need at most {registers.port_dim} permutations of "
                         f"{registers.system_dim} system states")
    index = registers.index
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    blocks = []
    for i, perm in enumerate(perms):
        moved = np.flatnonzero(perm > np.arange(len(perm)))
        # rows (pair, r), columns (x, perm[x])
        inst = index[np.column_stack([moved, perm[moved]]), i].transpose(0, 2, 1).reshape(-1, 2)
        blocks.append(Block(matrix=swap, instances=inst))
    return SubspaceBlocks(registers, blocks, name="port-cswap")
