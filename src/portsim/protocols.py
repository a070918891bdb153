"""End-to-end teleportation protocols built on the measurement circuits.

One builder (`_compile`) turns every protocol into the same
square-root-measurement circuit: prepare the port register, control-swap the
addressed port behind the last system qubit, enter the coupled basis, rotate
each two-label family so its kept eigenvector sits on one basis slot, attach
the per-sector amplitude to the block qubit, whose r = 1 level takes the
junk, and undo the basis changes; oblivious amplitude amplification then
removes the junk. A protocol is one row of per-kind data (`_Spec`): port
amplitudes, flagged target amplitude and attach factors. The
singlet-resource measure-and-hope variant (`ppbt_mes_no_aa`) is one more
row, the same circuit left unamplified.

Sampling reads the instrument's closed form. The square-root measurement
is SU(2) covariant (Ishizaka and Hiroshima, PRL 101, 240501, 2008) and
port-permutation covariant (Studzinski et al., Sci. Rep. 7, 10871, 2017),
so every qubit PBT channel is depolarizing with one weight per outcome: no
trial's outcome weights or fidelity depend on its input. The closed form
has one source: the outcome weights (`expected_outcome_distribution`) and
the one success fidelity (`success_fidelity`), the exact average for the
deterministic kinds and 1 for the heralded ones. Each trial draws its
outcome from those weights, and every success has that fidelity
(`teleport_batch`); the tests check the closed form against the dense
routes. Before it samples, each protocol's circuit is checked once against
the amplification precondition, which the schedule `teleport` prints rests
on (`_check_amplification`). The precondition is a property of the circuit
alone, so the check runs it on an orthonormal input, the coupled basis
change itself, whose Gram is the identity. The run uses the last port
branch and the failure branch alone: every other port branch is a qubit-swap
image of the last one. On the flagged level the circuit's rotate, attach
and unrotate is, family by family, a v (v^T x), the element's root read
straight off the one attach table that `_compile` reads too
(`_attach_tables`), so the run applies just that, one piece per sector
(`_element_roots`). Every family shares one S_z, and so does each column of
the basis change, so the run holds one block per weight class
(`_weight_classes`), its C(N+1, w) coupled rows over its own C(N+1, w)
columns, in place (`_class_input`), and the check goes class by class. The
whole-register program, which builds the dense transform, stays for the
gate-count model and the tests. A trial has no input: it reads one seeded
uniform and nothing else, so chunks that share one generator read exactly
what one draw of all trials gives.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .circuit import (Block, CircuitAction, ClassBlocks, DenseSystem, FamilyRoots,
                      NumericalInvariantError, OaaAction, Registers, StateVector,
                      SubspaceBlocks, c_star, port_cswap, port_prepare)
from .povm_analytic import EigenSystem, failure_eigensystem, port_eigensystem
from .povm_oracle import qubit_swap_permutation
from .schur import (MAX_DENSE_QUBITS, coupling_entries, coupling_level, coupling_unitary,
                    enumerate_labels)
from .spinalg import Regime, adjacent_pairs, chain_multiplicity, failure_eigenvalue

if TYPE_CHECKING:
    from .pcg64 import Pcg64


class ProtocolKind(Enum):
    """The four protocols: deterministic or heralded-probabilistic, each with
    the plain singlet resource or the optimised one."""

    DPBT_MES = "dpbt"
    DPBT_OPT = "dpbt-opt"
    PPBT_MES = "ppbt-mes"
    PPBT_OPT = "ppbt-opt"

    @property
    def regime(self) -> Regime:
        return _SPECS[self].regime

    @property
    def deterministic(self) -> bool:
        return self.regime is Regime.DPBT

    @property
    def optimised_resource(self) -> bool:
        return self in (ProtocolKind.DPBT_OPT, ProtocolKind.PPBT_OPT)


class NaimarkProgram:
    """A compiled measurement circuit plus its amplification schedule.

    The bare action U sends |psi>|0_port>|0_r> to
    sum_i (a_i / c_star) sqrt(Pi_i)|psi>|i>|0_r> plus junk on r = 1, with
    flagged amplitude sin(pi/2n) for n = `rounds`. `run()` returns the
    flagged (r = 0) part of every program. By the amplification lemma the n
    rounds leave exactly the flagged part divided by sin(pi/2n), applied as
    one checked projection (see `OaaAction`); rounds == 0 means the program
    runs unamplified, and `run()` zeroes the r = 1 level of U's output.

    The input enters on r = 0 of port value 0, the start subspace, and the
    program prepares the port register itself. This whole-register circuit
    is the gate-count model and the tests' oracle; the amplification check
    runs the element roots alone (`_element_roots`).
    """

    __slots__ = ("registers", "bare", "rounds", "c_star", "failure_branches")

    def __init__(self, registers: Registers, bare: CircuitAction, rounds: int, c_star: float,
                 failure_branches: tuple[int, ...]):
        self.registers = registers
        self.bare = bare
        self.rounds = rounds
        self.c_star = c_star
        self.failure_branches = failure_branches

    def run(self, system_amps: np.ndarray) -> StateVector:
        state = StateVector.from_system(self.registers, system_amps)
        if self.rounds == 0:
            flagged = self.bare.apply(state).amps
            flagged[:, :, 1] = 0
            return StateVector(self.registers, flagged)
        return OaaAction(self.bare, self.rounds).apply(state)

    @property
    def rotation_count(self) -> int:
        return self.bare.rotation_count


def _attach_amplitude(amplitude: float) -> float:
    """An attach amplitude, clipped to 1 within rounding. Past it no
    reflection has it as its flagged entry, a broken invariant of the
    spec's scales: `NumericalInvariantError` carries the excess over 1."""
    if amplitude > 1.0 + 1e-9:
        raise NumericalInvariantError(
            f"attach amplitude {amplitude} exceeds 1 by {amplitude - 1.0:.3e}", amplitude - 1.0)
    return min(amplitude, 1.0)


def _reflection(a: float) -> np.ndarray:
    """The real reflection with flagged entry a, an attach amplitude already
    clipped to [0, 1] (`_attach_amplitude`)."""
    b = math.sqrt(max(0.0, 1.0 - a * a))
    return np.array([[a, b], [b, -a]])


def _rotation_op(es: EigenSystem, regs: Registers, ports: range) -> SubspaceBlocks:
    """Per-family basis rotation on each listed port branch, taking the kept
    eigenvector of each family to its last label's slot: one block per sector
    below the maximal spin, over that sector's families."""
    grid = regs.index[:, ports.start:ports.stop]
    blocks = []
    for sector in es.sectors:
        if sector.s > es.n_ports:
            continue
        c = sector.coeffs
        matrix = np.array([[c[0]]]) if len(c) == 1 else np.array([[c[1], -c[0]], [c[0], c[1]]])
        # rows (family, port, r), columns the family's labels
        instances = np.moveaxis(grid[sector.families], 1, -1).reshape(-1, len(c))
        blocks.append(Block(matrix=matrix, instances=instances))
    return SubspaceBlocks(regs, blocks, name="family-rotation")


def _attach_op(es: EigenSystem, amplitudes: list[float], regs: Registers, branches: range,
               name: str) -> SubspaceBlocks:
    """Reflections moving what one element does not keep from the flagged
    part (r = 0) of each listed branch to the block qubit's r = 1 level.

    Each family keeps its last label: the port element's after the family
    rotation, the failure element's single label as it is. The kept labels
    of one (s, j) sector reflect with that sector's attach amplitude
    (`_attach_tables`), one block per sector; every other label swaps out
    entirely, in one more block when there is any.
    """
    grid = regs.index[:, branches.start:branches.stop]
    dropped = np.ones(regs.system_dim, dtype=bool)
    blocks = []
    for sector, amplitude in zip(es.sectors, amplitudes):
        kept = sector.families[:, -1]
        dropped[kept] = False
        # rows (label, branch), columns (r = 0, r = 1)
        blocks.append(Block(matrix=_reflection(amplitude), instances=grid[kept].reshape(-1, 2)))
    if dropped.any():
        blocks.append(Block(matrix=_reflection(0.0), instances=grid[dropped].reshape(-1, 2)))
    return SubspaceBlocks(regs, blocks, name=name)


class _Spec(NamedTuple):
    """The per-kind data of the program builder `_compile` and of the
    amplification check's `_element_roots`.

    amplitudes(N) is the port preparation, N port values plus the failure
    branch of the heralded kinds; target(N) the flagged amplitude that
    amplification lifts to one (None: no amplification, c* = 1); attach(N)
    and fail scale the port and failure attach amplitudes before the 1/c*
    rescale (fail None: no failure attach). Every program parks its junk on
    the block qubit.
    """

    regime: Regime
    amplitudes: Callable[[int], np.ndarray]
    target: Callable[[int], float] | None
    attach: Callable[[int], float]
    fail: float | None = None


_DPBT = _Spec(Regime.DPBT, amplitudes=lambda n: np.full(n, 1.0 / math.sqrt(n)),
              target=lambda n: 1.0 / math.sqrt(n), attach=lambda n: 1.0)
_SPECS = {
    ProtocolKind.DPBT_MES: _DPBT,
    ProtocolKind.DPBT_OPT: _DPBT,
    # the flagged amplitude is 1/(2 sqrt 2) for every N: always five rounds
    ProtocolKind.PPBT_MES: _Spec(
        Regime.PPBT_MES,
        amplitudes=lambda n: np.append(np.full(n, 1.0 / math.sqrt(2.0 * n)),
                                       1.0 / math.sqrt(2.0)),
        target=lambda n: 1.0 / (2.0 * math.sqrt(2.0)),
        attach=lambda n: math.sqrt(n) / 2.0, fail=0.5),
    ProtocolKind.PPBT_OPT: _Spec(
        Regime.PPBT_OPT, amplitudes=lambda n: np.full(n + 1, 1.0 / math.sqrt(n + 1)),
        target=lambda n: 1.0 / math.sqrt(n + 1), attach=lambda n: 1.0, fail=1.0),
}
# measure-and-hope: the singlet-resource attach on N equal ports, unamplified
_NO_AA = _Spec(Regime.PPBT_MES, amplitudes=lambda n: np.full(n, 1.0 / math.sqrt(n)),
               target=None, attach=lambda n: math.sqrt(n) / 2.0)


def _check_ports(n_ports: int) -> None:
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")


class _WeightClass:
    """One S_z sector of the N+1 system qubits, w of them in |1>: the
    coupled-basis rows `outputs` of doubled m = N+1-2w, which the branch
    program reads and writes, and the computational basis states of weight
    w as `columns`, each the state's index with its first N bits flipped,
    in ascending order: the k-th is column k of the class's block.
    `swaps[i]` is the in-class position of each column's image under port
    i's swap of qubits i+1 and N, which keeps the weight and commutes with
    the flip."""

    __slots__ = ("outputs", "columns", "swaps")

    def __init__(self, outputs: np.ndarray, columns: np.ndarray, swaps: np.ndarray):
        self.outputs = outputs
        self.columns = columns
        self.swaps = swaps


@lru_cache(maxsize=32)
def _weight_classes(n_ports: int) -> tuple[_WeightClass, ...]:
    """The N+2 weight classes of the N+1 system qubits: the coupled basis
    change maps the computational states of weight w onto the labels of
    doubled m = N+1-2w, since it conserves S_z. Each class holds C(N+1, w)
    rows and as many columns. Cached, read-only."""
    qubits = n_ports + 1
    # a column's weight is that of its index with the first N bits flipped
    flipped = np.arange(2 ** qubits) ^ (2 ** qubits - 2)
    column_class = sum((flipped >> t) & 1 for t in range(qubits))
    m = enumerate_labels(qubits)[:, -1]
    perms = np.stack([qubit_swap_permutation(qubits, i + 1, n_ports) for i in range(n_ports)])
    position = np.empty(2 ** qubits, dtype=np.intp)
    classes = []
    for w in range(qubits + 1):
        columns = np.flatnonzero(column_class == w)
        position[columns] = np.arange(len(columns))
        parts = (np.flatnonzero(m == qubits - 2 * w), columns, position[perms[:, columns]])
        for part in parts:
            part.flags.writeable = False
        classes.append(_WeightClass(*parts))
    return tuple(classes)


def _output_grams(classes: tuple[_WeightClass, ...], state: ClassBlocks
                  ) -> Iterator[np.ndarray]:
    """Per class, the whole register's Gram of a branch run's output: the
    last port branch's folded in once under each port's swap of qubits i+1
    and N, which maps the class onto itself, one image at a time, and the
    failure branch's once."""
    for cls, block in zip(classes, state.blocks()):
        last = block[0].conj().T @ block[0]
        gram = np.zeros_like(last)
        for swap in cls.swaps:
            gram += last[swap[:, None], swap]
        for rows in block[1:]:
            gram += rows.conj().T @ rows
        yield gram


def _fold_classes(classes: tuple[_WeightClass, ...], after: ClassBlocks) -> float:
    """The whole register's amplification check from a branch run of the
    orthonormal class input (`_class_input`), whose whole-register Gram is
    the identity: the largest entry of |G_out - I| over the run's scaled
    output, each class adding its output Grams (`_output_grams`) as it
    goes. The dense fold is block-diagonal in class, so these blocks hold
    every entry it can make nonzero."""
    miss = 0.0
    for diff in _output_grams(classes, after):
        diff[np.diag_indices(len(diff))] -= 1.0
        np.abs(diff, out=diff)
        miss = max(miss, float(diff.real.max()))
    return miss


def _schedule(spec: _Spec, n_ports: int) -> tuple[float, int]:
    """The spec's rescale c* and amplification rounds: (1, 0) for a spec
    left unamplified."""
    return (1.0, 0) if spec.target is None else c_star(spec.target(n_ports))


def _attach_tables(spec: _Spec, n_ports: int) -> list[tuple[EigenSystem, list[float]]]:
    """The port eigensystem and, for a spec with a failure attach, the
    failure eigensystem, each with its attach amplitudes, one per sector:
    sqrt(value) times the spec's attach (or fail) scale over c*, clipped by
    `_attach_amplitude`. This is the one table that the program's attach
    (`_compile`) and the amplification check's roots (`_element_roots`)
    both read."""
    rescale, _ = _schedule(spec, n_ports)
    tables = [(port_eigensystem(spec.regime, n_ports), spec.attach(n_ports))]
    if spec.fail is not None:
        tables.append((failure_eigensystem(spec.regime, n_ports), spec.fail))
    return [(es, [_attach_amplitude(math.sqrt(float(sector.value)) * (scale * (1.0 / rescale)))
                  for sector in es.sectors]) for es, scale in tables]


@lru_cache(maxsize=32)
def _compile(spec: _Spec, n_ports: int) -> NaimarkProgram:
    """Build the square-root-measurement circuit of one spec: port
    preparation, port-controlled swap, coupled basis, family rotation,
    amplitude attach read off the closed-form eigensystems, then the basis
    changes undone. Ports past N are failure branches. Cached per spec,
    since programs are stateless and every run builds its own state. The
    register builds the dense N+1 qubit coupled basis, so N is capped at
    MAX_DENSE_QUBITS - 1 before anything is built."""
    _check_ports(n_ports)
    if n_ports > MAX_DENSE_QUBITS - 1:
        raise ValueError(f"n_ports must be in 1..{MAX_DENSE_QUBITS - 1} for a compiled "
                         f"program, got {n_ports}")
    amps = spec.amplitudes(n_ports)
    ports = range(n_ports)
    regs = Registers(n_ports + 1, len(amps))
    rescale, rounds = _schedule(spec, n_ports)
    (eigen, amplitudes), *failure = _attach_tables(spec, n_ports)
    attach = [_attach_op(eigen, amplitudes, regs, ports, "port-attach")]
    attach += [_attach_op(es, amps, regs, range(n_ports, regs.port_dim), "failure-attach")
               for es, amps in failure]
    rot = _rotation_op(eigen, regs, ports)
    # the real orthogonal blocks and transform are undone by their transposes
    unrot = SubspaceBlocks(regs, [Block(matrix=b.matrix.T, instances=b.instances)
                                  for b in reversed(rot.blocks)], name="family-unrotation")
    cswap = port_cswap(regs, [qubit_swap_permutation(n_ports + 1, i + 1, n_ports)
                              for i in ports])
    couple = coupling_unitary(n_ports + 1)
    ops = [port_prepare(regs, amps), cswap, DenseSystem(couple.T), rot, *attach, unrot,
           DenseSystem(couple), cswap]
    return NaimarkProgram(registers=regs, bare=CircuitAction(ops), rounds=rounds,
                          c_star=rescale, failure_branches=tuple(range(n_ports, regs.port_dim)))


def _element_roots(spec: _Spec, n_ports: int) -> FamilyRoots:
    """The roots of the last port's element and of the failure element on
    the flagged level, read straight off the attach table.

    On r = 0, `_compile`'s rotate, attach and unrotate is, family by family,
    a v (v^T x): v the family's eigenvector coefficients and a its sector's
    attach amplitude, the one `_compile` attaches (`_attach_tables`). Every
    label no family holds is dropped. A family's labels share one doubled
    m = N+1-2w, so each family lies in weight class w, and this lays each
    sector's families onto the class's row positions as one piece per
    (sector, class, branch), branch 0 the port element's and branch 1 the
    failure element's. The run's state holds 2 C(2N+2, N+1) floats, so N is
    capped at MAX_DENSE_QUBITS (159 MiB at N = 12) before anything is
    built. Built once per spec, by the cached `_check_amplification`."""
    _check_ports(n_ports)
    if n_ports > MAX_DENSE_QUBITS:
        raise ValueError(f"n_ports must be in 1..{MAX_DENSE_QUBITS} for the amplification "
                         f"check, got {n_ports}")
    tables = _attach_tables(spec, n_ports)
    classes = _weight_classes(n_ports)
    # each label's class and its row among the class's rows
    owner, position = np.empty((2, 2 ** (n_ports + 1)), dtype=np.intp)
    for w, cls in enumerate(classes):
        owner[cls.outputs], position[cls.outputs] = w, np.arange(len(cls.outputs))
    pieces = [[[] for _ in tables] for _ in classes]
    for branch, (es, amplitudes) in enumerate(tables):
        for sector, amplitude in zip(es.sectors, amplitudes):
            family_class = owner[sector.families[:, 0]]
            for w in set(family_class.tolist()):
                pieces[w][branch].append((position[sector.families[family_class == w]],
                                          sector.coeffs, amplitude))
    return FamilyRoots(pieces, [len(cls.outputs) for cls in classes])


def ppbt_mes_no_aa(n_ports: int) -> NaimarkProgram:
    """Measure-and-hope variant: the ppbt-mes circuit on N equal port values,
    block qubit and all, left unamplified. Its flagged part holds half the
    element's root on branch i, so success lands there with probability
    exactly one quarter of the heralded element's weight."""
    return _compile(_NO_AA, n_ports)


def build_program(kind: ProtocolKind, n_ports: int) -> NaimarkProgram:
    """Compiled program per protocol. Kinds that share a spec (dpbt and
    dpbt-opt differ only in their resource) share one program."""
    return _compile(_SPECS[kind], n_ports)


class TeleportBatch:
    """Vectorized trial record: one sampled outcome and success fidelity
    (NaN on failure) per trial, the amplification schedule, and the exact
    outcome distribution `expected` that every trial shares."""

    __slots__ = ("rounds", "c_star", "outcomes", "fidelities", "expected")

    def __init__(self, rounds: int, c_star: float, outcomes: np.ndarray,
                 fidelities: np.ndarray, expected: np.ndarray):
        self.rounds = rounds
        self.c_star = c_star
        self.outcomes = outcomes
        self.fidelities = fidelities
        self.expected = expected


@lru_cache(maxsize=32)
def expected_outcome_distribution(kind: ProtocolKind, n_ports: int) -> np.ndarray:
    """Outcome distribution averaged over uniformly random pure inputs.

    The resource reduction and the branch operators are both covariant under
    port permutations, so the success weight splits evenly across ports.
    Cached per protocol, read-only.
    """
    _check_ports(n_ports)
    if kind.deterministic:
        dist = np.full(n_ports, 1.0 / n_ports)
    else:
        p = float(success_probability_exact(kind, n_ports))
        dist = np.full(n_ports + 1, p / n_ports)
        dist[n_ports] = 1.0 - p
    dist.flags.writeable = False
    return dist


def _class_input(n_ports: int) -> np.ndarray:
    """The coupled basis change U_{N+1}^T as weight-class blocks: class w's
    (C(N+1, w), C(N+1, w)) block holds rows `outputs` and columns `columns`
    (`_weight_classes`), every entry outside them being zero, and the blocks
    follow one another flat, C(2N+2, N+1) floats in all. Each block is
    orthogonal. A gather, with no matrix product.

    Column (b, d), b the first N bits of `columns` and d the last, is the
    computational state 2 b' + d, b' = b with its bits flipped, so entry
    (L, (b, d)) is coeff[d, L] U_N[b', prev[d, L]] by one Clebsch-Gordan
    level (`coupling_level`), and 0 where prev[d, L] < 0. Those entries of
    U_N are read off U_{N-1} (`coupling_entries`), so no N qubit transform
    is built."""
    prev, coeff = coupling_level(n_ports + 1)
    classes = _weight_classes(n_ports)
    blocks = np.empty(sum(len(c.outputs) * len(c.columns) for c in classes))
    start = 0
    for cls in classes:
        x, b, d = cls.outputs[:, None], cls.columns >> 1, cls.columns & 1
        row = prev[d, x]
        block = blocks[start:start + row.size].reshape(row.shape)
        # a prev of -1 (the piece leaves the parent chain) reads the last
        # label's entry, which the zero coefficient drops
        np.multiply(np.where(row >= 0, coeff[d, x], 0.0),
                    coupling_entries(n_ports, b ^ (2 ** n_ports - 1), row), out=block)
        start += row.size
    return blocks


@lru_cache(maxsize=32)
def _check_amplification(spec: _Spec, n_ports: int) -> None:
    """Check the amplification precondition of one spec's circuit, on one
    run of the element roots (`_element_roots`) on the orthonormal class
    input (`_class_input`), held as flagged weight-class blocks. The
    schedule `teleport` prints rests on it: every batch calls it first, and
    it runs once per spec, so kinds that share a program share the check.

    The amplification lemma needs Pi U^dagger Pi~ U Pi = sin^2(pi/2n) Pi, a
    property of the circuit alone, which an orthonormal basis of the start
    subspace checks whole. The square-root measurement is port-permutation
    covariant (Studzinski et al., Sci. Rep. 7, 10871, 2017): port branch p
    of the whole register is the last port branch with system qubits p+1
    and N swapped. So the run holds the last port and the failure branch
    only, each times its port preparation amplitude, and the check folds
    the port images in class by class (`_fold_classes`).

    Every family of the roots shares one S_z, and so does every column of
    the input, so the run holds class w as one (branch, C(N+1, w),
    C(N+1, w)) block, the branches times C(2N+2, N+1) floats in all, the
    flagged level the amplification keeps and nothing else, and the roots
    act on it in place (`circuit.OaaAction`). No 2^(N+1) x 2^(N+1) Gram or
    transform is formed. The input and the roots are real, so the run is
    float64. A Gram residual above 1e-9 raises `NumericalInvariantError`,
    which carries it.
    """
    roots = _element_roots(spec, n_ports)
    _, rounds = _schedule(spec, n_ports)
    classes = _weight_classes(n_ports)
    shapes = tuple((len(cls.outputs), len(cls.columns)) for cls in classes)
    # the flat input is dropped once the start state holds it, so the run
    # holds one state
    start = ClassBlocks.from_blocks(shapes, _class_input(n_ports),
                                    spec.amplitudes(n_ports)[n_ports - 1:])
    OaaAction(roots, rounds, fold=partial(_fold_classes, classes)).apply(start)


def teleport_batch(kind: ProtocolKind, n_ports: int, trials: int,
                   rng: Pcg64 | int) -> TeleportBatch:
    """Run `trials` teleportations from the instrument's closed form.

    The square-root measurement is covariant, so no outcome weight or
    success fidelity depends on the input, and a trial has none: every
    trial samples its outcome from `expected_outcome_distribution`, and
    every success has the fidelity `success_fidelity`.
    `_check_amplification` runs first, as the check of the amplification
    schedule the batch carries, and of the port count before that schedule
    is read. Sampling draws one uniform per trial and inverts the
    cumulative distribution. `rng` is any generator with a `random(n)`
    method, used as given, or the int seed of a `Pcg64`: a PCG64 stream,
    bit-identical to numpy's `Generator(PCG64(seed)).random`, one 64-bit
    word a uniform. Batches that share a generator read what one batch of
    all their trials would.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spec = _SPECS[kind]
    _check_amplification(spec, n_ports)
    rescale, rounds = _schedule(spec, n_ports)
    expected = expected_outcome_distribution(kind, n_ports)
    # imported here, so that only a command that draws loads the stream
    from .pcg64 import Pcg64
    gen = rng if hasattr(rng, "random") else Pcg64(rng)
    # the number of cumulative weights below each uniform
    outcomes = np.minimum(np.searchsorted(np.cumsum(expected), gen.random(trials)),
                          len(expected) - 1) + 1
    return TeleportBatch(rounds=rounds, c_star=rescale, outcomes=outcomes,
                         fidelities=np.where(outcomes <= n_ports,
                                             success_fidelity(kind, n_ports), np.nan),
                         expected=expected)


def entanglement_fidelity(kind: ProtocolKind, n_ports: int) -> float:
    """Exact entanglement fidelity of the deterministic channel: feed half of
    a Bell pair through and project receiver and reference back onto it.

    Plain singlets follow the Ishizaka-Hiroshima sum (PRL 101, 240501, 2008)
    F = 2^-(N+3) sum_k C(N,k) [(N-2k-1)/sqrt(k+1) + (N-2k+1)/sqrt(N-k+1)]^2;
    the optimised resource reaches F = cos^2(pi/(N+2)) (PRA 79, 042306, 2009).
    """
    if not kind.deterministic:
        raise ValueError("entanglement fidelity applies to the deterministic regime")
    _check_ports(n_ports)
    n = n_ports
    if kind.optimised_resource:
        return math.cos(math.pi / (n + 2)) ** 2
    # C(N,k)/2^N as an exact-integer quotient stays finite for any N
    return sum(math.comb(n, k) / 2 ** n
               * ((n - 2 * k - 1) / math.sqrt(k + 1)
                  + (n - 2 * k + 1) / math.sqrt(n - k + 1)) ** 2
               for k in range(n + 1)) / 8


def average_fidelity(kind: ProtocolKind, n_ports: int) -> float:
    """Average output fidelity over pure inputs of the deterministic
    protocol, via the standard qubit relation to entanglement fidelity."""
    return (2.0 * entanglement_fidelity(kind, n_ports) + 1.0) / 3.0


def success_fidelity(kind: ProtocolKind, n_ports: int) -> float:
    """The fidelity of every successful trial, whatever its input: the
    average fidelity of a deterministic kind, 1 for a heralded one, whose
    success teleports perfectly."""
    _check_ports(n_ports)
    return average_fidelity(kind, n_ports) if kind.deterministic else 1.0


def success_probability_exact(kind: ProtocolKind, n_ports: int) -> Fraction:
    """Exact heralding probability, averaged over inputs.

    The optimised resource reaches N/(N+3) (Ishizaka and Hiroshima, PRA 79,
    042306, 2009). For plain singlets it is one minus the failure element's
    weight on the measured state, which is diagonal in the coupled basis:
    each (j, s) sector holds m_N(j) (2s+1) labels with one eigenvalue. The
    weight is summed as one integer numerator over the common denominator
    of the eigenvalues, so only the result is a Fraction.
    """
    if kind.deterministic:
        raise ValueError("the deterministic regime always succeeds")
    _check_ports(n_ports)
    if kind.optimised_resource:
        return Fraction(n_ports, n_ports + 3)
    terms = []
    for j, s in adjacent_pairs(n_ports):
        value = failure_eigenvalue(kind.regime, n_ports, j, s)
        if value:
            terms.append((value, chain_multiplicity(n_ports, j) * (s + 1)))
    common = math.lcm(*(value.denominator for value, _ in terms))
    failed = sum(value.numerator * (common // value.denominator) * labels
                 for value, labels in terms)
    whole = common * 2 ** (n_ports + 1)
    return Fraction(whole - failed, whole)


def success_probability(kind: ProtocolKind, n_ports: int) -> float:
    return float(success_probability_exact(kind, n_ports))


class SchurVariant(Enum):
    """Coupled-basis transform implementations the cost model covers: the
    compiled-exponential route and the sequential-coupling route."""

    BCH = "bch"
    SPIN = "spin"


class ResourceEstimate(NamedTuple):
    kind: ProtocolKind
    n_ports: int
    epsilon: float
    schur_variant: SchurVariant
    two_level_rotations: int
    rounds: int
    ancilla_qubits: int
    schur_cost: float
    total_cost: float
    p_class: str
    n_class: str
    ancilla_class: str


def resource_estimate(kind: ProtocolKind, n_ports: int, epsilon: float = 1e-10,
                      schur_variant: SchurVariant = SchurVariant.BCH) -> ResourceEstimate:
    """Gate-count model with all constants set to one.

    The two-level rotation count is read off the compiled program, not from a
    formula; the coupled-basis transform cost and ancilla footprint follow
    the variant's asymptotic expression.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    program = build_program(kind, n_ports)
    p = program.rotation_count
    n = program.rounds
    log_n = max(1.0, math.log2(n_ports))
    if schur_variant is SchurVariant.BCH:
        schur_cost = n_ports * log_n * max(1.0, math.log2(1.0 / epsilon))
        schur_ancillas = math.ceil(n_ports * log_n)
        ancilla_class = "O(N log N)"
    else:
        schur_cost = n_ports ** 3 * log_n * max(1.0, math.log2(n_ports / epsilon))
        schur_ancillas = math.ceil(max(1.0, math.log2(n_ports + 2)))
        ancilla_class = "O(log N)"
    port_bits = math.ceil(math.log2(program.registers.port_dim)) if program.registers.port_dim > 1 else 1
    # plus one for the block qubit
    ancillas = schur_ancillas + port_bits + 1
    rounds_eff = max(n, 1)
    rotation_cost = p * log_n * max(1.0, math.log2(p * rounds_eff / epsilon))
    total = rounds_eff * (schur_cost + rotation_cost)
    if not math.isfinite(total):
        raise ValueError(f"epsilon {epsilon!r} is too small: the resource cost overflows")
    return ResourceEstimate(kind=kind, n_ports=n_ports, epsilon=epsilon,
                            schur_variant=schur_variant,
                            two_level_rotations=p, rounds=n,
                            ancilla_qubits=ancillas,
                            schur_cost=schur_cost, total_cost=total,
                            p_class="O(N)",
                            n_class="Theta(1)" if kind is ProtocolKind.PPBT_MES
                            else "O(sqrt(N))",
                            ancilla_class=ancilla_class)
