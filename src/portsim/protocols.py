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

Sampling never runs a statevector per trial: each protocol is compiled once
into a qubit instrument (`_instrument`), and every trial reads its outcome
weights and fidelity off that instrument, as forms in four real features
of its input. The instrument comes from a branch program, the same builder
on a register holding only the last port branch and the failure branch.
The square-root measurement is port-permutation covariant (Studzinski et
al., Sci. Rep. 7, 10871, 2017): every other port branch is a qubit-swap
image of the last one, so all ports share its outcome form and receiver
tensor. The whole-register program stays for what reads its structure: the
gate-count model and the tests. Seeded Haar inputs come a chunk at a time
(`haar_inputs`), each chunk equal to its slice of one draw of all trials,
so a long run samples in flat memory.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

from .circuit import (Block, CircuitAction, DenseSystem, NumericalInvariantError,
                      OaaAction, Registers, StateVector, SubspaceBlocks, c_star,
                      port_cswap, port_prepare)
from .povm_analytic import EigenSystem, failure_eigensystem, port_eigensystem
from .povm_oracle import qubit_swap_permutation
from .schur import MAX_DENSE_QUBITS, coupling_unitary, sector_operator
from .spinalg import (Regime, adjacent_pairs, chain_multiplicity, failure_eigenvalue,
                      optimal_scalars, spin_values)


class ProtocolKind(Enum):
    """The four protocols: deterministic or heralded-probabilistic, each with
    the plain singlet resource or the optimised one."""

    DPBT_MES = "dpbt"
    DPBT_OPT = "dpbt-opt"
    PPBT_MES = "ppbt-mes"
    PPBT_OPT = "ppbt-opt"

    @property
    def regime(self) -> Regime:
        if self in (ProtocolKind.DPBT_MES, ProtocolKind.DPBT_OPT):
            return Regime.DPBT
        if self is ProtocolKind.PPBT_MES:
            return Regime.PPBT_MES
        return Regime.PPBT_OPT

    @property
    def deterministic(self) -> bool:
        return self.regime is Regime.DPBT

    @property
    def optimised_resource(self) -> bool:
        return self in (ProtocolKind.DPBT_OPT, ProtocolKind.PPBT_OPT)


@dataclass
class NaimarkProgram:
    """A compiled measurement circuit plus its amplification schedule.

    The bare action U sends |psi>|0_port>|0_r> to
    sum_i (a_i / c_star) sqrt(Pi_i)|psi>|i>|0_r> plus junk on r = 1, with
    flagged amplitude sin(pi/2n) for n = `rounds`. `run()` returns the
    flagged (r = 0) part of every program. By the amplification lemma the n
    rounds leave exactly the flagged part divided by sin(pi/2n), applied as
    one checked projection (see `OaaAction`); rounds == 0 means the program
    runs unamplified, and `run()` zeroes the r = 1 level of U's output.

    The input enters on r = 0 of the first len(`entry`) port values, the
    start subspace, with those amplitudes. A whole-register program prepares
    the port register itself (`entry` is (1,)). A branch program holds only
    the last port branch, on port value 0, and the failure branch after it;
    the input enters each with its port amplitude, and `fold` checks the
    amplification precondition of the whole register through the other
    ports' qubit-swap images, so it runs only on the joint input
    resource (x) I_2 (see `_instrument`). A branch program leaves out the
    final transform out of the coupled basis, so its `run()` returns the
    flagged part with the system rows in the coupled basis.
    """

    registers: Registers
    bare: CircuitAction
    rounds: int
    c_star: float
    failure_branches: tuple[int, ...]
    entry: np.ndarray
    fold: Callable[[np.ndarray], np.ndarray] | None = None

    def run(self, system_amps: np.ndarray) -> StateVector:
        state = StateVector.from_system(self.registers, system_amps, self.entry)
        if self.rounds == 0:
            flagged = self.bare.apply(state).amps
            flagged[:, :, 1] = 0
            return StateVector(self.registers, flagged)
        return OaaAction(self.bare, self.rounds, len(self.entry), self.fold).apply(state)

    @property
    def rotation_count(self) -> int:
        return self.bare.rotation_count


def _reflection(amplitude: float) -> np.ndarray:
    if amplitude > 1.0 + 1e-9:
        raise ValueError(f"attach amplitude {amplitude} exceeds 1")
    a = min(amplitude, 1.0)
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


def _attach_op(es: EigenSystem, regs: Registers, branches: range, scale: float,
               name: str) -> SubspaceBlocks:
    """Reflections moving what one element does not keep from the flagged
    part (r = 0) of each listed branch to the block qubit's r = 1 level.

    Each family keeps its last label: the port element's after the family
    rotation, the failure element's single label as it is. The kept labels
    of one (s, j) sector reflect with amplitude sqrt(value) * scale, one
    block per sector; every other label swaps out entirely, in one more
    block when there is any.
    """
    grid = regs.index[:, branches.start:branches.stop]
    dropped = np.ones(regs.system_dim, dtype=bool)
    blocks = []
    for sector in es.sectors:
        kept = sector.families[:, -1]
        dropped[kept] = False
        # rows (label, branch), columns (r = 0, r = 1)
        blocks.append(Block(matrix=_reflection(math.sqrt(float(sector.value)) * scale),
                            instances=grid[kept].reshape(-1, 2)))
    if dropped.any():
        blocks.append(Block(matrix=_reflection(0.0), instances=grid[dropped].reshape(-1, 2)))
    return SubspaceBlocks(regs, blocks, name=name)


@dataclass(frozen=True)
class _Spec:
    """The per-kind data of the one program builder, `_compile`.

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


def _fold_port_images(perms: list[np.ndarray], grams: np.ndarray) -> np.ndarray:
    """The whole register's Gram from a branch register's per-port-value
    Grams: the last port branch's once under each port's swap of the
    receiver columns, plus the failure branch's. A stack of Gram diagonals
    folds to the whole register's diagonal the same way."""
    last = grams[0]
    return sum(last[np.ix_(*[perm] * last.ndim)] for perm in perms) + grams[1:].sum(axis=0)


@lru_cache(maxsize=32)
def _compile(spec: _Spec, n_ports: int, branch: bool = False) -> NaimarkProgram:
    """Build the square-root-measurement circuit of one spec: port
    preparation, port-controlled swap, coupled basis, family rotation,
    amplitude attach read off the closed-form eigensystems, then the basis
    changes undone. Ports past N are failure branches. The swap's qubit
    permutations serve the branch program's fold as well.

    With `branch`, the register holds the last port branch (N-1) alone, plus
    the failure branch: it needs neither the preparation nor the swap, which
    exchanges qubit N with itself on that branch, and its amplification
    check folds in the other ports' images (`_fold_port_images`). It also
    stops before the final transform out of the coupled basis, so its `run`
    returns the flagged part in that basis: every quantity read off it (the
    outcome forms, the receiver tensor, the amplification Grams) sums over
    the system rows, and so does not change under a real orthogonal change
    of their basis. Cached per
    spec, since programs are stateless and every apply is functional. The
    N+1 qubit coupled basis caps N before anything is built."""
    _check_ports(n_ports)
    if n_ports >= MAX_DENSE_QUBITS:
        raise ValueError(f"n_ports must be in 1..{MAX_DENSE_QUBITS - 1} for a compiled "
                         f"program, got {n_ports}")
    amps = spec.amplitudes(n_ports)
    ports = range(1) if branch else range(n_ports)
    # the kept port branches, then the failure branch if any
    regs = Registers(n_ports + 1, len(amps) - n_ports + len(ports))
    rescale, rounds = (1.0, 0) if spec.target is None else c_star(spec.target(n_ports))
    eigen = port_eigensystem(spec.regime, n_ports)
    # scale by the reciprocal: seeded outputs are pinned to these exact floats
    attach = [_attach_op(eigen, regs, ports, spec.attach(n_ports) * (1.0 / rescale),
                         "port-attach")]
    if spec.fail is not None:
        attach.append(_attach_op(failure_eigensystem(spec.regime, n_ports), regs,
                                 range(len(ports), regs.port_dim),
                                 spec.fail * (1.0 / rescale), "failure-attach"))
    rot = _rotation_op(eigen, regs, ports)
    # the real orthogonal blocks and transform are undone by their transposes
    unrot = SubspaceBlocks(regs, [Block(matrix=b.matrix.T, instances=b.instances)
                                  for b in reversed(rot.blocks)], name="family-unrotation")
    couple = coupling_unitary(n_ports + 1)
    ops = [DenseSystem(couple.T), rot, *attach, unrot]
    perms = [qubit_swap_permutation(n_ports + 1, i + 1, n_ports) for i in range(n_ports)]
    if branch:
        entry, fold = amps[n_ports - 1:], partial(_fold_port_images, perms)
    else:
        entry, fold = np.ones(1), None
        cswap = port_cswap(regs, perms)
        ops = [port_prepare(regs, amps), cswap, *ops, DenseSystem(couple), cswap]
    return NaimarkProgram(registers=regs, bare=CircuitAction(ops), rounds=rounds,
                          c_star=rescale, failure_branches=tuple(range(len(ports), regs.port_dim)),
                          entry=entry, fold=fold)


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


def singlet_chain(n_ports: int) -> np.ndarray:
    """Amplitude matrix of N singlet pairs, row index Alice, column Bob."""
    pair = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0)
    return reduce(np.kron, [pair] * n_ports)


def dpbt_opt_deformation(n_ports: int) -> tuple[tuple[int, float], ...]:
    """Spin-sector weights w_j of the deterministic-optimal resource
    O = sum_j w_j 1(j) applied to the singlet chain.

    Closed form of Ishizaka and Hiroshima (PRA 79, 042306, 2009):
    w_j = sin(pi (2j+1)/(N+2)) sqrt(2^(N+2) / ((N+2) m_N(j) (2j+1))),
    normalized so that sum_j m_N(j) (2j+1) w_j^2 / 2^N = 1, a unit resource
    state. It maximizes the entanglement fidelity over the family, reaching
    cos^2(pi/(N+2)).
    """
    return tuple(
        (j, math.sin(math.pi * (j + 1) / (n_ports + 2))
         * math.sqrt(2 ** (n_ports + 2)
                     / ((n_ports + 2) * chain_multiplicity(n_ports, j) * (j + 1))))
        for j in spin_values(n_ports))


def resource_matrix(kind: ProtocolKind, n_ports: int) -> np.ndarray:
    """Amplitude matrix of the kind's resource: the singlet chain, or for the
    optimised kinds the unit-norm image of sum_j w_j 1(j) applied to it
    (w_j = sqrt(nu(j)) for ppbt-opt, `dpbt_opt_deformation` for dpbt-opt)."""
    matrix = singlet_chain(n_ports)
    if not kind.optimised_resource:
        return matrix
    if kind is ProtocolKind.PPBT_OPT:
        weights = {j: math.sqrt(float(nu)) for j, nu in optimal_scalars(n_ports).nu.items()}
    else:
        weights = dict(dpbt_opt_deformation(n_ports))
    matrix = sector_operator(n_ports, weights) @ matrix
    return matrix / np.linalg.norm(matrix)


@dataclass
class TeleportBatch:
    """Vectorized trial record: one sampled outcome per input column plus the
    exact per-trial distributions and the average distribution the counts
    should reproduce when the inputs are Haar samples (read-only, shared by
    every batch of the protocol)."""

    rounds: int
    c_star: float
    outcomes: np.ndarray
    fidelities: np.ndarray
    probabilities: np.ndarray
    expected: np.ndarray


def expected_outcome_distribution(kind: ProtocolKind, n_ports: int) -> np.ndarray:
    """Outcome distribution averaged over uniformly random pure inputs.

    The resource reduction and the branch operators are both covariant under
    port permutations, so the success weight splits evenly across ports.
    """
    _check_ports(n_ports)
    if kind.deterministic:
        return np.full(n_ports, 1.0 / n_ports)
    p = float(success_probability_exact(kind, n_ports))
    dist = np.full(n_ports + 1, p / n_ports)
    dist[n_ports] = 1.0 - p
    return dist


def _gram_sum(rows: np.ndarray) -> np.ndarray:
    """sum_x rows[..., x, :, :]^dagger rows[..., x, :, :], one small matrix
    product per x, batched."""
    return (rows.conj().swapaxes(-1, -2) @ rows).sum(axis=-3)


@lru_cache(maxsize=32)
def _instrument(kind: ProtocolKind, n_ports: int
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The protocol as a qubit instrument, from one branch-program run on the
    joint inputs for chi = |0> and |1> (2 * 2^N columns).

    The circuit is linear in the input chi, so for every input the weight of
    outcome i is chi^dagger G[i] chi, with the failure branches summed into
    one form, and the unnormalized receiver state after port k is
    sum_cd chi_c conj(chi_d) K_k[:, c, :, d]. The square-root measurement is
    port-permutation covariant (Studzinski et al., Sci. Rep. 7, 10871, 2017):
    port branch p of the whole register is the last port branch with system
    qubits p+1 and N swapped and, the resource being symmetric under
    exchanging pairs, Bob's qubits p+1 and N too. So the branch program
    (`_compile` with `branch`) runs the last port and the failure branch
    only, and every port shares the last port's G and K.

    The branch program's `run` returns the flagged part in the coupled
    basis. Both the forms and K sum over the system rows, so they are the
    same in the computational basis; the resource and every op are real, so
    the run and the forms are float64 (see `StateVector.from_system`).

    Returns (ports, failure, receiver), read-only: the (N, 2, 2) port forms,
    views of the last port's; the failure form, None for the deterministic
    kinds; and the (2, 2, 2, 2) receiver tensor K of every port.
    """
    program = _compile(_SPECS[kind], n_ports, branch=True)
    bob_dim = 2 ** n_ports
    joint = np.einsum("ab,cd->acbd", resource_matrix(kind, n_ports), np.eye(2))
    final = program.run(joint.reshape(2 ** (n_ports + 1), bob_dim * 2))
    # the flagged part, r = 0, is all of the output; axes: system, port
    # branch, receiver halves, input basis
    flagged = final.amps[:, :, 0].reshape(-1, program.registers.port_dim, bob_dim, 2)
    per_branch = _gram_sum(flagged.swapaxes(0, 1))
    per_branch.flags.writeable = False
    residual = float(np.abs(n_ports * per_branch[0] + per_branch[1:].sum(axis=0)
                            - np.eye(2)).max())
    if residual > 1e-9:
        raise NumericalInvariantError(
            f"{kind.value} N={n_ports}: outcome weights miss 1 by {residual:.3e}",
            residual)
    # trace out everything but Bob's last qubit, the one port N-1 teleports to
    kept = flagged[:, 0].reshape(flagged.shape[0], -1, 4)
    receiver = _gram_sum(kept.conj()).reshape(2, 2, 2, 2)
    receiver.flags.writeable = False
    failure = per_branch[1] if program.failure_branches else None
    return np.broadcast_to(per_branch[0], (n_ports, 2, 2)), failure, receiver


def _fidelity_forms(receiver: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The receiver tensor K as forms in an input's outcome features
    f = (|chi0|^2, |chi1|^2, Re conj(chi0) chi1, Im conj(chi0) chi1).

    chi chi^dagger = sum_k f_k B_k (`basis`), so the unnormalized receiver
    state K(chi chi^dagger) is linear in f: its trace is the linear form
    t . f, and its overlap with chi chi^dagger the quadratic form f^T Q f.
    Both are real for every f, so the imaginary parts drop. Returns the
    (4, 4) Q and the 4-vector t.
    """
    basis = np.zeros((4, 2, 2), dtype=np.complex128)
    basis[0, 0, 0] = basis[1, 1, 1] = 1.0
    basis[2, 1, 0] = basis[2, 0, 1] = 1.0
    basis[3, 1, 0], basis[3, 0, 1] = 1j, -1j
    quadratic = np.einsum("icjd,kcd,lji->kl", receiver, basis, basis).real
    trace = np.einsum("icid,kcd->k", receiver, basis).real
    return quadratic, trace


@lru_cache(maxsize=32)
def _trial_forms(kind: ProtocolKind, n_ports: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every `teleport_batch` call of one protocol shares, read off
    `_instrument` once: the (outcomes, 4) outcome weight forms and the
    fidelity forms (Q, t) in an input's features, and the expected outcome
    distribution. Read-only.

    chi^dagger G chi = G00 |chi0|^2 + G11 |chi1|^2 + 2 Re(G01 conj(chi0) chi1),
    so row i of the weights holds outcome i's coefficients of the features.
    """
    ports, failure, receiver = _instrument(kind, n_ports)
    gram = ports if failure is None else np.concatenate([ports, failure[None]])
    weights = np.stack([gram[:, 0, 0].real, gram[:, 1, 1].real,
                        2 * gram[:, 0, 1].real, -2 * gram[:, 0, 1].imag], axis=1)
    forms = (weights, *_fidelity_forms(receiver),
             expected_outcome_distribution(kind, n_ports))
    for form in forms:
        form.flags.writeable = False
    return forms


def _combine(coeffs: np.ndarray, features: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * features[k], summed elementwise in a fixed order, so
    the bytes of a seeded run do not depend on a BLAS kernel."""
    return sum(c * row for c, row in zip(coeffs.tolist(), features))


def teleport_batch(kind: ProtocolKind, n_ports: int, input_states: np.ndarray,
                   rng: np.random.Generator | int | None = None) -> TeleportBatch:
    """Run one teleportation per input column through the compiled instrument.

    Outcome weights are linear forms, and fidelities ratios of a quadratic
    to a linear form, in four real features of each input, read off
    `_instrument`; so a trial costs O(N) once the protocol is compiled.
    Outcome sampling draws one uniform per trial and inverts the per-trial
    cumulative distribution under the named generator (PCG64 when given a
    seed).
    """
    chi = np.asarray(input_states, dtype=np.complex128)
    if chi.ndim != 2 or chi.shape[0] != 2:
        raise ValueError("input_states must be a (2, trials) array")
    if chi.shape[1] == 0:
        raise ValueError("need at least one trial column")
    if not np.isfinite(chi).all():
        raise ValueError("every input amplitude must be finite")
    if np.max(np.abs(np.linalg.norm(chi, axis=0) - 1.0)) > 1e-10:
        raise ValueError("every input column must be normalized")
    program = _compile(_SPECS[kind], n_ports, branch=True)
    weights, quadratic, trace, expected = _trial_forms(kind, n_ports)
    # the outcome weights: one real (outcomes x 4) @ (4 x trials) product
    cross = chi[0].conj() * chi[1]
    features = np.stack([np.abs(chi[0]) ** 2, np.abs(chi[1]) ** 2, cross.real, cross.imag])
    probs = weights @ features
    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(np.random.PCG64(rng))
    draws = gen.random(chi.shape[1])
    cumulative = probs / probs.sum(axis=0)
    np.cumsum(cumulative, axis=0, out=cumulative)
    outcomes = np.minimum((cumulative < draws).sum(axis=0), len(weights) - 1)
    success = outcomes < n_ports
    # <chi|K(chi chi^dagger)|chi> / tr K(chi chi^dagger), every port sharing K
    kept = features[:, success]
    fidelities = np.full(chi.shape[1], np.nan)
    fidelities[success] = (sum(row * _combine(q, kept) for row, q in zip(kept, quadratic))
                           / _combine(trace, kept))
    return TeleportBatch(rounds=program.rounds, c_star=program.c_star, outcomes=outcomes + 1,
                         fidelities=fidelities, probabilities=probs, expected=expected)


def haar_inputs(seed: int, trials: int, chunk: int
                ) -> Iterator[tuple[np.ndarray, np.random.Generator]]:
    """Seeded Haar-random qubit inputs for `trials` trials as (2, chunk)
    columns, the last chunk shorter, each with the generator that samples
    its outcomes (`teleport_batch`'s `rng`).

    The chunks equal one draw of all trials from PCG64(seed): the real
    parts, then the imaginary parts, each one `normal(size=(2, trials))`,
    then one uniform per trial. A normal takes a variable number of PCG64
    words (ziggurat rejection), so one pass first draws the 4 * trials
    normals, a chunk at a time, keeps each stream's first chunk, drops the
    rest and saves the state where each stream's second chunk starts. The
    streams are rows 0 and 1 of the real parts and of the imaginary parts;
    the pass ends where the uniforms start.
    """
    gen = np.random.default_rng(np.random.PCG64(seed))
    firsts, cursors = [], []
    for _ in range(4):
        firsts.append(gen.normal(size=min(chunk, trials)))
        if trials > chunk:
            cursors.append(np.random.Generator(np.random.PCG64(seed)))
            cursors[-1].bit_generator.state = gen.bit_generator.state
        for start in range(chunk, trials, chunk):
            gen.normal(size=min(chunk, trials - start))
    for start in range(0, trials, chunk):
        parts = [c.normal(size=min(chunk, trials - start)) for c in cursors] if start \
            else firsts
        amps = np.stack(parts[:2]) + 1j * np.stack(parts[2:])
        yield amps / np.linalg.norm(amps, axis=0), gen


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


@dataclass(frozen=True)
class ResourceEstimate:
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
