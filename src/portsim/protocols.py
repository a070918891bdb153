"""End-to-end teleportation protocols built on the measurement circuits.

One builder (`_compile`) turns every protocol into the same
square-root-measurement circuit: prepare the port register, control-swap the
addressed port behind the last system qubit, enter the coupled basis, rotate
each two-label family so its kept eigenvector sits on one basis slot, attach
the per-sector amplitude to the block qubit (or to a junk port branch), and
undo the basis changes; oblivious amplitude amplification then removes the
junk. A protocol is one row of per-kind data (`_Spec`): port amplitudes,
flagged target amplitude, attach factors and where the junk goes. The
singlet-resource measure-and-hope variant (`ppbt_mes_no_aa`) is one more
row, with mirrored port branches, no block qubit and no amplification.

Sampling never runs a statevector per trial: each protocol is compiled once
into a qubit instrument (`_instrument`), and every trial reads its outcome
weights and receiver state off that instrument.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .circuit import (Block, CircuitAction, DenseSystem, NumericalInvariantError,
                      OaaAction, PortCswap, RegisterProjector, Registers, StateVector,
                      SubspaceBlocks, c_star, port_prepare)
from .halfint import HalfInt
from .povm_analytic import EigenSystem, failure_eigensystem, port_eigensystem
from .schur import coupling_unitary, enumerate_labels, label_index, sector_operator
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
    sum_i (a_i / c_star) sqrt(Pi_i)|psi>|i>|0_r> plus junk orthogonal to the
    good mask, with flagged amplitude sin(pi/2n) for n = `rounds`. By the
    amplification lemma the n rounds leave exactly the flagged part divided
    by sin(pi/2n); `action()` applies that as one checked projection (see
    `OaaAction`). rounds == 0 means the program is meant to run unamplified.
    """

    regime: Regime
    n_ports: int
    registers: Registers
    bare: CircuitAction
    rounds: int
    c_star: float
    start_mask: RegisterProjector
    good_mask: RegisterProjector
    failure_branches: tuple[int, ...]

    def action(self):
        if self.rounds == 0:
            return self.bare
        return OaaAction(self.bare, self.start_mask, self.good_mask, self.rounds)

    def initial_state(self, system_amps: np.ndarray) -> StateVector:
        return StateVector.from_system(self.registers, system_amps)

    def apply(self, state: StateVector) -> StateVector:
        return self.action().apply(state)

    def run(self, system_amps: np.ndarray) -> StateVector:
        return self.apply(self.initial_state(system_amps))

    @property
    def rotation_count(self) -> int:
        return self.bare.rotation_count


def _reflection(amplitude: float) -> np.ndarray:
    if amplitude > 1.0 + 1e-9:
        raise ValueError(f"attach amplitude {amplitude} exceeds 1")
    a = min(amplitude, 1.0)
    b = math.sqrt(max(0.0, 1.0 - a * a))
    return np.array([[a, b], [b, -a]])


def _reflection_blocks(regs: Registers, groups: dict, name: str) -> SubspaceBlocks:
    """groups: key -> (amplitude, list of [kept_index, junk_index] rows)."""
    blocks = []
    for key in sorted(groups):
        amplitude, rows = groups[key]
        blocks.append(Block(key=key, matrix=_reflection(amplitude),
                            instances=np.array(rows, dtype=np.intp)))
    return SubspaceBlocks(regs, blocks, name=name)


def _rotation_op(es: EigenSystem, regs: Registers) -> SubspaceBlocks:
    """Per-family basis rotation taking the kept eigenvector of each family
    to its last label's slot, built from the nonzero entries below the
    maximal-spin sector. One register-level rotation per sector."""
    by_sector: dict[int, tuple[np.ndarray, list]] = {}
    for entry in es.entries:
        s_twice = entry.labels[0].s.twice
        if entry.value_exact == 0 or s_twice >= es.n_ports:
            continue
        c = entry.coeffs
        matrix = np.array([[c[0]]]) if len(c) == 1 else np.array([[c[1], -c[0]], [c[0], c[1]]])
        rows = by_sector.setdefault(s_twice, (matrix, []))[1]
        indices = [label_index(lab) for lab in entry.labels]
        for p in range(es.n_ports):
            for r in range(regs.r_dim):
                rows.append([regs.flat_index(i, p, r) for i in indices])
    blocks = [Block(key=("rot", s_twice), matrix=matrix,
                    instances=np.array(rows, dtype=np.intp))
              for s_twice, (matrix, rows) in sorted(by_sector.items())]
    return SubspaceBlocks(regs, blocks, name="family-rotation")


def _port_attach_op(es: EigenSystem, regs: Registers, scale: float,
                    mirrored: bool) -> SubspaceBlocks:
    """Reflections moving non-kept content off the flagged branch.

    The partner slot of a label on port p is the r=1 level of p for
    block-qubit circuits and the mirrored port branch p+N for unamplified
    ones. Each nonzero entry of the port eigensystem sits, after the family
    rotation, on its last label, which reflects with amplitude
    sqrt(value) * scale; everything else swaps out entirely.
    """
    n = es.n_ports
    kept = {entry.labels[-1]: entry.value_exact
            for entry in es.entries if entry.value_exact != 0}
    groups: dict = {}
    for idx, label in enumerate(enumerate_labels(n + 1)):
        if label in kept:
            amplitude = math.sqrt(float(kept[label])) * scale
            key = ("keep", label.s.twice)
        else:
            amplitude = 0.0
            key = ("drop",)
        entry = groups.setdefault(key, (amplitude, []))
        for p in range(n):
            junk = regs.flat_index(idx, p + n, 0) if mirrored else regs.flat_index(idx, p, 1)
            entry[1].append([regs.flat_index(idx, p, 0), junk])
    return _reflection_blocks(regs, groups, name="port-attach")


def _failure_attach_op(es: EigenSystem, regs: Registers, branch: int,
                       scale: float) -> SubspaceBlocks:
    """Diagonal attach on the idle port branch carrying the failure element:
    each label keeps sqrt(failure eigenvalue) * scale on the block qubit."""
    groups: dict = {}
    for entry in es.entries:
        (label,) = entry.labels
        if entry.value_exact == 0:
            key, amplitude = ("fail-drop",), 0.0
        else:
            key = ("fail", label.s.twice, label.j.twice)
            amplitude = math.sqrt(float(entry.value_exact)) * scale
        idx = label_index(label)
        row = [regs.flat_index(idx, branch, 0), regs.flat_index(idx, branch, 1)]
        groups.setdefault(key, (amplitude, []))[1].append(row)
    return _reflection_blocks(regs, groups, name="failure-attach")


@dataclass(frozen=True)
class _Spec:
    """The per-kind data of the one program builder, `_compile`.

    amplitudes(N) is the port preparation; target(N) the flagged amplitude
    that amplification lifts to one (None: no amplification, c* = 1);
    attach(N) and fail scale the port and failure attach amplitudes before
    the 1/c* rescale (fail None: no failure attach). A mirrored program has
    no block qubit and parks junk on port branches N..2N-1 instead.
    """

    regime: Regime
    amplitudes: Callable[[int], np.ndarray]
    target: Callable[[int], float] | None
    attach: Callable[[int], float]
    fail: float | None = None
    mirrored: bool = False


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
# measure-and-hope: the singlet-resource attach, unamplified
_NO_AA = _Spec(Regime.PPBT_MES,
               amplitudes=lambda n: np.append(np.full(n, 1.0 / math.sqrt(n)), np.zeros(n)),
               target=None, attach=lambda n: math.sqrt(n) / 2.0, mirrored=True)

_START = RegisterProjector(port_values=(0,), r_values=(0,))
_GOOD = RegisterProjector(r_values=(0,))


def _check_ports(n_ports: int) -> None:
    if n_ports < 1:
        raise ValueError(f"n_ports must be >= 1, got {n_ports}")


@lru_cache(maxsize=32)
def _compile(spec: _Spec, n_ports: int) -> NaimarkProgram:
    """Build the square-root-measurement circuit of one spec: port
    preparation, port-controlled swap, coupled basis, family rotation,
    amplitude attach read off the closed-form eigensystems, then the basis
    changes undone. Ports past N are failure branches. Cached per spec,
    since programs are stateless and every apply is functional."""
    _check_ports(n_ports)
    amps = spec.amplitudes(n_ports)
    regs = Registers(n_ports + 1, len(amps), 1 if spec.mirrored else 2)
    rescale, rounds = (1.0, 0) if spec.target is None else c_star(spec.target(n_ports))
    eigen = port_eigensystem(spec.regime, n_ports)
    # scale by the reciprocal: seeded outputs are pinned to these exact floats
    attach = [_port_attach_op(eigen, regs, spec.attach(n_ports) * (1.0 / rescale),
                              spec.mirrored)]
    if spec.fail is not None:
        attach.append(_failure_attach_op(failure_eigensystem(spec.regime, n_ports), regs,
                                         branch=n_ports, scale=spec.fail * (1.0 / rescale)))
    rot = _rotation_op(eigen, regs)
    # the real orthogonal blocks and transform are undone by their transposes
    unrot = SubspaceBlocks(regs, [Block(key=b.key, matrix=b.matrix.T, instances=b.instances)
                                  for b in reversed(rot.blocks)], name="family-unrotation")
    couple = coupling_unitary(n_ports + 1)
    cswap = PortCswap(n_ports)
    bare = CircuitAction([port_prepare(regs, amps), cswap, DenseSystem(couple.T), rot,
                          *attach, unrot, DenseSystem(couple), cswap])
    good = RegisterProjector(port_values=tuple(range(n_ports))) if spec.mirrored else _GOOD
    return NaimarkProgram(regime=spec.regime, n_ports=n_ports, registers=regs, bare=bare,
                          rounds=rounds, c_star=rescale, start_mask=_START,
                          good_mask=good,
                          failure_branches=tuple(range(n_ports, regs.port_dim)))


def ppbt_mes_no_aa(n_ports: int) -> NaimarkProgram:
    """Measure-and-hope variant: success lands on branch i with probability
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


def dpbt_opt_deformation(n_ports: int) -> tuple[tuple[HalfInt, float], ...]:
    """Spin-sector weights w_j of the deterministic-optimal resource
    O = sum_j w_j 1(j) applied to the singlet chain.

    Closed form of Ishizaka and Hiroshima (PRA 79, 042306, 2009):
    w_j = sin(pi (2j+1)/(N+2)) sqrt(2^(N+2) / ((N+2) m_N(j) (2j+1))),
    normalized so that sum_j m_N(j) (2j+1) w_j^2 / 2^N = 1, a unit resource
    state. It maximizes the entanglement fidelity over the family, reaching
    cos^2(pi/(N+2)).
    """
    return tuple(
        (j, math.sin(math.pi * (j.twice + 1) / (n_ports + 2))
         * math.sqrt(2 ** (n_ports + 2)
                     / ((n_ports + 2) * chain_multiplicity(n_ports, j) * (j.twice + 1))))
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
class TeleportRun:
    """Record of a single teleportation: exact outcome distribution plus one
    sampled outcome with the resulting receiver state."""

    kind: ProtocolKind
    n_ports: int
    rounds: int
    c_star: float
    probabilities: np.ndarray
    outcome: int
    success: bool
    fidelity: float | None
    bob_state: np.ndarray | None
    seed: int | None


def teleport(kind: ProtocolKind, n_ports: int, input_state: np.ndarray,
             seed: int | None = None) -> TeleportRun:
    """Run one full teleportation: a one-column `teleport_batch`.

    The port measurement is sampled from the exact branch distribution with
    the named generator (PCG64 under the given seed); the deterministic
    regime reports every outcome as success with the conditional fidelity,
    the heralded ones report outcome N+1 as failure.
    """
    chi = np.asarray(input_state, dtype=np.complex128)
    if chi.shape != (2,):
        raise ValueError("input must be a qubit amplitude pair")
    batch = teleport_batch(kind, n_ports, chi[:, None], rng=seed)
    slot = int(batch.outcomes[0]) - 1
    success = slot < n_ports
    bob = None
    if success:
        _, receiver = _instrument(kind, n_ports)
        bob = _receiver_states(receiver, np.array([slot]), chi[:, None])[0]
    return TeleportRun(kind=kind, n_ports=n_ports, rounds=batch.rounds,
                       c_star=batch.c_star, probabilities=batch.probabilities[:, 0],
                       outcome=slot + 1, success=success,
                       fidelity=float(batch.fidelities[0]) if success else None,
                       bob_state=bob, seed=seed)


@dataclass
class TeleportBatch:
    """Vectorized trial record: one sampled outcome per input column plus the
    exact per-trial distributions and the average distribution the counts
    should reproduce when the inputs are Haar samples."""

    kind: ProtocolKind
    n_ports: int
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


@lru_cache(maxsize=32)
def _instrument(kind: ProtocolKind, n_ports: int) -> tuple[np.ndarray, np.ndarray]:
    """The protocol as a qubit instrument, from one program run on the joint
    inputs for chi = |0> and |1> (2 * 2^N columns).

    The circuit is linear in the input chi, so for every input the weight of
    outcome i is chi^dagger G[i] chi, with the failure branches summed into
    slot N, and the unnormalized receiver state after port k is
    sum_cd chi_c conj(chi_d) K[k][:, c, :, d]. Returns (G, K), read-only.
    """
    program = build_program(kind, n_ports)
    bob_dim = 2 ** n_ports
    joint = np.einsum("ab,cd->acbd", resource_matrix(kind, n_ports), np.eye(2))
    final = program.run(joint.reshape(2 ** (n_ports + 1), bob_dim * 2))
    # axes: system, port branch, block qubit, receiver halves, input basis
    amps = final.amps.reshape(*final.amps.shape[:3], bob_dim, 2)
    per_branch = np.einsum("xprbc,xprbd->pcd", amps.conj(), amps)
    gram = per_branch[:n_ports]
    if program.failure_branches:
        failure = per_branch[list(program.failure_branches)].sum(axis=0)
        gram = np.concatenate([gram, failure[None]])
    residual = float(np.abs(gram.sum(axis=0) - np.eye(2)).max())
    if residual > 1e-9:
        raise NumericalInvariantError(
            f"{kind.value} N={n_ports}: outcome weights miss 1 by {residual:.3e}",
            residual)
    receiver = np.empty((n_ports, 2, 2, 2, 2), dtype=np.complex128)
    for k in range(n_ports):
        # bring receiver qubit k forward and trace out everything else
        kept = amps[:, k, 0].reshape(-1, *([2] * n_ports), 2)
        kept = np.moveaxis(kept, 1 + k, 1).reshape(kept.shape[0], 2, -1, 2)
        receiver[k] = np.einsum("xiyc,xjyd->icjd", kept, kept.conj())
    gram.flags.writeable = False
    receiver.flags.writeable = False
    return gram, receiver


def _receiver_states(receiver: np.ndarray, outcomes: np.ndarray,
                     chi: np.ndarray) -> np.ndarray:
    """Normalized receiver state per column of chi, read off the tensor K of
    that column's port outcome (0-based, each below N)."""
    states = np.empty((chi.shape[1], 2, 2), dtype=np.complex128)
    for k, tensor in enumerate(receiver):
        hit = outcomes == k
        states[hit] = np.einsum("icjd,ct,dt->tij", tensor, chi[:, hit], chi[:, hit].conj())
    states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
    return states


def teleport_batch(kind: ProtocolKind, n_ports: int, input_states: np.ndarray,
                   rng: np.random.Generator | int | None = None) -> TeleportBatch:
    """Run one teleportation per input column through the compiled instrument.

    Outcome weights and receiver states are quadratic forms of each input
    read off `_instrument`, so a trial costs O(N) once the protocol is
    compiled. Outcome sampling draws one uniform per trial and inverts the
    per-trial cumulative distribution under the named generator (PCG64 when
    given a seed).
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
    program = build_program(kind, n_ports)
    gram, receiver = _instrument(kind, n_ports)
    # chi^dagger G chi = G00 |chi0|^2 + G11 |chi1|^2 + 2 Re(G01 conj(chi0) chi1),
    # one real (outcomes x 4) @ (4 x trials) product
    cross = chi[0].conj() * chi[1]
    features = np.stack([np.abs(chi[0]) ** 2, np.abs(chi[1]) ** 2, cross.real, cross.imag])
    weights = np.stack([gram[:, 0, 0].real, gram[:, 1, 1].real,
                        2 * gram[:, 0, 1].real, -2 * gram[:, 0, 1].imag], axis=1)
    probs = weights @ features
    gen = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(np.random.PCG64(rng))
    draws = gen.random(chi.shape[1])
    cumulative = probs / probs.sum(axis=0)
    np.cumsum(cumulative, axis=0, out=cumulative)
    outcomes = np.minimum((cumulative < draws).sum(axis=0), len(gram) - 1)
    success = outcomes < n_ports
    kept = chi[:, success]
    states = _receiver_states(receiver, outcomes[success], kept)
    fidelities = np.full(chi.shape[1], np.nan)
    fidelities[success] = np.einsum("it,tij,jt->t", kept.conj(), states, kept).real
    return TeleportBatch(kind=kind, n_ports=n_ports, rounds=program.rounds,
                         c_star=program.c_star, outcomes=outcomes + 1,
                         fidelities=fidelities, probabilities=probs,
                         expected=expected_outcome_distribution(kind, n_ports))


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
    each (j, s) sector holds m_N(j) (2s+1) labels with one eigenvalue.
    """
    if kind.deterministic:
        raise ValueError("the deterministic regime always succeeds")
    _check_ports(n_ports)
    if kind.optimised_resource:
        return Fraction(n_ports, n_ports + 3)
    total = Fraction(0)
    for j, s in adjacent_pairs(n_ports):
        value = failure_eigenvalue(kind.regime, n_ports, j, s)
        total += value * chain_multiplicity(n_ports, j) * (s.twice + 1)
    return 1 - total / 2 ** (n_ports + 1)


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
    block_bits = 1 if program.registers.r_dim > 1 else 0
    ancillas = schur_ancillas + port_bits + block_bits
    rounds_eff = max(n, 1)
    rotation_cost = p * log_n * max(1.0, math.log2(p * rounds_eff / epsilon))
    total = rounds_eff * (schur_cost + rotation_cost)
    return ResourceEstimate(kind=kind, n_ports=n_ports, epsilon=epsilon,
                            schur_variant=schur_variant,
                            two_level_rotations=p, rounds=n,
                            ancilla_qubits=ancillas,
                            schur_cost=schur_cost, total_cost=total,
                            p_class="O(N)",
                            n_class="Theta(1)" if kind is ProtocolKind.PPBT_MES
                            else "O(sqrt(N))",
                            ancilla_class=ancilla_class)
