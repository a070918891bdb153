"""Test oracles shared by the test modules: a state's flat amplitudes,
dense matrices of circuit actions, branch weights of a state, Haar-random
qubit inputs, spin-1/2 Clebsch-Gordan coefficients, the coupled-basis
labels as sorted tuples and the coupled basis one label at a time, the
eigensystem families grouped label by label, the list of pair sectors,
the port element's table of a pair sector, the Hermitian square root of a
dense measurement element, the whole-register qubit instrument and the
receiver states it leaves, the optimised deterministic resource's sector
weights, the dense resource and joint input, in the computational and in
the coupled basis, and the joint input's closed form as weight-class
blocks, the whole register's unchecked amplified run and its Gram
difference, the amplification check's start state and run on flagged
class blocks, with and without its check, the qubit instrument read off
that run on the joint input, its element roots as dense matrices and its
qubit instrument read off them in the dense layout, and teleport's trial
rows rendered one row at a time."""

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

from portsim import protocols
from portsim.circuit import ClassBlocks, OaaAction, Registers, StateVector, c_star
from portsim.cli import _fmt
from portsim.povm_analytic import failure_eigensystem, port_eigensystem
from portsim.povm_oracle import PSD_TOLERANCE, SUPPORT_RTOL
from portsim.protocols import ProtocolKind, build_program
from portsim.schur import (coupling_entries, coupling_level, coupling_unitary, enumerate_labels,
                           sector_operator)
from portsim.spinalg import (Regime, chain_multiplicity, failure_eigenvalue, optimal_scalars,
                             spin_values)


def flat(state: StateVector) -> np.ndarray:
    """(dim, batch) view of the amplitudes in register order (system, port, r)."""
    return state.amps.reshape(state.registers.dim, state.batch)


def action_matrix(action, registers: Registers) -> np.ndarray:
    """Dense matrix of an action via one batched application to the full
    computational basis; dimension grows as 4^N."""
    dim = registers.dim
    basis = np.eye(dim, dtype=np.complex128)
    amps = basis.reshape(registers.system_dim, registers.port_dim, registers.r_dim, dim)
    return flat(action.apply(StateVector(registers, amps)))


def branch_weights(state: StateVector, register: str) -> np.ndarray:
    """Probability weight per "port" or "r" register value and batch column."""
    density = np.abs(state.amps) ** 2
    return density.sum(axis=(0, 2) if register == "port" else (0, 1))


def haar_qubit(rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return amps / np.linalg.norm(amps)


def valid_z_component(s: int, m: int) -> bool:
    """Whether m is an admissible z-projection for total spin s."""
    return abs(m) <= s and (m - s) % 2 == 0


def clebsch_gordan(j1: int, m1: int, m2: int, j: int, m: int) -> float:
    """Clebsch-Gordan coefficient <j1 m1; 1/2 m2 | j m> of coupling one qubit
    to spin j1, every spin a twice-value int.

    Returns 0.0 when a selection rule (m = m1 + m2, triangle bound, range or
    parity of any z-component) is violated.
    """
    if m != m1 + m2 or abs(j - j1) != 1:
        return 0.0
    if not (valid_z_component(j1, m1) and valid_z_component(1, m2) and valid_z_component(j, m)):
        return 0.0
    # ratio m / (j1 + 1/2), exact
    x = Fraction(m, j1 + 1)
    if m2 == 1:
        if j == j1 + 1:
            return math.sqrt((1 + x) / 2)
        return -math.sqrt((1 - x) / 2)
    if j == j1 + 1:
        return math.sqrt((1 - x) / 2)
    return math.sqrt((1 + x) / 2)


@lru_cache(maxsize=None)
def label_oracle(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Oracle for `schur.enumerate_labels`: every chain of running spins grown
    one qubit at a time, each with its m values, sorted by total spin
    descending, then the intermediate chain ascending, then m descending.
    Each label is a (spins, m) pair."""
    chains = [(1,)]
    for _ in range(n - 1):
        chains = [c + (k,) for c in chains for k in (c[-1] - 1, c[-1] + 1) if k >= 0]
    labels = [(c, m) for c in chains for m in range(c[-1], -c[-1] - 2, -2)]
    return tuple(sorted(labels, key=lambda lab: (-lab[0][-1], lab[0][1:-1], -lab[1])))


def coupling_oracle(n: int) -> np.ndarray:
    """Oracle for `schur.coupling_unitary`: the amplitude of label L on
    bitstring x is the product of one `clebsch_gordan` factor per coupling
    step, the running z-spin read off x's leading bits (qubit 1 most
    significant, |0> carrying +1/2)."""
    out = np.zeros((2 ** n, 2 ** n))
    for col, (spins, m) in enumerate(label_oracle(n)):
        for x in range(2 ** n):
            zs = [1 - 2 * ((x >> (n - 1 - t)) & 1) for t in range(n)]
            if sum(zs) != m:
                continue
            out[x, col] = math.prod(
                clebsch_gordan(spins[t - 1], sum(zs[:t]), zs[t], spins[t], sum(zs[:t + 1]))
                for t in range(1, n))
    return out


def port_families(regime: Regime, n_ports: int) -> list[tuple[int, int, list[list[int]]]]:
    """Oracle for the families of `povm_analytic.port_eigensystem`, as
    (s, j, families) per sector: the labels of pre-pair spin s < N grouped
    by (chain before the pair, m) in first-label order, one sector per s
    ascending, and under dpbt the maximal-spin labels one at a time."""
    groups: dict[int, dict[tuple, list[int]]] = {}
    maximal = []
    for idx, (spins, m) in enumerate(label_oracle(n_ports + 1)):
        s = spins[-1]
        k_pair = spins[-3] if len(spins) >= 3 else 0
        if s < n_ports and k_pair == s:
            groups.setdefault(s, {}).setdefault((spins[:-2], m), []).append(idx)
        elif regime is Regime.DPBT and s == n_ports + 1:
            maximal.append([idx])
    out = [(s, s + 1, list(rows.values())) for s, rows in sorted(groups.items())]
    return out + [(n_ports + 1, n_ports, maximal)] if maximal else out


def failure_families(regime: Regime, n_ports: int) -> list[tuple[int, int, list[list[int]]]]:
    """Oracle for the families of `povm_analytic.failure_eigensystem`, as
    (s, j, families) per sector: every label alone, grouped by (s, j)
    ascending, where the failure eigenvalue is nonzero."""
    groups: dict[tuple[int, int], list[list[int]]] = {}
    for idx, (spins, _) in enumerate(label_oracle(n_ports + 1)):
        groups.setdefault((spins[-1], spins[-2]), []).append([idx])
    return [(s, j, rows) for (s, j), rows in sorted(groups.items())
            if failure_eigenvalue(regime, n_ports, j, s)]


def pair_sectors(n_ports: int) -> tuple[int, ...]:
    """Total spins s <= (N-1)/2 of the N+1 qubit system, ascending: the
    sectors where the port measurement element has its rank-one piece."""
    start = 0 if (n_ports + 1) % 2 == 0 else 1
    return tuple(range(start, n_ports, 2))


def kept_sector(regime, n_ports: int, s: int):
    """The port eigensystem's sector on the pair sector s: the family
    eigenvector the compile rotates onto a slot."""
    return next(sector for sector in port_eigensystem(regime, n_ports).sectors
                if sector.s == s)


def psd_sqrt(op: np.ndarray) -> np.ndarray:
    """Hermitian square root; eigenvalues below -PSD_TOLERANCE raise, small
    negatives from roundoff are clipped to zero.

    Eigenvalues under the relative support cutoff are zeroed outright: the
    square root amplifies ~1e-15 solver noise on a true null direction to
    ~3e-8, which would dominate every downstream comparison.
    """
    w, v = np.linalg.eigh(op)
    if w.min() < -PSD_TOLERANCE:
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    if w.max() > 0.0:
        w[w < SUPPORT_RTOL * w.max()] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


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


def resource_matrix(kind, n_ports: int) -> np.ndarray:
    """Oracle for the resource `slot_input` reads in closed form:
    the amplitude matrix of the singlet chain, or for the optimised kinds
    the unit-norm image of sum_j w_j 1(j) applied to it (w_j = sqrt(nu(j))
    for ppbt-opt, `dpbt_opt_deformation` for dpbt-opt), built densely."""
    matrix = singlet_chain(n_ports)
    if not kind.optimised_resource:
        return matrix
    if kind is ProtocolKind.PPBT_OPT:
        weights = {j: math.sqrt(float(nu)) for j, nu in optimal_scalars(n_ports).nu.items()}
    else:
        weights = dict(dpbt_opt_deformation(n_ports))
    matrix = sector_operator(n_ports, weights) @ matrix
    return matrix / np.linalg.norm(matrix)


def joint_input(kind, n_ports: int) -> np.ndarray:
    """The dense joint input resource (x) I_2 for chi = |0> and |1>: rows
    (Alice's N qubits, chi), columns (Bob's N qubits, d), 2^(N+1) each."""
    joint = np.einsum("ab,cd->acbd", resource_matrix(kind, n_ports), np.eye(2))
    return joint.reshape(2 ** (n_ports + 1), 2 ** (n_ports + 1))


def coupled_input(kind, n_ports: int) -> np.ndarray:
    """Oracle for `slot_input`: `joint_input` with its rows in
    the coupled basis of the N+1 system qubits, U_{N+1}^T times it."""
    return coupling_unitary(n_ports + 1).T @ joint_input(kind, n_ports)


def slot_input(kind, n_ports: int) -> np.ndarray:
    """The joint input resource (x) I_2 in the coupled basis of the N+1
    system qubits, as weight-class blocks (`protocols._weight_classes`):
    class w's (C(N+1, w), C(N+1, w)) block holds rows `outputs` and columns
    `columns`, every entry of the dense product outside them being zero,
    and the blocks follow one another flat, C(2N+2, N+1) floats in all. A
    gather, with no matrix product.

    The resource is R = O C / |O C|: C = eps^(x)N / 2^(N/2) is the singlet
    chain, eps = [[0, 1], [-1, 0]], and O = sum_s w_s P_s is diagonal in the
    coupled basis, where eps^(x)N is a signed m-reversal (u eps u^T = eps
    for u in SU(2)). So row L of U_N^T R is w_L (-1)^((s-m)/2) / sqrt(sum
    w_L^2) times row L + m (same chain, opposite m) of U_N^T, and entry
    (X, (b, d)) is coeff[d, X] times that row at prev[d, X], column b, by
    one Clebsch-Gordan level (`coupling_level`). Those entries of U_N are
    read off U_{N-1} (`coupling_entries`), so no N qubit transform is
    built. The norm is an exact sum (`math.fsum`), correctly rounded in any
    summation order."""
    labels = enumerate_labels(n_ports).astype(np.int64)
    spin, m = labels[:, -2], labels[:, -1]
    if kind is ProtocolKind.PPBT_OPT:
        weights = {j: math.sqrt(float(nu)) for j, nu in optimal_scalars(n_ports).nu.items()}
    elif kind is ProtocolKind.DPBT_OPT:
        weights = dict(dpbt_opt_deformation(n_ports))
    else:
        weights = dict.fromkeys(spin_values(n_ports), 1.0)
    scale = np.array([weights[s] for s in spin.tolist()])
    norm = math.sqrt(math.fsum(scale ** 2))
    # a prev of -1 (the piece leaves the parent chain) reads a zero weight
    scale = np.append(scale * (-1.0) ** ((spin - m) // 2) / norm, 0.0)
    reverse = np.append(np.arange(len(m)) + m, 0)
    prev, coeff = coupling_level(n_ports + 1)
    classes = protocols._weight_classes(n_ports)
    blocks = np.empty(sum(len(c.outputs) * len(c.columns) for c in classes))
    start = 0
    for cls in classes:
        x, b, d = cls.outputs[:, None], cls.columns >> 1, cls.columns & 1
        row = prev[d, x]
        block = blocks[start:start + row.size].reshape(row.shape)
        np.multiply(coeff[d, x] * scale[row], coupling_entries(n_ports, b, reverse[row]),
                    out=block)
        start += row.size
    return blocks


def register_fold(program, system_amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for `protocols._fold_classes`: an amplified whole-register
    program's run without its check, `bare` once on the start state and the
    flagged part divided by sin(pi/2n), as the Gram difference G_out - G_in
    over its columns, and the diagonal of G_in."""
    state = StateVector.from_system(program.registers, system_amps)
    out = program.bare.apply(state).amps[:, :, 0] / math.sin(math.pi / (2 * program.rounds))
    before, after = (rows.reshape(-1, state.batch) for rows in (state.amps[:, :, 0], out))
    gram = before.conj().T @ before
    return after.conj().T @ after - gram, gram.diagonal().real


def class_block_start(spec, n_ports: int, blocks: np.ndarray) -> ClassBlocks:
    """The amplification check's start state, as
    `protocols._check_amplification` builds it, on flat class blocks: each
    weight class's block times the port preparation's amplitude on the last
    port branch and on the failure branch."""
    shapes = tuple((len(cls.outputs), len(cls.columns))
                   for cls in protocols._weight_classes(n_ports))
    return ClassBlocks.from_blocks(shapes, blocks, spec.amplitudes(n_ports)[n_ports - 1:])


def checked_class_block_run(spec, n_ports: int, blocks: np.ndarray) -> ClassBlocks:
    """The amplification check's run, as `protocols._check_amplification`
    makes it, on flat class blocks: the element roots
    (`protocols._element_roots`) on the start state, amplified, with the
    whole register's precondition checked through the class fold
    (`protocols._fold_classes`), which holds the blocks to an orthonormal
    input such as `protocols._class_input`."""
    _, rounds = c_star(spec.target(n_ports))
    fold = partial(protocols._fold_classes, protocols._weight_classes(n_ports))
    return OaaAction(protocols._element_roots(spec, n_ports), rounds, fold=fold).apply(
        class_block_start(spec, n_ports, blocks))


def class_block_run(spec, n_ports: int, blocks: np.ndarray) -> tuple[ClassBlocks, ClassBlocks]:
    """The amplification check's run on flat class blocks without its
    check: the element roots (`protocols._element_roots`) once on a copy of
    the start state, divided by sin(pi/2n). Returns the start state and
    that output."""
    _, rounds = c_star(spec.target(n_ports))
    before = class_block_start(spec, n_ports, blocks)
    after = protocols._element_roots(spec, n_ports).apply(
        ClassBlocks(before.amps.copy(), before.shapes))
    after.amps /= math.sin(math.pi / (2 * rounds))
    return before, after


def class_block_instrument(kind, n_ports: int, blocks: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The qubit instrument read off the run on class blocks
    (`class_block_run`) of the joint input, by default the kind's own
    (`slot_input`), class by class: each class's Gram over its rows, summed
    over the column pairs that share Bob's first N-1 qubits, lands on the
    entry of their two low bits q = 2i + c, Bob's last qubit i and the chi'
    bit c. Returns (per_branch, receiver) as `branch_instrument` does,
    without a 2^(N+1) x 2^(N+1) matrix."""
    if blocks is None:
        blocks = slot_input(kind, n_ports)
    _, flagged = class_block_run(protocols._SPECS[kind], n_ports, blocks)
    grams = np.zeros((len(flagged.amps), 4, 4))
    for cls, block in zip(protocols._weight_classes(n_ports), flagged.blocks()):
        low, high = np.eye(4)[cls.columns & 3], cls.columns >> 2
        pairs = block.transpose(0, 2, 1) @ block * (high[:, None] == high)
        grams += low.T @ pairs @ low
    per_branch = np.einsum("picid->pcd", grams.reshape(-1, 2, 2, 2, 2))
    return per_branch, grams[0].reshape(2, 2, 2, 2)


def root_matrices(spec, n_ports: int) -> list[np.ndarray]:
    """Oracle for `protocols._element_roots`: the last port's element root
    and, for a spec with a failure attach, the failure element's, each a
    dense 2^(N+1) x 2^(N+1) matrix in the coupled basis, the sum over every
    sector's families of a v v^T at the family's labels, v the sector's
    coefficients and a its attach amplitude, sqrt(value) times the spec's
    attach (or fail) scale over c*."""
    rescale, _ = c_star(spec.target(n_ports))
    tables = [(port_eigensystem(spec.regime, n_ports), spec.attach(n_ports))]
    if spec.fail is not None:
        tables.append((failure_eigensystem(spec.regime, n_ports), spec.fail))
    roots = []
    for es, scale in tables:
        root = np.zeros((2 ** (n_ports + 1),) * 2)
        for sector in es.sectors:
            a = protocols._attach_amplitude(math.sqrt(float(sector.value)) * scale / rescale)
            v = np.asarray(sector.coeffs)
            fam = sector.families
            root[fam[:, :, None], fam[:, None, :]] = a * np.outer(v, v)
        roots.append(root)
    return roots


def branch_instrument(kind, n_ports: int, computational: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the closed form that `teleport` samples: the element roots
    as dense matrices (`root_matrices`), times the port preparation's
    amplitude on the last port branch and on the failure branch, applied to
    every column of the dense joint input whole and divided by sin(pi/2n),
    in the coupled basis of the N+1 system qubits or, with `computational`,
    in the computational basis, the roots conjugated by U_{N+1}.

    Returns (per_branch, receiver): the (branches, 2, 2) outcome form of
    each branch and the (2, 2, 2, 2) receiver tensor of the last port.
    """
    spec = protocols._SPECS[kind]
    _, rounds = c_star(spec.target(n_ports))
    roots = root_matrices(spec, n_ports)
    entry = spec.amplitudes(n_ports)[n_ports - 1:]
    if computational:
        couple = coupling_unitary(n_ports + 1)
        roots = [couple @ root @ couple.T for root in roots]
        inputs = joint_input(kind, n_ports)
    else:
        inputs = coupled_input(kind, n_ports)
    flagged = np.stack([amp * (root @ inputs) for amp, root in zip(entry, roots)])
    flagged /= math.sin(math.pi / (2 * rounds))
    # axes: branch, system row, Bob's qubits, chi' bit
    amps = flagged.reshape(*flagged.shape[:2], 2 ** n_ports, 2)
    per_branch = np.einsum("pxbc,pxbd->pcd", amps.conj(), amps)
    kept = amps[0].reshape(amps.shape[1], -1, 2, 2)
    return per_branch, np.einsum("xyic,xyjd->icjd", kept, kept.conj())


def whole_register_instrument(kind, n_ports: int, dtype=np.float64
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the closed form that `teleport` samples: the
    whole-register program, every port branch compiled and run, on the joint
    inputs for chi = |0> and |1>, cast to `dtype` (complex128 runs every op
    on complex amplitudes).

    Returns (gram, receiver): the (N or N+1, 2, 2) outcome forms, failure
    branches summed into slot N, and the (N, 2, 2, 2, 2) receiver tensors
    K_k of every port k, each read off its own branch.
    """
    program = build_program(kind, n_ports)
    bob_dim = 2 ** n_ports
    final = program.run(joint_input(kind, n_ports).astype(dtype))
    # axes: system, port branch, block qubit, receiver halves, input basis
    amps = final.amps.reshape(*final.amps.shape[:3], bob_dim, 2)
    per_branch = np.einsum("xprbc,xprbd->pcd", amps.conj(), amps)
    gram = per_branch[:n_ports]
    if program.failure_branches:
        failure = per_branch[list(program.failure_branches)].sum(axis=0)
        gram = np.concatenate([gram, failure[None]])
    receiver = np.empty((n_ports, 2, 2, 2, 2), dtype=amps.dtype)
    for k in range(n_ports):
        # bring receiver qubit k forward and trace out everything else
        kept = amps[:, k, 0].reshape(-1, *([2] * n_ports), 2)
        kept = np.moveaxis(kept, 1 + k, 1).reshape(kept.shape[0], 2, -1, 2)
        receiver[k] = np.einsum("xiyc,xjyd->icjd", kept, kept.conj())
    return gram, receiver


def receiver_states(receiver: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Oracle for the fidelities of `protocols.teleport_batch`: the normalized
    2x2 receiver state K(chi chi^dagger) / tr K(chi chi^dagger) per column of
    chi, from the receiver tensor K that every port outcome shares."""
    states = np.einsum("icjd,ct,dt->tij", receiver, chi, chi.conj())
    states /= np.trace(states, axis1=1, axis2=2)[:, None, None]
    return states


def one_shot_draws(seed: int, trials: int) -> np.ndarray:
    """Oracle for the uniforms of `protocols.teleport_batch` and of the
    `teleport` command: all `trials` of them in one draw from the seeded
    PCG64 generator."""
    return np.random.Generator(np.random.PCG64(seed)).random(trials)


def stream_outcomes(expected: np.ndarray, seed: int, trials: int) -> np.ndarray:
    """Oracle for the sampled outcomes, 1-based: the number of cumulative
    weights of `expected` below each of the one-shot uniforms
    (`one_shot_draws`), the last outcome taking any rounding gap at 1."""
    draws = one_shot_draws(seed, trials)
    return np.minimum(np.searchsorted(np.cumsum(expected), draws), len(expected) - 1) + 1


def teleport_rows(fmt: str, outcomes: np.ndarray, fidelities: np.ndarray,
                  n_ports: int) -> str:
    """Oracle for `cli._row_blocks`: the trial rows of `teleport` in `fmt`,
    each rendered on its own; JSON records as json.dumps(indent=2) writes
    them two levels deep, each led by its list separator."""
    text = repr if fmt == "json" else _fmt
    rows = zip(range(1, len(outcomes) + 1), outcomes.tolist(),
               (outcomes <= n_ports).tolist(), fidelities.tolist())
    if fmt == "csv":
        return "".join(f"{i},{o},true,{text(f)}\r\n" if ok else f"{i},{o},false,\r\n"
                       for i, o, ok, f in rows)
    if fmt == "human":
        return "".join(f"{i:>6} {o:>7} ok      {text(f)}\n" if ok
                       else f"{i:>6} {o:>7} fail    -\n" for i, o, ok, f in rows)
    records, sep = [], "\n"
    for i, o, ok, f in rows:
        records.append(f'{sep}    {{\n      "trial": {i},\n      "outcome": {o},\n'
                       f'      "success": {"true" if ok else "false"},\n'
                       f'      "fidelity": {text(f) if ok else "null"}\n    }}')
        sep = ",\n"
    return "".join(records)
