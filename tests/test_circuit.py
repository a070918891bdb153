import ast
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (action_matrix, branch_weights, checked_class_block_run, class_block_run, flat,
                     slot_input)
from portsim import circuit, protocols
from portsim.circuit import (
    Block,
    CircuitAction,
    ClassBlocks,
    DenseSystem,
    FamilyRoots,
    InvalidSubspaceSpec,
    OaaAction,
    Registers,
    StateVector,
    SubspaceBlocks,
    c_star,
    port_cswap,
    port_prepare,
)
from portsim.povm_oracle import qubit_swap_permutation
from portsim.protocols import ProtocolKind

RNG = np.random.default_rng(np.random.PCG64(20240817))


def random_state(registers: Registers, batch: int = 1) -> StateVector:
    shape = (registers.system_dim, registers.port_dim, registers.r_dim, batch)
    amps = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    amps /= np.linalg.norm(amps.reshape(-1, batch), axis=0)
    return StateVector(registers, amps)


# -------------------------------------------------------------- registers ----

def test_index_is_row_major_system_port_r():
    regs = Registers(n_system=2, port_dim=3)
    assert regs.dim == 24
    assert regs.r_dim == 2
    assert regs.index.shape == (4, 3, 2)
    assert regs.index[0, 0, 0] == 0
    assert regs.index[0, 0, 1] == 1
    assert regs.index[0, 1, 0] == 2
    assert regs.index[1, 0, 0] == 6
    with pytest.raises(IndexError):
        regs.index[0, 3, 0]


@pytest.mark.parametrize("n_system, port_dim", [(1, 1), (2, 3), (4, 5), (7, 8)])
def test_index_is_shared_read_only_and_freshly_equal(n_system, port_dim):
    regs = Registers(n_system=n_system, port_dim=port_dim)
    index = regs.index
    # registers of equal sizes share one index
    assert index is Registers(n_system=n_system, port_dim=port_dim).index
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0, 0] = 1
    fresh = np.arange(regs.dim, dtype=np.intp).reshape(regs.system_dim, port_dim, regs.r_dim)
    assert index.dtype == fresh.dtype and np.array_equal(index, fresh)


def test_registers_always_hold_the_block_qubit():
    with pytest.raises(TypeError):
        Registers(n_system=1, port_dim=2, r_dim=1)


def test_registers_reject_nonpositive_sizes():
    with pytest.raises(ValueError):
        Registers(n_system=0, port_dim=1)


def test_from_system_places_registers_in_basis_states():
    # the input enters the start subspace: port value 0, r = 0
    regs = Registers(n_system=1, port_dim=2)
    state = StateVector.from_system(regs, np.array([0.6, 0.8]))
    assert state.batch == 1
    assert np.linalg.norm(state.amps) == pytest.approx(1.0)
    np.testing.assert_array_equal(state.amps[:, 0, 0, 0], [0.6, 0.8])
    assert np.abs(state.amps[:, 1]).max() == 0
    assert np.abs(state.amps[:, :, 1]).max() == 0
    two = StateVector.from_system(regs, np.eye(2))
    assert two.batch == 2
    np.testing.assert_array_equal(two.amps[:, 0, 0], np.eye(2))
    assert np.abs(two.amps[:, 1]).max() == 0


# ------------------------------------------------------------------ cswap ----

def _swap_perms(n_ports: int) -> list[np.ndarray]:
    # port value i exchanges system qubits i+1 and N, as the compiled circuits do
    return [qubit_swap_permutation(n_ports + 1, i + 1, n_ports) for i in range(n_ports)]


def test_cswap_branch_swaps_its_port_with_the_last():
    # n_ports=2: branch 0 exchanges system qubits 1 and 2, branch 1 idles
    regs = Registers(n_system=3, port_dim=2)
    amps = np.zeros((8, 2, 2, 1), dtype=np.complex128)
    amps[0b011, 0, 0] = 1 / math.sqrt(2)  # qubits (0,1,1), port 0
    amps[0b011, 1, 0] = 1 / math.sqrt(2)
    out = port_cswap(regs, _swap_perms(2)).apply(StateVector(regs, amps))
    assert out.amps[0b101, 0, 0, 0] == pytest.approx(1 / math.sqrt(2))
    assert out.amps[0b011, 0, 0, 0] == 0
    assert out.amps[0b011, 1, 0, 0] == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cswap_is_the_per_branch_qubit_swap(n):
    # one idle port value past the N swapping ones
    regs = Registers(n_system=n + 1, port_dim=n + 1)
    perms = _swap_perms(n)
    op = port_cswap(regs, perms)
    expected = np.zeros((regs.dim, regs.dim))
    index = regs.index
    for i, perm in enumerate(perms):
        for x in range(regs.system_dim):
            for r in range(2):
                expected[index[x, i, r], index[perm[x], i, r]] = 1.0
    idle = index[:, n].ravel()
    expected[idle, idle] = 1.0
    np.testing.assert_allclose(action_matrix(op, regs), expected, atol=0)
    assert op.rotation_count == n


def test_cswap_is_an_involution():
    regs = Registers(n_system=4, port_dim=3)
    state = random_state(regs, batch=3)
    cswap = port_cswap(regs, _swap_perms(3))
    twice = cswap.apply(cswap.apply(state))
    np.testing.assert_allclose(twice.amps, state.amps, atol=1e-14)


def test_cswap_idle_branches_do_nothing():
    regs = Registers(n_system=3, port_dim=3)
    state = random_state(regs)
    out = port_cswap(regs, _swap_perms(2)).apply(state)
    np.testing.assert_allclose(out.amps[:, 2], state.amps[:, 2], atol=0)


def test_cswap_register_validation():
    regs = Registers(n_system=4, port_dim=2)
    with pytest.raises(ValueError):
        port_cswap(regs, _swap_perms(3))  # port register too small
    wrong_system = Registers(n_system=2, port_dim=2)
    with pytest.raises(ValueError):
        port_cswap(wrong_system, _swap_perms(2))


def test_circuit_does_not_import_the_oracle():
    tree = ast.parse(Path(circuit.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "povm_oracle" not in (node.module or "").split(".")
            assert all(alias.name != "povm_oracle" for alias in node.names)


# -------------------------------------------------------- subspace blocks ----

def test_empty_spec_is_the_identity():
    regs = Registers(n_system=1, port_dim=2)
    state = random_state(regs)
    op = SubspaceBlocks(regs, [])
    assert op.rotation_count == 0
    out = op.apply(state)
    np.testing.assert_allclose(out.amps, state.amps, atol=0)
    assert out.amps is not state.amps


def test_givens_spec_matches_dense_rotation():
    regs = Registers(n_system=1, port_dim=2)
    cos, sin = math.cos(0.3), math.sin(0.3)
    a, b = regs.index[0, 0, 0], regs.index[0, 1, 0]
    matrix = np.array([[cos, -sin], [sin, cos]])
    op = SubspaceBlocks(regs, [Block(matrix=matrix,
                                     instances=np.array([[a, b]], dtype=np.intp))])
    dense = np.eye(regs.dim, dtype=complex)
    dense[np.ix_([a, b], [a, b])] = matrix
    state = random_state(regs, batch=2)
    np.testing.assert_allclose(flat(op.apply(state)), dense @ flat(state), atol=1e-14)


def test_spec_validation_errors():
    regs = Registers(n_system=1, port_dim=2)

    def blocks(matrix, instances):
        return SubspaceBlocks(regs, [Block(matrix=np.asarray(matrix),
                                           instances=np.array(instances, dtype=np.intp))])

    with pytest.raises(InvalidSubspaceSpec, match="^blocks: block 0 is not unitary$"):
        blocks([[0.5, 0.0], [0.0, 1.0]], [[0, 1]])
    # a bad block is named by its op and its position
    good = Block(matrix=np.eye(2), instances=np.array([[0, 1]], dtype=np.intp))
    bad = Block(matrix=np.eye(2), instances=np.array([[2, 2]], dtype=np.intp))
    with pytest.raises(InvalidSubspaceSpec, match="^prep: block 1 reuses an index$"):
        SubspaceBlocks(regs, [good, bad], name="prep")
    with pytest.raises(InvalidSubspaceSpec):
        # residual 8e-6 on the diagonal, where a relative tolerance would hide it
        blocks([[1.0 + 4e-6, 0.0], [0.0, 1.0]], [[0, 1]])
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(2), [[0, regs.dim]])  # index outside the register
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(2), [[0, 1, 2]])  # tuple length differs from the block
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(3)[:2], [[0, 1]])  # not square


def test_every_block_counts_one_rotation():
    # a phase rotation this close to the identity is still a gate to implement
    regs = Registers(n_system=1, port_dim=2)
    phase = np.diag([np.exp(1e-6j), 1.0])
    op = SubspaceBlocks(regs, [Block(matrix=phase,
                                     instances=np.array([[0, 1]], dtype=np.intp))])
    assert op.rotation_count == 1


def test_subspace_blocks_reject_non_integer_instances():
    regs = Registers(n_system=1, port_dim=2)
    inst = np.array([[0.0, 1.0]])
    with pytest.raises(InvalidSubspaceSpec):
        SubspaceBlocks(regs, [Block(matrix=np.eye(2), instances=inst)])


def test_subspace_blocks_reject_overlapping_instances():
    regs = Registers(n_system=1, port_dim=2)
    inst = np.array([[0, 1], [1, 2]], dtype=np.intp)
    with pytest.raises(InvalidSubspaceSpec):
        SubspaceBlocks(regs, [Block(matrix=np.eye(2), instances=inst)])


# ------------------------------------------------------------ measurement ----

def test_measurement_of_a_basis_port_is_deterministic():
    regs = Registers(n_system=1, port_dim=3)
    amps = np.zeros((2, 3, 2, 1))
    amps[1, 2, 0, 0] = 1.0
    state = StateVector(regs, amps)
    np.testing.assert_allclose(branch_weights(state, "port")[:, 0], [0, 0, 1], atol=0)
    np.testing.assert_allclose(branch_weights(state, "r")[:, 0], [1, 0], atol=0)


def test_measurement_of_uniform_superposition():
    regs = Registers(n_system=1, port_dim=4)
    amps = np.zeros((2, 4, 2, 1), dtype=np.complex128)
    amps[0, :, 0, 0] = 0.5
    weights = branch_weights(StateVector(regs, amps), "port")[:, 0]
    np.testing.assert_allclose(weights, [0.25] * 4, atol=1e-15)


# ---------------------------------------------------------- amplification ----

def _toy_reflection(regs: Registers, amp: float) -> SubspaceBlocks:
    # |r 0> -> amp |r 0> + sqrt(1-amp^2) |r 1> on every system and port value
    cos = math.sqrt(1 - amp * amp)
    matrix = np.array([[amp, -cos], [cos, amp]])
    inst = regs.index.reshape(-1, 2)
    return SubspaceBlocks(regs, [Block(matrix=matrix, instances=inst)])


@pytest.mark.parametrize("n", [1, 3, 5])
def test_oaa_lands_exactly_on_the_flag_subspace(n):
    regs = Registers(n_system=1, port_dim=2)
    u = _toy_reflection(regs, math.sin(math.pi / (2 * n)))
    state = StateVector.from_system(regs, np.array([0.6, 0.8]))
    out = OaaAction(u, n).apply(state)
    assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(out.amps[:, 0, 0, 0], [0.6, 0.8], atol=1e-10)
    np.testing.assert_allclose(out.amps[:, :, 1], 0, atol=1e-10)
    np.testing.assert_allclose(out.amps[:, 1], 0, atol=1e-10)


def test_oaa_with_half_amplitude_needs_three_rounds():
    regs = Registers(n_system=1, port_dim=2)
    u = _toy_reflection(regs, 0.5)  # sin(pi/6)
    state = StateVector.from_system(regs, np.array([1.0, 0.0]))
    single = u.apply(state)
    assert branch_weights(single, "r")[0, 0] == pytest.approx(0.25, abs=1e-14)
    amplified = OaaAction(u, 3).apply(state)
    assert branch_weights(amplified, "r")[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_oaa_rejects_input_outside_the_start_subspace():
    regs = Registers(n_system=1, port_dim=2)
    u = _toy_reflection(regs, 0.5)
    for port, r in [(1, 0), (0, 1)]:
        amps = np.zeros((2, 2, 2, 2), dtype=np.complex128)
        amps[0, 0, 0, :] = 1.0
        amps[1, port, r, 1] = 1e-30  # second column leaks onto port 1 or onto r = 1
        with pytest.raises(ValueError, match="start subspace"):
            OaaAction(u, 3).apply(StateVector(regs, amps))


def test_oaa_runs_the_circuit_once():
    regs = Registers(n_system=1, port_dim=2)
    calls = []

    class Counted:
        def __init__(self, op):
            self.op = op

        def apply(self, state):
            calls.append("apply")
            return self.op.apply(state)

    u = Counted(_toy_reflection(regs, math.sin(math.pi / 10)))
    state = StateVector.from_system(regs, np.array([0.6, 0.8]))
    out = OaaAction(u, 5).apply(state)
    assert calls == ["apply"]
    np.testing.assert_allclose(out.amps[:, 0, 0, 0], [0.6, 0.8], atol=1e-12)


def test_oaa_rejects_even_round_counts():
    regs = Registers(n_system=1, port_dim=2)
    u = _toy_reflection(regs, 0.5)
    with pytest.raises(ValueError):
        OaaAction(u, 2)
    with pytest.raises(ValueError):
        OaaAction(u, 0)


# ---------------------------------------------------- flagged class blocks ----

# four classes of 1, 3, 2 and 3 rows, each over its own batch columns
SHAPES = ((1, 2), (3, 1), (2, 3), (3, 2))
# per class and port value: pieces (rows, v, a), each of F families of L
# rows sharing one vector v and one amplitude a; row 2 of class 1 on port
# value 0, and classes 2 and 3 on port value 1, are in no family
THETA = 0.3
PIECES = [
    [[(np.array([[0]]), (-1.0,), 0.5)], []],
    [[(np.array([[1, 0]]), (math.cos(THETA), math.sin(THETA)), 0.6)],
     [(np.array([[0], [2]]), (-1.0,), 0.25), (np.array([[1]]), (1.0,), 0.0)]],
    [[(np.array([[1, 0]]), (0.6, -0.8), 0.9)], []],
    [[(np.array([[2, 0, 1]]), (2 / 3, -1 / 3, 2 / 3), 0.7)], []],
]


def _dense_roots(port: int, cls: int) -> np.ndarray:
    """The class's sum over families of a v v^T on one port value, dense."""
    rows = SHAPES[cls][0]
    dense = np.zeros((rows, rows))
    for index, v, a in PIECES[cls][port]:
        for at in index:
            dense[np.ix_(at, at)] += a * np.outer(v, v)
    return dense


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_family_roots_are_the_dense_rank_one_sum(dtype):
    rng = np.random.default_rng(np.random.PCG64(28))
    flat = rng.normal(size=17)
    if dtype is np.complex128:
        flat = flat + 1j * rng.normal(size=17)
    state = ClassBlocks.from_blocks(SHAPES, flat, (1.0, -2.0))
    expected = [[_dense_roots(p, c) @ rows for p, rows in enumerate(block)]
                for c, block in enumerate(state.blocks())]
    roots = FamilyRoots(PIECES, [rows for rows, _ in SHAPES])
    assert roots.apply(state) is state
    assert state.amps.dtype == dtype
    for block, dense in zip(state.blocks(), expected):
        np.testing.assert_allclose(block, dense, rtol=0, atol=1e-14)
    # rows that no family lists read exactly zero
    assert not state.blocks()[1][0, 2].any()
    assert not state.blocks()[2][1].any() and not state.blocks()[3][1].any()


def test_family_roots_reject_overlapping_families():
    v = (1 / math.sqrt(2),) * 2
    overlap = [[[(np.array([[0, 1], [1, 2]]), v, 1.0)]]]
    with pytest.raises(InvalidSubspaceSpec, match="disjoint"):
        FamilyRoots(overlap, [3])
    # families of two pieces overlap as well
    across = [[[(np.array([[0, 1]]), v, 1.0), (np.array([[1]]), (1.0,), 0.5)]]]
    with pytest.raises(InvalidSubspaceSpec, match="disjoint"):
        FamilyRoots(across, [3])
    outside = [[[(np.array([[3]]), (1.0,), 1.0)]]]
    with pytest.raises(InvalidSubspaceSpec, match="disjoint"):
        FamilyRoots(outside, [3])


def test_class_blocks_hold_each_class_over_its_own_columns():
    shapes = ((1, 1), (2, 3), (1, 2))
    flat = np.arange(1.0, 10.0)
    state = ClassBlocks.from_blocks(shapes, flat, (1.0, -2.0))
    assert state.amps.shape == (2, 9) and state.amps.dtype == np.float64
    assert [b.shape for b in state.blocks()] == [(2, 1, 1), (2, 2, 3), (2, 1, 2)]
    np.testing.assert_array_equal(state.blocks()[1][1], -2.0 * flat[1:7].reshape(2, 3))
    assert all(np.shares_memory(b, state.amps) for b in state.blocks())
    assert ClassBlocks.from_blocks(shapes, flat * 1j, (1.0,)).amps.dtype == np.complex128
    with pytest.raises(ValueError, match="9 amplitudes"):
        ClassBlocks(np.zeros((2, 8)), shapes)
    with pytest.raises(ValueError, match="fold"):
        OaaAction(CircuitAction([]), 3).apply(state)
    dense = StateVector.from_system(Registers(n_system=1, port_dim=1), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="fold checks only a flagged run"):
        OaaAction(CircuitAction([]), 3, fold=lambda after: 0.0).apply(dense)


def test_rescale_factor_and_round_count():
    assert c_star(1.0) == (1.0, 1)
    assert c_star(0.5) == (1.0, 3)
    c, n = c_star(1 / math.sqrt(3))
    assert n == 3
    assert c == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    # boundary amplitudes snap to c* = 1 despite floating sin
    assert c_star(math.sin(math.pi / 10)) == (1.0, 5)
    assert c_star(math.sin(math.pi / 14)) == (1.0, 7)
    with pytest.raises(ValueError):
        c_star(0.0)
    with pytest.raises(ValueError):
        c_star(1.2)


# ------------------------------------------------------------ preparation ----

def test_port_prepare_hits_the_target_amplitudes():
    regs = Registers(n_system=1, port_dim=4)
    target = np.array([0.5, 0.5, 0.5, 0.5])
    prep = port_prepare(regs, target)
    amps = np.zeros((2, 4, 2, 1), dtype=np.complex128)
    amps[0, 0, 1, 0] = 1.0  # system |0>, port 0, block qubit r = 1
    state = prep.apply(StateVector(regs, amps))
    np.testing.assert_allclose(state.amps[0, :, 1, 0], target, atol=1e-12)
    assert prep.rotation_count == 3


@pytest.mark.parametrize("target", [[0.5, 0.0, math.sqrt(3) / 2], [0.6, -0.8, 0.0],
                                    [-0.6, 0.0, 0.8], [0.6, 0.8, 0.0]])
def test_port_prepare_rejects_non_positive_amplitudes(target):
    regs = Registers(n_system=1, port_dim=3)
    with pytest.raises(ValueError, match="must be positive"):
        port_prepare(regs, np.array(target))


def test_port_prepare_is_unitary():
    regs = Registers(n_system=1, port_dim=3)
    prep = port_prepare(regs, np.array([0.6, 0.48, 0.64]))
    matrix = action_matrix(prep, regs)
    np.testing.assert_allclose(matrix.conj().T @ matrix, np.eye(regs.dim),
                               atol=1e-12)


def test_port_prepare_input_validation():
    regs = Registers(n_system=1, port_dim=3)
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([-0.6, 0.0, 0.8]))


# --------------------------------------------------------------- plumbing ----

def test_action_matrix_of_cswap_is_a_permutation():
    regs = Registers(n_system=3, port_dim=2)
    matrix = action_matrix(port_cswap(regs, _swap_perms(2)), regs)
    np.testing.assert_allclose(matrix @ matrix, np.eye(regs.dim), atol=0)
    assert set(np.unique(matrix)) == {0.0, 1.0}


def test_circuit_action_composes_in_order():
    regs = Registers(n_system=3, port_dim=2)
    prep, cswap = port_prepare(regs, np.array([0.8, 0.6])), port_cswap(regs, _swap_perms(2))
    action = CircuitAction([prep, cswap])
    assert action.rotation_count == prep.rotation_count + 2
    np.testing.assert_allclose(action_matrix(action, regs),
                               action_matrix(cswap, regs) @ action_matrix(prep, regs),
                               atol=1e-12)


def test_pipeline_preserves_norm_on_many_states():
    regs = Registers(n_system=3, port_dim=2)
    action = CircuitAction([port_prepare(regs, np.array([0.8, 0.6])),
                            port_cswap(regs, _swap_perms(2))])
    state = random_state(regs, batch=100)
    out = action.apply(state)
    norms = np.linalg.norm(flat(out), axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


# ----------------------------------------------------------------- dtypes ----

@pytest.mark.parametrize("system, dtype", [(np.array([0.6, 0.8]), np.float64),
                                           ([1, 0], np.float64),
                                           (np.array([0.6, 0.8j]), np.complex128)])
def test_every_op_keeps_the_input_dtype(system, dtype):
    regs = Registers(n_system=1, port_dim=2)
    q = np.linalg.qr(RNG.normal(size=(2, 2)))[0]
    ops = [DenseSystem(q), port_prepare(regs, np.array([0.8, 0.6])),
           port_cswap(regs, [np.array([1, 0])]), _toy_reflection(regs, 0.5)]
    state = StateVector.from_system(regs, system)
    assert state.amps.dtype == dtype
    for op in ops:
        state = op.apply(state)
        assert state.amps.dtype == dtype
    assert CircuitAction(ops).apply(StateVector.from_system(regs, system)).amps.dtype == dtype
    start = StateVector.from_system(regs, system)
    assert OaaAction(_toy_reflection(regs, 0.5), 3).apply(start).amps.dtype == dtype


def test_a_complex_block_promotes_a_real_state():
    regs = Registers(n_system=1, port_dim=2)
    phase = np.diag([1j, 1.0])
    op = SubspaceBlocks(regs, [Block(matrix=phase,
                                     instances=np.array([[0, 1]], dtype=np.intp))])
    out = op.apply(StateVector.from_system(regs, np.array([0.6, 0.8])))
    assert out.amps.dtype == np.complex128
    assert out.amps[0, 0, 0, 0] == 0.6j


@pytest.mark.parametrize("kind", list(ProtocolKind))
@pytest.mark.parametrize("n", range(1, 5))
def test_a_complex_run_is_the_real_runs_of_its_parts(kind, n):
    # every op acts on each weight class's block alone, so a complex factor
    # per class commutes with the run, here on the joint input; a phase per
    # class keeps the check's orthonormal input orthonormal, so the fold's
    # check stays intact on the complex run
    spec = protocols._SPECS[kind]
    sizes = [len(cls.outputs) * len(cls.columns) for cls in protocols._weight_classes(n)]
    factors = RNG.normal(size=(n + 2, 2)) @ np.array([1.0, 1j])
    x = slot_input(kind, n) * np.repeat(factors, sizes)
    real, imag = (class_block_run(spec, n, part)[1].amps for part in (x.real, x.imag))
    assert real.dtype == imag.dtype == np.float64
    out = class_block_run(spec, n, x)[1].amps
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out, real + 1j * imag, rtol=0, atol=1e-15)
    basis, phases = protocols._class_input(n), np.repeat(factors / np.abs(factors), sizes)
    checked = checked_class_block_run(spec, n, basis * phases).amps
    assert checked.dtype == np.complex128
    np.testing.assert_allclose(checked, checked_class_block_run(spec, n, basis).amps * phases,
                               rtol=0, atol=1e-15)
