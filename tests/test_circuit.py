import math

import numpy as np
import pytest

from helpers import action_matrix, branch_weights
from portsim.circuit import (
    Block,
    CircuitAction,
    InvalidSubspaceSpec,
    PortCswap,
    Registers,
    RegisterProjector,
    StateVector,
    SubspaceBlocks,
    c_star,
    oaa,
    port_prepare,
)

RNG = np.random.default_rng(np.random.PCG64(20240817))


def random_state(registers: Registers, batch: int = 1) -> StateVector:
    shape = (registers.system_dim, registers.port_dim, registers.r_dim, batch)
    amps = RNG.normal(size=shape) + 1j * RNG.normal(size=shape)
    amps /= np.linalg.norm(amps.reshape(-1, batch), axis=0)
    return StateVector(registers, amps)


# -------------------------------------------------------------- registers ----

def test_flat_index_is_row_major_system_port_r():
    regs = Registers(n_system=2, port_dim=3, r_dim=2)
    assert regs.dim == 24
    assert regs.flat_index(0, 0, 0) == 0
    assert regs.flat_index(0, 0, 1) == 1
    assert regs.flat_index(0, 1, 0) == 2
    assert regs.flat_index(1, 0, 0) == 6
    with pytest.raises(IndexError):
        regs.flat_index(0, 3, 0)


def test_registers_reject_nonpositive_sizes():
    with pytest.raises(ValueError):
        Registers(n_system=0, port_dim=1)


def test_from_system_places_registers_in_basis_states():
    regs = Registers(n_system=1, port_dim=2, r_dim=2)
    state = StateVector.from_system(regs, np.array([0.6, 0.8]), port=1, r=0)
    assert state.batch == 1
    assert state.norm() == pytest.approx(1.0)
    np.testing.assert_allclose(state.amps[:, 1, 0, 0], [0.6, 0.8])
    assert np.abs(state.amps[:, 0]).max() == 0
    two = StateVector.from_system(regs, np.eye(2))
    assert two.batch == 2


# ------------------------------------------------------------------ cswap ----

def test_cswap_branch_swaps_its_port_with_the_last():
    # n_ports=2: branch 0 exchanges system qubits 1 and 2, branch 1 idles
    regs = Registers(n_system=3, port_dim=2, r_dim=1)
    amps = np.zeros((8, 2, 1, 1), dtype=np.complex128)
    amps[0b011, 0] = 1 / math.sqrt(2)  # qubits (0,1,1), port 0
    amps[0b011, 1] = 1 / math.sqrt(2)
    out = PortCswap(2).apply(StateVector(regs, amps))
    assert out.amps[0b101, 0, 0, 0] == pytest.approx(1 / math.sqrt(2))
    assert out.amps[0b011, 0, 0, 0] == 0
    assert out.amps[0b011, 1, 0, 0] == pytest.approx(1 / math.sqrt(2))


def test_cswap_is_an_involution():
    regs = Registers(n_system=4, port_dim=3, r_dim=2)
    state = random_state(regs, batch=3)
    cswap = PortCswap(3)
    twice = cswap.apply_adjoint(cswap.apply(state))
    np.testing.assert_allclose(twice.amps, state.amps, atol=1e-14)


def test_cswap_idle_branches_do_nothing():
    regs = Registers(n_system=3, port_dim=3, r_dim=1)
    state = random_state(regs)
    out = PortCswap(2).apply(state)
    np.testing.assert_allclose(out.amps[:, 2], state.amps[:, 2], atol=0)


def test_cswap_register_validation():
    with pytest.raises(ValueError):
        PortCswap(0)
    regs = Registers(n_system=4, port_dim=2, r_dim=1)
    with pytest.raises(ValueError):
        PortCswap(3).apply(random_state(regs))  # port register too small
    wrong_system = Registers(n_system=2, port_dim=2, r_dim=1)
    with pytest.raises(ValueError):
        PortCswap(2).apply(random_state(wrong_system))


# -------------------------------------------------------- subspace blocks ----

def test_empty_spec_is_the_identity():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    state = random_state(regs)
    op = SubspaceBlocks(regs, [])
    assert op.rotation_count == 0
    out = op.apply(state)
    np.testing.assert_allclose(out.amps, state.amps, atol=0)
    assert out.amps is not state.amps


def test_givens_spec_matches_dense_rotation():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    cos, sin = math.cos(0.3), math.sin(0.3)
    a, b = regs.flat_index(0, 0, 0), regs.flat_index(0, 1, 0)
    matrix = np.array([[cos, -sin], [sin, cos]])
    op = SubspaceBlocks(regs, [Block(key=("givens",), matrix=matrix,
                                     instances=np.array([[a, b]], dtype=np.intp))])
    dense = np.eye(regs.dim, dtype=complex)
    dense[np.ix_([a, b], [a, b])] = matrix
    state = random_state(regs, batch=2)
    np.testing.assert_allclose(op.apply(state).flat(), dense @ state.flat(), atol=1e-14)
    np.testing.assert_allclose(op.apply_adjoint(state).flat(), dense.T @ state.flat(),
                               atol=1e-14)


def test_spec_validation_errors():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)

    def blocks(matrix, instances):
        return SubspaceBlocks(regs, [Block(key=("bad",), matrix=np.asarray(matrix),
                                           instances=np.array(instances, dtype=np.intp))])

    with pytest.raises(InvalidSubspaceSpec):
        blocks([[0.5, 0.0], [0.0, 1.0]], [[0, 1]])  # not unitary
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(2), [[0, regs.dim]])  # index outside the register
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(2), [[0, 1, 2]])  # tuple length differs from the block
    with pytest.raises(InvalidSubspaceSpec):
        blocks(np.eye(3)[:2], [[0, 1]])  # not square


def test_subspace_blocks_reject_non_integer_instances():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    inst = np.array([[0.0, 1.0]])
    with pytest.raises(InvalidSubspaceSpec):
        SubspaceBlocks(regs, [Block(key=("bad",), matrix=np.eye(2), instances=inst)])


def test_subspace_blocks_reject_overlapping_instances():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    inst = np.array([[0, 1], [1, 2]], dtype=np.intp)
    with pytest.raises(InvalidSubspaceSpec):
        SubspaceBlocks(regs, [Block(key=("bad",), matrix=np.eye(2), instances=inst)])


# ------------------------------------------------------------ measurement ----

def test_measurement_of_a_basis_port_is_deterministic():
    regs = Registers(n_system=1, port_dim=3, r_dim=1)
    state = StateVector.from_system(regs, np.array([0.0, 1.0]), port=2)
    np.testing.assert_allclose(branch_weights(state, "port")[:, 0], [0, 0, 1], atol=0)
    np.testing.assert_allclose(branch_weights(state, "r")[:, 0], [1], atol=0)


def test_measurement_of_uniform_superposition():
    regs = Registers(n_system=1, port_dim=4, r_dim=1)
    amps = np.zeros((2, 4, 1, 1), dtype=np.complex128)
    amps[0, :, 0, 0] = 0.5
    weights = branch_weights(StateVector(regs, amps), "port")[:, 0]
    np.testing.assert_allclose(weights, [0.25] * 4, atol=1e-15)


# ---------------------------------------------------------- amplification ----

def _toy_reflection(regs: Registers, amp: float) -> SubspaceBlocks:
    # |port 0> -> amp |port 0> + sqrt(1-amp^2) |port 1>, identity elsewhere
    cos = math.sqrt(1 - amp * amp)
    matrix = np.array([[amp, -cos], [cos, amp]])
    inst = np.array([[regs.flat_index(s, 0, r), regs.flat_index(s, 1, r)]
                     for s in range(regs.system_dim)
                     for r in range(regs.r_dim)], dtype=np.intp)
    return SubspaceBlocks(regs, [Block(key=("toy",), matrix=matrix, instances=inst)])


@pytest.mark.parametrize("n", [1, 3, 5])
def test_oaa_lands_exactly_on_the_flag_subspace(n):
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    u = _toy_reflection(regs, math.sin(math.pi / (2 * n)))
    flag = RegisterProjector(port_values=(0,))
    state = StateVector.from_system(regs, np.array([0.6, 0.8]))
    out = oaa(u, flag, flag, n).apply(state)
    assert out.norm() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(out.amps[:, 0, 0, 0], [0.6, 0.8], atol=1e-10)
    np.testing.assert_allclose(out.amps[:, 1], 0, atol=1e-10)


def test_oaa_with_half_amplitude_needs_three_rounds():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    u = _toy_reflection(regs, 0.5)  # sin(pi/6)
    flag = RegisterProjector(port_values=(0,))
    state = StateVector.from_system(regs, np.array([1.0, 0.0]))
    single = u.apply(state)
    assert branch_weights(single, "port")[0, 0] == pytest.approx(0.25, abs=1e-14)
    amplified = oaa(u, flag, flag, 3).apply(state)
    assert branch_weights(amplified, "port")[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_oaa_rejects_input_outside_the_start_subspace():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    u = _toy_reflection(regs, 0.5)
    flag = RegisterProjector(port_values=(0,))
    amps = np.zeros((2, 2, 1, 2), dtype=np.complex128)
    amps[0, 0, 0, :] = 1.0
    amps[1, 1, 0, 1] = 1e-30  # second column leaks onto port 1
    with pytest.raises(ValueError, match="start subspace"):
        oaa(u, flag, flag, 3).apply(StateVector(regs, amps))


def test_oaa_runs_the_circuit_once():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    calls = []

    class Counted:
        def __init__(self, op):
            self.op = op

        def apply(self, state):
            calls.append("apply")
            return self.op.apply(state)

        def apply_adjoint(self, state):
            calls.append("apply_adjoint")
            return self.op.apply_adjoint(state)

    flag = RegisterProjector(port_values=(0,))
    u = Counted(_toy_reflection(regs, math.sin(math.pi / 10)))
    out = oaa(u, flag, flag, 5).apply(StateVector.from_system(regs, np.array([0.6, 0.8])))
    assert calls == ["apply"]
    np.testing.assert_allclose(out.amps[:, 0, 0, 0], [0.6, 0.8], atol=1e-12)


def test_oaa_rejects_even_round_counts():
    regs = Registers(n_system=1, port_dim=2, r_dim=1)
    u = _toy_reflection(regs, 0.5)
    flag = RegisterProjector(port_values=(0,))
    with pytest.raises(ValueError):
        oaa(u, flag, flag, 2)
    with pytest.raises(ValueError):
        oaa(u, flag, flag, 0)


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
    regs = Registers(n_system=1, port_dim=4, r_dim=2)
    target = np.array([0.5, 0.5, 0.5, 0.5])
    prep = port_prepare(regs, target)
    state = prep.apply(StateVector.from_system(regs, np.array([1.0, 0.0]), r=1))
    np.testing.assert_allclose(state.amps[0, :, 1, 0], target, atol=1e-12)
    assert prep.rotation_count == 3


def test_port_prepare_skips_zero_slots():
    regs = Registers(n_system=1, port_dim=3, r_dim=1)
    target = np.array([0.5, 0.0, math.sqrt(3) / 2])
    prep = port_prepare(regs, target)
    assert prep.rotation_count == 1
    state = prep.apply(StateVector.from_system(regs, np.array([1.0, 0.0])))
    np.testing.assert_allclose(state.amps[0, :, 0, 0], target, atol=1e-12)


def test_port_prepare_is_unitary():
    regs = Registers(n_system=1, port_dim=3, r_dim=1)
    prep = port_prepare(regs, np.array([0.6, 0.0, 0.8]))
    matrix = action_matrix(prep, regs)
    np.testing.assert_allclose(matrix.conj().T @ matrix, np.eye(regs.dim),
                               atol=1e-12)


def test_port_prepare_input_validation():
    regs = Registers(n_system=1, port_dim=3, r_dim=1)
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        port_prepare(regs, np.array([-0.6, 0.0, 0.8]))


# --------------------------------------------------------------- plumbing ----

def test_action_matrix_of_cswap_is_a_permutation():
    regs = Registers(n_system=3, port_dim=2, r_dim=1)
    matrix = action_matrix(PortCswap(2), regs)
    np.testing.assert_allclose(matrix @ matrix, np.eye(regs.dim), atol=0)
    assert set(np.unique(matrix)) == {0.0, 1.0}


def test_circuit_action_composes_and_inverts():
    regs = Registers(n_system=3, port_dim=2, r_dim=2)
    prep = port_prepare(regs, np.array([0.8, 0.6]))
    action = CircuitAction([prep, PortCswap(2)])
    assert action.rotation_count == prep.rotation_count + 2
    state = random_state(regs, batch=4)
    back = action.apply_adjoint(action.apply(state))
    np.testing.assert_allclose(back.amps, state.amps, atol=1e-12)


def test_pipeline_preserves_norm_on_many_states():
    regs = Registers(n_system=3, port_dim=2, r_dim=2)
    action = CircuitAction([port_prepare(regs, np.array([0.8, 0.6])), PortCswap(2)])
    state = random_state(regs, batch=100)
    out = action.apply(state)
    norms = np.linalg.norm(out.flat(), axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
