import numpy as np
import pytest

from portsim.halfint import HalfInt
from portsim.povm_oracle import (
    MAX_POVM_PORTS,
    MAX_STATE_PORTS,
    SINGLET_PROJECTOR,
    build_povm,
    ensemble_average,
    pgm_povm,
    ppbt_mes_povm,
    ppbt_opt_povm,
    psd_sqrt,
    qubit_swap_permutation,
    signal_state,
    support_pinv_sqrt,
)
from portsim.protocols import ProtocolKind, resource_matrix, singlet_chain
from portsim.schur import coupling_unitary, enumerate_labels, schur_vector, sector_operator
from portsim.spinalg import (Regime, adjacent_pairs, failure_eigenvalue, optimal_scalars,
                             rho_eigenvalue)

REGIMES = [Regime.DPBT, Regime.PPBT_MES, Regime.PPBT_OPT]


def swap_ports(op: np.ndarray, n_qubits: int, a: int, b: int) -> np.ndarray:
    perm = qubit_swap_permutation(n_qubits, a, b)
    return op[np.ix_(perm, perm)]


# -------------------------------------------------------- signal states ----

def test_signal_states_are_unit_trace_low_rank():
    for i in (1, 2, 3):
        sig = signal_state(i, 3)
        assert sig.shape == (16, 16)
        np.testing.assert_allclose(np.trace(sig), 1.0, atol=1e-12)
        assert np.linalg.matrix_rank(sig) == 4
        assert np.linalg.eigvalsh(sig).min() > -1e-12


def test_signal_state_port_relabel_is_a_qubit_swap():
    moved = swap_ports(signal_state(1, 2), 3, 1, 2)
    np.testing.assert_allclose(moved, signal_state(2, 2), atol=1e-14)


def test_signal_state_last_port_is_plain_tensor_factor():
    expect = np.kron(np.eye(2), SINGLET_PROJECTOR) / 2
    np.testing.assert_allclose(signal_state(2, 2), expect, atol=1e-15)


def test_signal_state_rejects_bad_port():
    with pytest.raises(ValueError):
        signal_state(0, 3)
    with pytest.raises(ValueError):
        signal_state(4, 3)


# ------------------------------------------------------ ensemble average ----

def test_ensemble_average_spectrum_two_ports():
    eigs = np.sort(np.linalg.eigvalsh(ensemble_average(2)))
    np.testing.assert_allclose(eigs, [0, 0, 0, 0, 0.25, 0.25, 0.75, 0.75], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ensemble_average_trace_and_null_dimension(n):
    rho = ensemble_average(n)
    np.testing.assert_allclose(np.trace(rho), n, atol=1e-10)
    eigs = np.linalg.eigvalsh(rho)
    assert np.sum(np.abs(eigs) < 1e-10) == n + 2


@pytest.mark.parametrize("n", [2, 3])
def test_ensemble_average_diagonal_in_coupled_basis(n):
    u = coupling_unitary(n + 1)
    conj = u.conj().T @ ensemble_average(n) @ u
    off = conj - np.diag(np.diag(conj))
    assert np.abs(off).max() < 1e-10
    for idx, lab in enumerate(enumerate_labels(n + 1)):
        expect = float(rho_eigenvalue(n, lab.spins[-2], lab.s))
        np.testing.assert_allclose(conj[idx, idx].real, expect, atol=1e-10)


# --------------------------------------------------------- matrix roots ----

def test_psd_sqrt_basics():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    rho = ensemble_average(2)
    root = psd_sqrt(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-10)


def test_psd_sqrt_clips_roundoff_but_rejects_indefinite():
    near = psd_sqrt(np.diag([1.0, -1e-9]))
    np.testing.assert_allclose(near, np.diag([1.0, 0.0]), atol=1e-4)
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_support_pinv_sqrt_inverts_on_support_only():
    np.testing.assert_allclose(support_pinv_sqrt(np.diag([4.0, 0.0])),
                               np.diag([0.5, 0.0]), atol=1e-14)


# ------------------------------------------------------------------ PGM ----

def test_single_port_pgm_is_the_identity():
    povm = pgm_povm(1)
    assert povm.n_outcomes == 1
    np.testing.assert_allclose(povm.element(1), np.eye(4), atol=1e-12)


def test_pgm_completeness_four_ports():
    assert pgm_povm(4).completeness_residual() < 1e-10


def test_pgm_null_space_slack_is_shared_evenly():
    # off the ensemble support each element carries 1/N of the top-spin block
    povm = pgm_povm(3)
    pinv_root = support_pinv_sqrt(ensemble_average(3))
    slack = sector_operator(4, {HalfInt(4): 1 / 3})
    for i in (1, 2, 3):
        support_part = pinv_root @ signal_state(i, 3) @ pinv_root
        np.testing.assert_allclose(povm.element(i) - support_part, slack, atol=1e-10)


# -------------------------------------------------------- heralded POVMs ----

def test_single_port_heralded_povm_is_singlet_or_fail():
    povm = ppbt_mes_povm(1)
    assert povm.n_outcomes == 2
    np.testing.assert_allclose(povm.element(1), SINGLET_PROJECTOR, atol=1e-12)
    np.testing.assert_allclose(povm.element(2), np.eye(4) - SINGLET_PROJECTOR,
                               atol=1e-12)


def test_heralded_failure_elements_are_psd():
    for build in (ppbt_mes_povm, ppbt_opt_povm):
        povm = build(4)
        assert povm.n_outcomes == 5
        assert np.linalg.eigvalsh(povm.element(5)).min() > -1e-10


def test_mes_failure_spectrum_matches_sector_scalars():
    eigs = np.linalg.eigvalsh(ppbt_mes_povm(3).element(4))
    expected = {0.0} | {float(failure_eigenvalue(Regime.PPBT_MES, 3, j, s))
                        for j, s in adjacent_pairs(3)}
    for e in eigs:
        assert min(abs(e - x) for x in expected) < 1e-10


def test_opt_failure_diagonal_matches_sector_scalars():
    fail = ppbt_opt_povm(3).element(4)
    for lab in enumerate_labels(4):
        vec = schur_vector(lab)
        expect = float(failure_eigenvalue(Regime.PPBT_OPT, 3, lab.spins[-2], lab.s))
        np.testing.assert_allclose((vec.conj() @ fail @ vec).real, expect, atol=1e-10)


def test_opt_completeness_three_ports():
    assert ppbt_opt_povm(3).completeness_residual() < 1e-10


# ------------------------------------------------------------ validation ----

@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_validate_passes_for_every_regime(regime, n):
    povm = build_povm(regime, n)
    assert povm.regime == regime
    assert povm.n_outcomes == (n if regime == Regime.DPBT else n + 1)
    assert povm.completeness_residual() <= 1e-10
    assert povm.min_eigenvalue() >= -1e-10


@pytest.mark.parametrize("regime", REGIMES)
def test_port_swap_permutes_outcomes(regime):
    povm = build_povm(regime, 3)
    np.testing.assert_allclose(swap_ports(povm.element(1), 4, 1, 2),
                               povm.element(2), atol=1e-10)
    if regime != Regime.DPBT:
        fail = povm.element(4)
        np.testing.assert_allclose(swap_ports(fail, 4, 2, 3), fail, atol=1e-10)


def test_element_index_is_one_based():
    povm = pgm_povm(2)
    with pytest.raises(ValueError):
        povm.element(0)
    with pytest.raises(ValueError):
        povm.element(3)


# ---------------------------------------------------------- deformation ----

def test_deformation_operator_scales_each_spin_sector():
    # the ppbt-opt resource is R = O C / |O C| for the singlet chain C; with
    # C C^T = 2^-N and |O C|^2 = tr(O^2) / 2^N, O = 2^N |O C| R C^T
    weights = optimal_scalars(3).nu
    labels = enumerate_labels(3)
    norm = (sum(float(weights[lab.s]) for lab in labels) / 8) ** 0.5
    op = resource_matrix(ProtocolKind.PPBT_OPT, 3) @ singlet_chain(3).T * 8 * norm
    for lab in labels:
        vec = schur_vector(lab)
        scale = float(weights[lab.s]) ** 0.5
        np.testing.assert_allclose(op @ vec, scale * vec, atol=1e-12)


# ------------------------------------------------------------- plumbing ----

def test_dense_build_caps():
    with pytest.raises(ValueError):
        build_povm(Regime.DPBT, MAX_POVM_PORTS + 1)
    with pytest.raises(ValueError):
        ensemble_average(MAX_STATE_PORTS + 1)
