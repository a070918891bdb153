import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (action_matrix, branch_instrument, branch_weights, checked_class_block_run,
                     class_block_instrument, class_block_run, coupled_input, dpbt_opt_deformation,
                     flat, haar_qubit, one_shot_draws, psd_sqrt, receiver_states,
                     register_fold, resource_matrix, root_matrices, singlet_chain, slot_input,
                     stream_outcomes, whole_register_instrument)
from portsim import protocols, schur
from portsim.circuit import FamilyRoots, StateVector
from portsim.pcg64 import Pcg64
from portsim.povm_analytic import failure_eigensystem, port_eigensystem
from portsim.povm_oracle import build_povm
from portsim.protocols import (
    NumericalInvariantError,
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    build_program,
    entanglement_fidelity,
    expected_outcome_distribution,
    ppbt_mes_no_aa,
    resource_estimate,
    success_fidelity,
    success_probability,
    success_probability_exact,
    teleport_batch,
)
from portsim.schur import coupling_unitary, enumerate_labels, sector_operator
from portsim.spinalg import (Regime, adjacent_pairs, chain_multiplicity, failure_eigenvalue,
                             optimal_scalars, spin_values)

KINDS = list(ProtocolKind)
HERALDED = [ProtocolKind.PPBT_MES, ProtocolKind.PPBT_OPT]
DETERMINISTIC = [ProtocolKind.DPBT_MES, ProtocolKind.DPBT_OPT]

# regression anchors; every value recomputable from the exact scalars
ROUNDS = {
    ProtocolKind.DPBT_MES: {1: 1, 2: 3, 3: 3, 4: 3, 5: 5, 6: 5},
    ProtocolKind.DPBT_OPT: {1: 1, 2: 3, 3: 3, 4: 3, 5: 5, 6: 5},
    ProtocolKind.PPBT_MES: {n: 5 for n in range(1, 7)},
    ProtocolKind.PPBT_OPT: {1: 3, 2: 3, 3: 3, 4: 5, 5: 5, 6: 5},
}
FIDELITY_MES = {1: 0.5, 2: 0.6443375672974065, 3: 0.75,
                4: 0.8218925962420549, 5: 0.8692403084563144,
                6: 0.9001482745181159}
FIDELITY_OPT = {1: 0.5, 2: 2 / 3, 3: 0.7696723314583158,
                4: 5 / 6, 5: 0.8744966006195779, 6: 0.9023689270621825}
SUCCESS_MES = {1: Fraction(1, 4), 2: Fraction(1, 3), 3: Fraction(13, 32),
               4: Fraction(9, 20), 5: Fraction(47, 96), 6: Fraction(29, 56)}
# odd N pin the single-label s = 0 rotation block
ROTATIONS = {
    ProtocolKind.DPBT_MES: {1: 6, 2: 10, 3: 16, 4: 19, 5: 25, 6: 28, 7: 34, 8: 37},
    ProtocolKind.DPBT_OPT: {1: 6, 2: 10, 3: 16, 4: 19, 5: 25, 6: 28, 7: 34, 8: 37},
    ProtocolKind.PPBT_MES: {1: 9, 2: 13, 3: 19, 4: 23, 5: 29, 6: 33, 7: 39, 8: 43},
    ProtocolKind.PPBT_OPT: {1: 9, 2: 12, 3: 18, 4: 21, 5: 27, 6: 30, 7: 36, 8: 39},
}
ROTATIONS_NO_AA = {1: 6, 2: 9, 3: 15, 4: 18, 5: 24, 6: 27}


def haar_system(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    vec = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return vec / np.linalg.norm(vec)


# ------------------------------------------------------ program structure ----

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_round_schedule_is_frozen(kind, n):
    prog = build_program(kind, n)
    assert prog.rounds == ROUNDS[kind][n]
    assert prog.rounds % 2 == 1
    bound = math.ceil(math.pi * math.sqrt(n + 1))
    assert prog.rounds <= bound + (bound + 1) % 2


def test_rescale_factors():
    dpbt = {n: build_program(ProtocolKind.DPBT_MES, n) for n in range(1, 5)}
    assert dpbt[1].c_star == 1.0
    assert dpbt[2].c_star == pytest.approx(math.sqrt(2), abs=1e-12)
    assert dpbt[3].c_star == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert dpbt[4].c_star == 1.0
    for n in range(1, 5):
        mes = build_program(ProtocolKind.PPBT_MES, n)
        assert mes.c_star == pytest.approx(
            1 / (2 * math.sqrt(2) * math.sin(math.pi / 10)), abs=1e-12)
        opt = build_program(ProtocolKind.PPBT_OPT, n)
        assert 1 / (opt.c_star * math.sqrt(n + 1)) == pytest.approx(
            math.sin(math.pi / (2 * opt.rounds)), abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_kinds_sharing_a_spec_share_one_program(n):
    # dpbt and dpbt-opt differ only in their resource state; the compile has
    # no dense-build cap, so N = 8 builds too
    assert build_program(ProtocolKind.DPBT_MES, n) is build_program(ProtocolKind.DPBT_OPT, n)
    assert build_program(ProtocolKind.PPBT_MES, n) is not build_program(ProtocolKind.PPBT_OPT, n)


@pytest.mark.parametrize("kind", [*KINDS, "no-aa"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bare_circuit_is_unitary(kind, n):
    prog = ppbt_mes_no_aa(n) if kind == "no-aa" else build_program(kind, n)
    matrix = action_matrix(prog.bare, prog.registers)
    np.testing.assert_allclose(matrix.conj().T @ matrix,
                               np.eye(matrix.shape[0]), atol=1e-10)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_branch_circuit_is_unitary(kind, n):
    # the element roots the amplification check runs are blocks of the whole
    # register's unitary circuit: from the start subspace to the flagged
    # level of the last port branch (whose swap is the identity) and of the
    # failure branch, times the port preparation's amplitude there, in the
    # coupled basis
    spec = protocols._SPECS[kind]
    prog = protocols._compile(spec, n)
    matrix = action_matrix(prog.bare, prog.registers)
    np.testing.assert_allclose(matrix.conj().T @ matrix,
                               np.eye(matrix.shape[0]), atol=1e-10)
    index, couple = prog.registers.index, coupling_unitary(n + 1)
    roots = root_matrices(spec, n)
    assert len(roots) == (1 if kind.deterministic else 2)
    for branch, (amp, root) in enumerate(zip(spec.amplitudes(n)[n - 1:], roots)):
        block = matrix[np.ix_(index[:, n - 1 + branch, 0], index[:, 0, 0])]
        np.testing.assert_allclose(couple.T @ block @ couple, amp * root, rtol=0, atol=1e-12)


def _project(state: StateVector, ports: int | None = None) -> StateVector:
    """Keep the flag subspace r = 0, or with `ports` the start subspace:
    r = 0 on the first `ports` port values."""
    amps = state.amps.copy()
    amps[:, :, 1] = 0
    if ports is not None:
        amps[:, ports:] = 0
    return StateVector(state.registers, amps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_good_amplitude_is_input_independent(n):
    # exact amplification needs the same angle for every input
    rng = np.random.default_rng(np.random.PCG64(42))
    dpbt = build_program(ProtocolKind.DPBT_MES, n)
    opt = build_program(ProtocolKind.PPBT_OPT, n)
    cases = [
        (dpbt, 1 / (dpbt.c_star * math.sqrt(n))),
        (build_program(ProtocolKind.PPBT_MES, n), math.sin(math.pi / 10)),
        (opt, 1 / (opt.c_star * math.sqrt(n + 1))),
    ]
    for prog, expected in cases:
        for _ in range(3):
            psi = haar_system(rng, n + 1)
            bare = prog.bare.apply(StateVector.from_system(prog.registers, psi))
            amp = np.linalg.norm(_project(bare).amps)
            assert amp == pytest.approx(expected, abs=1e-12)


def _reflection_product(prog, state: StateVector) -> StateVector:
    """The amplification rounds as the operator sequence U, then per round
    the flag reflection and 1 - 2 U Pi U^dagger: U applied op by op, U^dagger
    as the conjugate transpose of U's dense matrix."""
    u = prog.bare
    u_dagger = action_matrix(u, prog.registers).conj().T
    current = u.apply(state)
    for _ in range((prog.rounds - 1) // 2):
        flagged = _project(current)
        current = StateVector(current.registers, 2 * flagged.amps - current.amps)
        undone = (u_dagger @ flat(current)).reshape(current.amps.shape)
        back = u.apply(_project(StateVector(current.registers, undone), 1))
        current = StateVector(current.registers, current.amps - 2 * back.amps)
    return current


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oaa_matches_the_reflection_product(kind, n):
    prog = build_program(kind, n)
    assert prog.rounds > 0
    rng = np.random.default_rng(np.random.PCG64(700 + n))
    psis = np.column_stack([haar_system(rng, n + 1) for _ in range(4)])
    state = StateVector.from_system(prog.registers, psis)
    np.testing.assert_allclose(prog.run(psis).amps,
                               _reflection_product(prog, state).amps, atol=1e-12)


# ----------------------------------------------- measurement as a circuit ----

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_amplified_branches_hold_the_povm_roots(kind, n):
    prog = build_program(kind, n)
    povm = build_povm(kind.regime, n)
    roots = [psd_sqrt(povm.element(i)) for i in range(1, povm.n_outcomes + 1)]
    rng = np.random.default_rng(np.random.PCG64(n * 100 + 1))
    for _ in range(5):
        psi = haar_system(rng, n + 1)
        out = prog.run(psi)
        for i in range(n):
            np.testing.assert_allclose(out.amps[:, i, 0, 0], roots[i] @ psi,
                                       atol=1e-8)
        for branch in prog.failure_branches:
            np.testing.assert_allclose(out.amps[:, branch, 0, 0],
                                       roots[n] @ psi, atol=1e-8)
        # nothing may survive outside the flagged subspace
        assert np.abs(out.amps[:, :, 1:]).max() < 1e-8


def test_unamplified_program_keeps_half_roots():
    # without amplification each success branch carries root/2, so outcome
    # weights are exactly a quarter of the Born weights
    prog = ppbt_mes_no_aa(2)
    assert prog.rounds == 0
    povm = build_povm(ProtocolKind.PPBT_MES.regime, 2)
    rng = np.random.default_rng(np.random.PCG64(8))
    psi = haar_system(rng, 3)
    out = prog.run(psi)
    for i in range(2):
        root = psd_sqrt(povm.element(i + 1))
        np.testing.assert_allclose(2 * out.amps[:, i, 0, 0], root @ psi, atol=1e-9)
        weight = float(np.sum(np.abs(out.amps[:, i]) ** 2))
        born = float(np.real(psi.conj() @ povm.element(i + 1) @ psi))
        assert weight == pytest.approx(born / 4, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unamplified_run_returns_only_the_flagged_part(n):
    prog = ppbt_mes_no_aa(n)
    assert (prog.registers.n_system, prog.registers.port_dim) == (n + 1, n)
    rng = np.random.default_rng(np.random.PCG64(30 + n))
    psi = haar_system(rng, n + 1)
    out = prog.run(psi)
    assert not out.amps[:, :, 1].any()
    bare = prog.bare.apply(StateVector.from_system(prog.registers, psi))
    np.testing.assert_array_equal(out.amps[:, :, 0], bare.amps[:, :, 0])


# ------------------------------------------------------------ teleporting ----

def test_single_port_deterministic_run_is_a_coin_flip_channel():
    chi = np.array([[1.0], [0.0]])
    run = teleport_batch(ProtocolKind.DPBT_MES, 1, 1, rng=5)
    np.testing.assert_allclose(run.expected, [1.0], atol=1e-12)
    assert run.outcomes[0] == 1
    assert run.fidelities[0] == pytest.approx(0.5, abs=1e-10)
    _, receivers = whole_register_instrument(ProtocolKind.DPBT_MES, 1)
    np.testing.assert_allclose(receivers[0], closed_form(ProtocolKind.DPBT_MES, 1)[1],
                               rtol=0, atol=1e-13)
    bob = receiver_states(receivers[0], chi)[0]
    np.testing.assert_allclose(bob, np.eye(2) / 2, atol=1e-10)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 6))
def test_batch_fidelities_match_the_dense_receiver_states(kind, n):
    # the sampled fidelities against <chi|rho|chi> of the dense 2x2 receiver
    # state of the whole register's port branch each trial lands on, one Haar
    # input drawn here per trial: covariance leaves every success the one
    # fidelity whatever the input and the port
    rng = np.random.default_rng(np.random.PCG64(70 + n))
    chi = rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300))
    chi /= np.linalg.norm(chi, axis=0)
    batch = teleport_batch(kind, n, 300, rng=n)
    success = batch.outcomes <= n
    assert success.any()
    _, receivers = whole_register_instrument(kind, n)
    kept = chi[:, success]
    states = np.stack([receiver_states(receivers[o - 1], kept[:, [t]])[0]
                       for t, o in enumerate(batch.outcomes[success])])
    oracle = np.einsum("it,tij,jt->t", kept.conj(), states, kept).real
    np.testing.assert_allclose(batch.fidelities[success], oracle, rtol=0, atol=1e-14)
    assert np.isnan(batch.fidelities[~success]).all()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_trials_read_the_closed_form(kind, n, seed):
    # covariance leaves no outcome weight or fidelity to an input, so trial t
    # is the t-th PCG64(seed) uniform against the exact outcome distribution
    batch = teleport_batch(kind, n, 2000, rng=seed)
    expected = expected_outcome_distribution(kind, n)
    np.testing.assert_array_equal(batch.outcomes, stream_outcomes(expected, seed, 2000))
    success = batch.outcomes <= n
    assert success.any()
    exact = average_fidelity(kind, n) if kind.deterministic else 1.0
    assert (batch.fidelities[success] == exact).all()
    assert np.isnan(batch.fidelities[~success]).all()
    assert batch.expected is expected
    assert not batch.expected.flags.writeable
    # batches that share one stream carry it across their chunks
    gen = Pcg64(seed)
    chunks = [teleport_batch(kind, n, size, rng=gen).outcomes for size in (1, 998, 1000, 1)]
    np.testing.assert_array_equal(np.concatenate(chunks), batch.outcomes)


def test_a_given_generator_is_used_as_given():
    # anything with a random(n) method draws in place of the seeded stream
    gen = np.random.default_rng(np.random.PCG64(3))
    batch = teleport_batch(ProtocolKind.PPBT_MES, 2, 50, rng=gen)
    expected = expected_outcome_distribution(ProtocolKind.PPBT_MES, 2)
    np.testing.assert_array_equal(batch.outcomes, stream_outcomes(expected, 3, 50))
    assert gen.random() == one_shot_draws(3, 51)[-1]


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_a_bad_seed_raises_as_numpys_does(seed, error):
    with pytest.raises(error):
        teleport_batch(ProtocolKind.DPBT_MES, 2, 1, rng=seed)


def test_single_port_heralded_run_probabilities():
    for seed in range(6):
        run = teleport_batch(ProtocolKind.PPBT_MES, 1, 1, rng=seed)
        np.testing.assert_allclose(run.expected, [0.25, 0.75], atol=1e-10)
        if run.outcomes[0] == 1:
            assert run.fidelities[0] == pytest.approx(1.0, abs=1e-9)
        else:
            assert run.outcomes[0] == 2
            assert np.isnan(run.fidelities[0])


@pytest.mark.parametrize("kind", KINDS)
def test_teleport_is_reproducible(kind):
    first = teleport_batch(kind, 2, 1, rng=123)
    second = teleport_batch(kind, 2, 1, rng=123)
    np.testing.assert_array_equal(first.outcomes, second.outcomes)
    np.testing.assert_array_equal(first.fidelities, second.fidelities)
    np.testing.assert_array_equal(first.expected, second.expected)


@pytest.mark.parametrize("trials", [0, -1])
def test_teleport_needs_at_least_one_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        teleport_batch(ProtocolKind.DPBT_MES, 2, trials, rng=0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, -1])
def test_port_counts_below_one_raise_one_value_error(kind, n):
    entry_points = [
        lambda: build_program(kind, n),
        lambda: teleport_batch(kind, n, 1, rng=0),
        lambda: resource_estimate(kind, n),
        lambda: expected_outcome_distribution(kind, n),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="n_ports must be >= 1"):
            call()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
def test_batch_agrees_with_single_runs(kind, n):
    # covariance makes every per-input fidelity equal the exact average, so
    # each sampled deterministic trial is checked against the closed form
    batch = teleport_batch(kind, n, 40, rng=7)
    single = teleport_batch(kind, n, 1, rng=0)
    np.testing.assert_allclose(batch.expected, single.expected, atol=1e-10)
    expected = expected_outcome_distribution(kind, n)
    assert expected.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(batch.expected, expected, atol=0)
    n_out = len(expected)
    assert set(np.unique(batch.outcomes)) <= set(range(1, n_out + 1))
    if kind.deterministic:
        np.testing.assert_allclose(batch.fidelities,
                                   average_fidelity(kind, n), atol=1e-10)
    else:
        success = batch.outcomes <= n
        assert np.all(np.isnan(batch.fidelities[~success]))
        np.testing.assert_allclose(batch.fidelities[success], 1.0, atol=1e-9)


def direct_run(kind, n, chi):
    """Oracle for the compiled instrument: the program run on the joint
    input of one chi. Returns the outcome weights (failure branches summed
    into slot N) and the unnormalized receiver state of each port branch."""
    joint = np.einsum("ab,c->acb", resource_matrix(kind, n), chi)
    program = build_program(kind, n)
    final = program.run(joint.reshape(2 ** (n + 1), 2 ** n))
    weights = branch_weights(final, "port").sum(axis=1)
    if program.failure_branches:
        weights = np.append(weights[:n], weights[list(program.failure_branches)].sum())
    states = []
    for k in range(n):
        sliced = final.amps[:, k, 0, :]
        stacked = sliced.reshape(sliced.shape[0], *([2] * n))
        flat = np.moveaxis(stacked, 1 + k, 1).reshape(sliced.shape[0], 2, -1)
        states.append(np.einsum("aib,ajb->ij", flat, flat.conj()))
    return weights, states


def closed_form(kind, n):
    """The covariant closed form that teleport samples: the outcome forms
    p_i I, the failure one last, and the receiver tensor
    K = p (lam E + (1 - lam) I/2) of every port, p the port weight and
    lam = 2 F - 1 for the success fidelity F."""
    return covariant_form(expected_outcome_distribution(kind, n), success_fidelity(kind, n))


def covariant_form(weights, fidelity):
    """The outcome forms p_i I and the receiver tensor
    K = p_0 (lam E + (1 - lam) I/2), lam = 2 F - 1, of outcome weights p and
    success fidelity F."""
    eye = np.eye(2)
    lam = 2 * fidelity - 1
    receiver = weights[0] * (lam * np.einsum("ac,bd->acbd", eye, eye)
                             + (1 - lam) * np.einsum("cd,ab->acbd", eye, eye) / 2)
    return np.multiply.outer(weights, eye), receiver


def closed_form_gap(kind, n, per_branch, receiver, forms=None, closed=None):
    """The largest entry gap between a last-port-and-failure instrument and
    the closed form (or the given `forms` and `closed` receiver)."""
    if forms is None:
        forms, closed = closed_form(kind, n)
    return max(float(np.abs(per_branch - forms[n - 1:]).max()),
               float(np.abs(receiver - closed).max()))


def assert_closed_form(kind, n, per_branch, receiver):
    """A last-port-and-failure instrument, as `branch_instrument` returns
    it, against the closed form, to 1e-13."""
    forms, closed = closed_form(kind, n)
    assert len(per_branch) == (1 if kind.deterministic else 2)
    np.testing.assert_allclose(per_branch, forms[n - 1:], rtol=0, atol=1e-13)
    np.testing.assert_allclose(receiver, closed, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_instrument_matches_direct_runs(kind, n):
    gram, receiver = closed_form(kind, n)
    assert gram.shape == (n if kind.deterministic else n + 1, 2, 2)
    assert receiver.shape == (2, 2, 2, 2)
    rng = np.random.default_rng(np.random.PCG64(40 + n))
    for _ in range(3):
        chi = haar_qubit(rng)
        weights, states = direct_run(kind, n, chi)
        forms = np.einsum("c,icd,d->i", chi.conj(), gram, chi)
        np.testing.assert_allclose(forms, weights, atol=1e-12)
        # every port leaves the one receiver tensor
        state = np.einsum("icjd,c,d->ij", receiver, chi, chi.conj())
        for k in range(n):
            np.testing.assert_allclose(state, states[k], atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_instrument_is_covariant(kind, n):
    # outcome probabilities of port-based teleportation do not depend on the
    # input, so every Gram form of the whole register is a multiple of the
    # identity, and every port's channel commutes with a qubit unitary:
    # K(U rho U^dagger) = U K(rho) U^dagger
    gram, receivers = whole_register_instrument(kind, n)
    for g in gram:
        assert np.linalg.norm(g - np.trace(g).real / 2 * np.eye(2)) <= 1e-12
    rng = np.random.default_rng(np.random.PCG64(60 + n))
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rho = np.outer(haar_qubit(rng), haar_qubit(rng).conj())
    for k in receivers:
        rotated = np.einsum("icjd,cd->ij", k, u @ rho @ u.conj().T)
        np.testing.assert_allclose(rotated, u @ np.einsum("icjd,cd->ij", k, rho) @ u.conj().T,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_instrument_haar_averages_match_closed_forms(kind, n):
    # E[conj(chi_i) chi_c conj(chi_d) chi_j] = (d_ic d_dj + d_ij d_cd) / 6,
    # on the whole register's forms and the receiver tensor of every port
    gram, receivers = whole_register_instrument(kind, n)
    success = float(np.einsum("icc->", gram[:n]).real) / 2
    fidelity = float((np.einsum("kiijj->", receivers)
                      + np.einsum("kicic->", receivers)).real) / 6
    if kind.deterministic:
        assert success == pytest.approx(1.0, abs=1e-12)
        assert fidelity == pytest.approx(average_fidelity(kind, n), abs=1e-12)
    else:
        assert success == pytest.approx(success_probability(kind, n), abs=1e-12)
        assert fidelity == pytest.approx(success_probability(kind, n), abs=1e-12)


def _detuned(kind):
    """The kind's spec with one attach factor off by 1e-6, which leaves the
    flagged amplitude off sin(pi/2n)."""
    spec = protocols._SPECS[kind]
    return spec._replace(attach=lambda m: spec.attach(m) * (1 - 1e-6))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, *(pytest.param(n, marks=pytest.mark.slow)
                                                for n in (7, 8))])
def test_detuned_attach_breaks_the_amplification_precondition(monkeypatch, kind, n):
    # one attach factor off by 1e-6 leaves the flagged amplitude off sin(pi/2n)
    broken = _detuned(kind)
    prog = protocols._compile(broken, n)
    with pytest.raises(NumericalInvariantError) as info:
        prog.run(np.eye(2 ** (n + 1)))
    assert not isinstance(info.value, ValueError)
    assert 1e-6 <= info.value.residual <= 3e-6
    # the check runs the class blocks of the basis change, whose whole-register
    # Gram is the identity, and folds in the port-swap images, so it raises
    # the residual of the whole register on the identity start input
    monkeypatch.setitem(protocols._SPECS, kind, broken)
    with pytest.raises(NumericalInvariantError) as branch:
        teleport_batch(kind, n, 1, rng=0)
    assert branch.value.residual == pytest.approx(info.value.residual, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 6])
def test_one_fold_on_the_difference_is_the_two_fold_residual(kind, n):
    # the class-block run folds only G_out under the port images and
    # subtracts the identity once; the whole register, every port branch run
    # on the identity start input, gives the same residual
    detuned = _detuned(kind)
    with pytest.raises(NumericalInvariantError) as info:
        checked_class_block_run(detuned, n, protocols._class_input(n))
    diff, diagonal = register_fold(protocols._compile(detuned, n), np.eye(2 ** (n + 1)))
    residual = np.abs(diff).max() / diagonal.max()
    assert 1e-6 <= residual <= 3e-6
    assert info.value.residual == pytest.approx(residual, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_class_fold_is_the_dense_fold(kind, n):
    # the whole register's Gram difference on the identity start input is
    # block-diagonal in weight class, and each block, its columns the class's
    # computational states, is the class fold of the class-block run less
    # the identity, on a detuned attach where it is not zero
    detuned = _detuned(kind)
    _, after = class_block_run(detuned, n, protocols._class_input(n))
    classes = protocols._weight_classes(n)
    grams_out = list(protocols._output_grams(classes, after))
    diff, diagonal = register_fold(protocols._compile(detuned, n), np.eye(2 ** (n + 1)))
    np.testing.assert_array_equal(diagonal, 1.0)
    covered = np.zeros(diff.shape, dtype=bool)
    assert len(grams_out) == len(classes) == n + 2
    for cls, gram_out in zip(classes, grams_out):
        states = cls.columns ^ (2 ** (n + 1) - 2)
        np.testing.assert_allclose(gram_out - np.eye(len(states)), diff[np.ix_(states, states)],
                                   rtol=0, atol=1e-12)
        covered[np.ix_(states, states)] = True
    assert not diff[~covered].any()
    assert np.abs(diff).max() >= 1e-6
    # the check keeps the largest of every class's entries
    miss = protocols._fold_classes(classes, after)
    assert miss == max(float(np.abs(o - np.eye(len(o))).max()) for o in grams_out)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 8))
def test_instrument_is_the_same_in_the_computational_basis(kind, n):
    # the element roots act in the coupled basis; every form sums over the
    # system rows, so the roots conjugated back to the computational basis,
    # on the joint input there, leave the closed form as it is
    assert_closed_form(kind, n, *branch_instrument(kind, n, computational=True))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [*range(1, 8), *(pytest.param(n, marks=pytest.mark.slow)
                                              for n in (8, 9))])
def test_instrument_matches_the_dense_layout(kind, n):
    # the element roots, as dense matrices, on every joint-input column
    # whole give the closed form, and so does the run read off class by class
    per_branch, receiver = branch_instrument(kind, n)
    assert_closed_form(kind, n, per_branch, receiver)
    blocks, shared = class_block_instrument(kind, n)
    np.testing.assert_allclose(blocks, per_branch, rtol=0, atol=1e-13)
    np.testing.assert_allclose(shared, receiver, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [*range(1, 8), *(pytest.param(n, marks=pytest.mark.slow)
                                              for n in (8, 9))])
def test_slot_input_is_the_coupled_joint_input(kind, n):
    # the closed form is U_{N+1}^T (resource (x) I_2) gathered into class
    # blocks; the dense product is zero outside them
    blocks = slot_input(kind, n)
    coupled = coupled_input(kind, n)
    gathered = []
    covered = np.zeros(coupled.shape, dtype=bool)
    for cls in protocols._weight_classes(n):
        gathered.append(coupled[np.ix_(cls.outputs, cls.columns)].ravel())
        covered[np.ix_(cls.outputs, cls.columns)] = True
    assert blocks.shape == (math.comb(2 * n + 2, n + 1),)
    np.testing.assert_allclose(blocks, np.concatenate(gathered), rtol=0, atol=1e-14)
    assert np.abs(coupled[~covered]).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_class_input_is_the_coupled_basis_change(n):
    # the check's input is U_{N+1}^T gathered on the class layout, column k
    # of class w the computational state columns[k] with its first N bits
    # flipped; the transform is zero outside the blocks, and every block is
    # orthogonal, so the whole register's input Gram is the identity
    blocks = protocols._class_input(n)
    transform = coupling_unitary(n + 1).T
    covered = np.zeros(transform.shape, dtype=bool)
    assert blocks.shape == (math.comb(2 * n + 2, n + 1),)
    start = 0
    for cls in protocols._weight_classes(n):
        states = cls.columns ^ (2 ** (n + 1) - 2)
        block = blocks[start:start + len(cls.outputs) * len(states)].reshape(len(cls.outputs), -1)
        start += block.size
        np.testing.assert_array_equal(block, transform[np.ix_(cls.outputs, states)])
        np.testing.assert_allclose(block.T @ block, np.eye(len(states)), rtol=0, atol=1e-13)
        covered[np.ix_(cls.outputs, states)] = True
    assert not transform[~covered].any()


@pytest.mark.parametrize("n", range(1, 7))
def test_deterministic_kinds_share_one_amplification_check(monkeypatch, n):
    # dpbt and dpbt-opt differ only in their resource, which the check does
    # not read: they share one spec, and one cache entry serves both
    protocols._check_amplification.cache_clear()
    try:
        for kind in DETERMINISTIC:
            teleport_batch(kind, n, 1, rng=0)
        info = protocols._check_amplification.cache_info()
    finally:
        protocols._check_amplification.cache_clear()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # a detuned attach of that spec breaks both with one residual
    broken = _detuned(ProtocolKind.DPBT_MES)
    residuals = []
    for kind in DETERMINISTIC:
        monkeypatch.setitem(protocols._SPECS, kind, broken)
    for kind in DETERMINISTIC:
        with pytest.raises(NumericalInvariantError) as raised:
            teleport_batch(kind, n, 1, rng=0)
        residuals.append(raised.value.residual)
    assert residuals[0] == residuals[1]
    assert 1e-6 <= residuals[0] <= 3e-6


@pytest.mark.parametrize("n", [1, 2, 5])
def test_instrument_builds_no_transform_past_the_resource_qubits(monkeypatch, n):
    # the run starts in the coupled basis, reads the input's entries of U_N
    # off U_{N-1} and two coupling levels, and builds no register circuit:
    # the element roots come straight off the sector tables
    def capped(m):
        if m >= n:
            raise AssertionError(f"coupling_unitary({m}) built for N={n}")
        return unitary(m)

    def register_circuit(*_, **__):
        raise AssertionError("the sampled run built a register circuit")

    unitary = schur.coupling_unitary
    monkeypatch.setattr(schur, "coupling_unitary", capped)
    monkeypatch.setattr(protocols, "coupling_unitary", capped)
    monkeypatch.setattr(protocols, "SubspaceBlocks", register_circuit)
    monkeypatch.setattr(protocols, "Registers", register_circuit)
    for kind in KINDS:
        assert protocols._check_amplification.__wrapped__(protocols._SPECS[kind], n) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_branch_state_holds_only_flagged_class_blocks(monkeypatch, n):
    # branches x C(2N+2, N+1) floats: class w a (C(N+1, w), C(N+1, w))
    # block over its own columns, no r = 1 level and no padding to the
    # widest class
    states = []
    apply = FamilyRoots.apply

    def recorded(self, state):
        states.append((state.shapes, state.amps.shape, state.amps.dtype))
        return apply(self, state)

    def dense(*_):
        raise AssertionError("the branch run built a whole-layout state")

    monkeypatch.setattr(FamilyRoots, "apply", recorded)
    monkeypatch.setattr(StateVector, "from_system", dense)
    for kind in KINDS:
        protocols._check_amplification.__wrapped__(protocols._SPECS[kind], n)
    shapes = tuple((math.comb(n + 1, w),) * 2 for w in range(n + 2))
    branches = [1 if kind.deterministic else 2 for kind in KINDS]
    assert states == [(shapes, (b, math.comb(2 * n + 2, n + 1)), np.float64)
                      for b in branches]
    classes = protocols._weight_classes(n)
    assert [(len(c.outputs), len(c.columns)) for c in classes] == list(shapes)


def test_instrument_working_memory_stays_in_its_slots():
    # the dense layout's state alone is 2^9 x 2 x 2 x 2^9 floats (8 MB) at
    # N=8, and its run peaked at 34 MB; the class-block state holds
    # 2 x C(18, 9) floats (0.8 MB)
    spec, n = protocols._SPECS[ProtocolKind.PPBT_OPT], 8
    protocols._check_amplification.__wrapped__(spec, n)
    tracemalloc.start()
    try:
        protocols._check_amplification.__wrapped__(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 8))
def test_branch_instrument_matches_the_whole_register(kind, n):
    # ports 0..N-2 are the last port branch's qubit-swap images: every port
    # branch of the whole register, run on real and on complex amplitudes,
    # leaves the closed form the last port branch's dense roots leave
    per_branch, receiver = branch_instrument(kind, n)
    assert per_branch.dtype == receiver.dtype == np.float64
    forms, closed = closed_form(kind, n)
    for dtype in (np.float64, np.complex128) if n <= 5 else (np.float64,):
        gram, receivers = whole_register_instrument(kind, n, dtype)
        assert gram.dtype == receivers.dtype == dtype
        assert len(gram) == len(forms)
        np.testing.assert_allclose(gram, forms, rtol=0, atol=1e-13)
        np.testing.assert_allclose(receivers, np.broadcast_to(closed, receivers.shape),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(receivers[-1], receiver, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [*range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                                              for n in (9, 10, 11))])
def test_instrument_is_the_covariant_closed_form(kind, n):
    # SU(2) covariance makes every port a depolarizing channel with an
    # input-independent weight: G_i = p_i I, and K = p (lam E + (1 - lam) I/2),
    # lam = (4F - 1)/3 for the deterministic kinds and 1 for the heralded ones;
    # past N = 8 the forms are read off the class-block run, which the dense
    # layout matches up to N = 9
    forms, closed = closed_form(kind, n)
    eye = np.eye(2)
    if kind.deterministic:
        weight, lam = 1.0 / n, (4 * entanglement_fidelity(kind, n) - 1) / 3
    else:
        p = float(success_probability_exact(kind, n))
        weight, lam = p / n, 1.0
        np.testing.assert_allclose(forms[n], (1 - p) * eye, rtol=0, atol=1e-13)
    np.testing.assert_allclose(forms[:n], np.broadcast_to(weight * eye, (n, 2, 2)),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        closed, weight * (lam * np.einsum("ac,bd->acbd", eye, eye)
                          + (1 - lam) * np.einsum("cd,ab->acbd", eye, eye) / 2),
        rtol=0, atol=1e-13)
    run = branch_instrument if n <= 8 else class_block_instrument
    assert_closed_form(kind, n, *run(kind, n))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 4])
def test_dense_route_sees_the_sampled_numbers_off_by_1e_6(kind, n):
    # the numbers teleport samples and prints, off by 1e-6, miss the dense
    # run by exactly that: weights off by 1e-6 miss the outcome forms by
    # 1e-6, and a success fidelity off by 1e-6 moves lam = 2F - 1 by 2e-6
    # and the receiver tensor by the port weight times that
    per_branch, receiver = branch_instrument(kind, n)
    weights = expected_outcome_distribution(kind, n)
    fidelity = success_fidelity(kind, n)
    assert closed_form_gap(kind, n, per_branch, receiver) <= 1e-13
    for shifted, gap in [(covariant_form(weights + 1e-6, fidelity), 1e-6),
                         (covariant_form(weights, fidelity + 1e-6), 2e-6 * weights[0])]:
        residual = closed_form_gap(kind, n, per_branch, receiver, *shifted)
        assert residual == pytest.approx(gap, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", [ProtocolKind.DPBT_OPT, ProtocolKind.PPBT_OPT])
@pytest.mark.parametrize("n", [2, 5])
def test_optimised_kind_on_the_singlet_chain_misses_its_closed_form(kind, n):
    # the class-block run of an optimised kind on the singlet chain leaves a
    # different instrument, which the closed form of the kind does not match
    singlet = slot_input(ProtocolKind.DPBT_MES, n)
    residual = closed_form_gap(kind, n, *class_block_instrument(kind, n, singlet))
    assert residual > 1e-9
    if kind.deterministic:
        # dpbt's instrument, against lam = (4F - 1)/3 of the optimised F:
        # the receiver gap is |delta lam| / N
        gap = 4 * (entanglement_fidelity(kind, n)
                   - entanglement_fidelity(ProtocolKind.DPBT_MES, n)) / (3 * n)
        assert residual == pytest.approx(gap, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_an_attach_amplitude_above_one_is_rejected(monkeypatch, kind):
    # a broken invariant of the spec's scales, raised where the one attach
    # table is built, so the check and the whole register both meet it
    spec = protocols._SPECS[kind]
    broken = spec._replace(attach=lambda m: 10 * spec.attach(m))
    monkeypatch.setitem(protocols._SPECS, kind, broken)
    rescale, _ = protocols._schedule(broken, 3)
    first = next(a for a in (math.sqrt(float(sector.value)) * (broken.attach(3) * (1.0 / rescale))
                             for sector in port_eigensystem(spec.regime, 3).sectors)
                 if a > 1 + 1e-9)
    protocols._check_amplification.cache_clear()
    try:
        with pytest.raises(NumericalInvariantError, match="exceeds 1") as info:
            protocols._check_amplification(broken, 3)
    finally:
        protocols._check_amplification.cache_clear()
    assert info.value.residual == first - 1
    with pytest.raises(NumericalInvariantError, match="exceeds 1") as info:
        protocols._compile(broken, 3)
    assert info.value.residual == first - 1


@pytest.mark.parametrize("kind", [ProtocolKind.DPBT_MES, *HERALDED])
@pytest.mark.parametrize("n", range(1, 9))
def test_element_root_amplitudes_are_the_compiled_attach_entries(kind, n):
    # both read one attach table: every piece's amplitude is the flagged
    # entry [0, 0] of the attach block that reflects its families' kept
    # labels, bit for bit, and the pieces cover every sector block's labels
    spec = protocols._SPECS[kind]
    prog = protocols._compile(spec, n)
    attaches = [op for op in prog.bare.ops if getattr(op, "name", "").endswith("-attach")]
    eigen = [port_eigensystem(spec.regime, n)]
    if spec.fail is not None:
        eigen.append(failure_eigensystem(spec.regime, n))
    assert [op.name for op in attaches] == ["port-attach", "failure-attach"][:len(eigen)]
    roots = protocols._element_roots(spec, n)
    classes = protocols._weight_classes(n)
    layer = prog.registers.port_dim * prog.registers.r_dim
    for branch, (op, es) in enumerate(zip(attaches, eigen)):
        entry = {}
        for block in op.blocks[:len(es.sectors)]:
            for label in block.instances[:, 0] // layer:
                entry[int(label)] = block.matrix[0, 0]
        read = {}
        for cls, steps in zip(classes, roots.steps):
            for index, _, amplitude in steps[branch][0]:
                for label in cls.outputs[index[-1]]:
                    read[int(label)] = amplitude
        assert read.keys() == entry.keys()
        for label, amplitude in read.items():
            assert amplitude.hex() == float(entry[label]).hex()


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_reads_the_schedule_of_the_branch_program(n):
    for kind in KINDS:
        batch = teleport_batch(kind, n, 1, rng=0)
        whole = build_program(kind, n)
        assert (batch.rounds, batch.c_star) == (whole.rounds, whole.c_star)


def test_batch_never_compiles_the_whole_register(monkeypatch):
    def whole_register(*_):
        raise AssertionError("teleport_batch compiled the whole register")

    monkeypatch.setattr(protocols, "build_program", whole_register)
    protocols._check_amplification.cache_clear()
    try:
        for kind in KINDS:
            batch = teleport_batch(kind, 3, 1, rng=4)
            assert batch.outcomes.shape == (1,)
    finally:
        protocols._check_amplification.cache_clear()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_samples_like_a_categorical_draw(kind, n):
    # a one-column batch under a seed consumes the first PCG64 uniform exactly as
    # Generator.choice would on the exact outcome distribution
    chi = np.array([0.6, 0.8j])
    weights, _ = direct_run(kind, n, chi)
    for seed in range(20):
        rng = np.random.default_rng(np.random.PCG64(seed))
        slot = int(rng.choice(len(weights), p=weights / weights.sum()))
        assert teleport_batch(kind, n, 1, rng=seed).outcomes[0] == slot + 1


def test_batch_is_seed_deterministic():
    a = teleport_batch(ProtocolKind.PPBT_OPT, 2, 10, rng=99)
    b = teleport_batch(ProtocolKind.PPBT_OPT, 2, 10, rng=99)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)


# ------------------------------------------------------------ exact values ----

@pytest.mark.parametrize("n", range(1, 7))
def test_average_fidelity_anchors(n):
    assert average_fidelity(ProtocolKind.DPBT_MES, n) == pytest.approx(
        FIDELITY_MES[n], abs=1e-12)
    assert average_fidelity(ProtocolKind.DPBT_OPT, n) == pytest.approx(
        FIDELITY_OPT[n], abs=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_success_probability_anchors(n):
    assert success_probability_exact(ProtocolKind.PPBT_MES, n) == SUCCESS_MES[n]
    assert success_probability_exact(ProtocolKind.PPBT_OPT, n) == Fraction(n, n + 3)
    assert success_probability(ProtocolKind.PPBT_OPT, n) == pytest.approx(
        n / (n + 3), abs=1e-15)


@pytest.mark.parametrize("kind", HERALDED)
@pytest.mark.parametrize("n", range(1, 9))
def test_success_sector_sum_matches_label_sum(kind, n):
    # every coupled-basis label carries the failure eigenvalue of its sector
    nu = optimal_scalars(n).nu if kind.optimised_resource else None
    total = Fraction(0)
    for j, s in enumerate_labels(n + 1)[:, -3:-1].tolist():
        value = failure_eigenvalue(kind.regime, n, j, s)
        total += value * nu[j] if nu is not None else value
    assert success_probability_exact(kind, n) == 1 - total / 2 ** (n + 1)


@pytest.mark.parametrize("n", [*range(1, 31), 100, 257])
def test_success_probability_is_the_fraction_sum(n):
    # the integer accumulation against a plain Fraction sum over (j, s)
    total = sum((failure_eigenvalue(Regime.PPBT_MES, n, j, s) * chain_multiplicity(n, j)
                 * (s + 1) for j, s in adjacent_pairs(n)), Fraction(0))
    assert success_probability_exact(ProtocolKind.PPBT_MES, n) == 1 - total / 2 ** (n + 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_optimised_resource_dominates(n):
    assert average_fidelity(ProtocolKind.DPBT_OPT, n) >= average_fidelity(
        ProtocolKind.DPBT_MES, n) - 1e-12
    assert success_probability_exact(ProtocolKind.PPBT_OPT, n) >= \
        success_probability_exact(ProtocolKind.PPBT_MES, n)


def test_fidelity_and_success_domain_errors():
    for kind in HERALDED:
        with pytest.raises(ValueError):
            entanglement_fidelity(kind, 2)
    for kind in DETERMINISTIC:
        with pytest.raises(ValueError):
            success_probability_exact(kind, 2)


def test_known_closed_forms():
    # the three-port plain-resource protocol reaches 3/4 on the nose
    assert average_fidelity(ProtocolKind.DPBT_MES, 3) == pytest.approx(0.75, abs=1e-12)
    assert average_fidelity(ProtocolKind.DPBT_OPT, 2) == pytest.approx(2 / 3, abs=1e-12)
    assert average_fidelity(ProtocolKind.DPBT_OPT, 4) == pytest.approx(5 / 6, abs=1e-12)


# ------------------------------------------------------- optimal resource ----

def dense_bell_amplitudes(n: int, resource: np.ndarray, roots: list) -> np.ndarray:
    """Amplitudes left on the Bell pair when half of it is teleported through
    the deterministic channel, one block per port outcome; the entanglement
    fidelity is their squared norm and is quadratic in the resource."""
    bell = np.eye(2) / math.sqrt(2.0)
    joint = np.einsum("ab,cr->acbr", resource, bell).reshape(2 ** (n + 1), -1)
    kept = []
    for i, root in enumerate(roots):
        image = (root @ joint).reshape(-1, *([2] * n), 2)
        moved = np.moveaxis(image, 1 + i, -2)
        kept.append(np.ravel(moved[..., 0, 0] + moved[..., 1, 1]) / math.sqrt(2.0))
    return np.concatenate(kept)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_forms_match_dense_oracle(n):
    povm = build_povm(Regime.DPBT, n)
    roots = [psd_sqrt(povm.element(i)) for i in range(1, n + 1)]
    for kind in DETERMINISTIC:
        kept = dense_bell_amplitudes(n, resource_matrix(kind, n), roots)
        assert np.vdot(kept, kept).real == pytest.approx(
            entanglement_fidelity(kind, n), abs=1e-12)
    # the closed-form weights are a unit resource and the top generalized
    # eigenvector of the fidelity over the family sum_j w_j 1(j) (singlets)
    weights = dpbt_opt_deformation(n)
    js = [j for j, _ in weights]
    assert js == list(spin_values(n))
    w = np.array([w for _, w in weights])
    norms = np.array([chain_multiplicity(n, j) * (j + 1) / 2 ** n for j in js])
    assert float(w ** 2 @ norms) == pytest.approx(1.0, abs=1e-12)
    chain = singlet_chain(n)
    columns = np.column_stack([dense_bell_amplitudes(n, sector_operator(n, {j: 1}) @ chain, roots)
                               for j in js])
    quad = np.real(columns.conj().T @ columns)
    whiten = np.diag(1.0 / np.sqrt(norms))
    values, vectors = np.linalg.eigh(whiten @ quad @ whiten)
    assert values[-1] == pytest.approx(
        entanglement_fidelity(ProtocolKind.DPBT_OPT, n), abs=1e-12)
    assert abs(vectors[:, -1] @ (np.sqrt(norms) * w)) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- resources ----

@pytest.mark.parametrize("kind", KINDS)
def test_rotation_counts_are_frozen(kind):
    for n, count in ROTATIONS[kind].items():
        assert resource_estimate(kind, n).two_level_rotations == count


def test_unamplified_rotation_counts_are_frozen():
    for n, count in ROTATIONS_NO_AA.items():
        assert ppbt_mes_no_aa(n).rotation_count == count


def sector_rotation_count(spec, n: int) -> int:
    """The compiled rotation count read off the spec and its sector tables:
    the preparation, the controlled swap twice, the family rotation and its
    undoing, and each attach's sectors plus a drop block for the labels it
    does not keep. Each family keeps one label, so a table with fewer
    families than labels drops some (dpbt at N = 2: its families cover all
    eight labels, but keep six)."""
    eigen = port_eigensystem(spec.regime, n)
    attached = [eigen] if spec.fail is None else [eigen, failure_eigensystem(spec.regime, n)]
    count = np.count_nonzero(spec.amplitudes(n)[1:]) + 2 * n
    count += 2 * sum(sector.s <= n for sector in eigen.sectors)
    for es in attached:
        kept = sum(len(sector.families) for sector in es.sectors)
        count += len(es.sectors) + (kept < 2 ** (n + 1))
    return count


@pytest.mark.parametrize("kind", [*KINDS, "no-aa"])
@pytest.mark.parametrize("n", range(1, 9))
def test_rotation_counts_follow_the_sector_tables(kind, n):
    spec = protocols._NO_AA if kind == "no-aa" else protocols._SPECS[kind]
    assert sector_rotation_count(spec, n) == protocols._compile(spec, n).rotation_count


# frozen like ROTATIONS: the transform's ancillas, the port register's bits
# and the block qubit
ANCILLAS = {
    SchurVariant.BCH: {
        ProtocolKind.DPBT_MES: [3, 4, 8, 11, 16, 20, 24, 28],
        ProtocolKind.DPBT_OPT: [3, 4, 8, 11, 16, 20, 24, 28],
        ProtocolKind.PPBT_MES: [3, 5, 8, 12, 16, 20, 24, 29],
        ProtocolKind.PPBT_OPT: [3, 5, 8, 12, 16, 20, 24, 29],
    },
    SchurVariant.SPIN: {
        ProtocolKind.DPBT_MES: [4, 4, 6, 6, 7, 7, 8, 8],
        ProtocolKind.DPBT_OPT: [4, 4, 6, 6, 7, 7, 8, 8],
        ProtocolKind.PPBT_MES: [4, 5, 6, 7, 7, 7, 8, 9],
        ProtocolKind.PPBT_OPT: [4, 5, 6, 7, 7, 7, 8, 9],
    },
}


@pytest.mark.parametrize("variant", list(SchurVariant))
@pytest.mark.parametrize("kind", KINDS)
def test_ancilla_counts_are_frozen(kind, variant):
    counts = [resource_estimate(kind, n, schur_variant=variant).ancilla_qubits
              for n in range(1, 9)]
    assert counts == ANCILLAS[variant][kind]


def test_resource_estimate_fields():
    est = resource_estimate(ProtocolKind.PPBT_MES, 4)
    assert est.rounds == 5
    assert est.ancilla_qubits == 12
    assert est.p_class == "O(N)"
    assert est.n_class == "Theta(1)"
    assert est.ancilla_class == "O(N log N)"
    spin = resource_estimate(ProtocolKind.PPBT_MES, 4, schur_variant=SchurVariant.SPIN)
    assert spin.ancilla_qubits == 7
    assert spin.ancilla_class == "O(log N)"
    assert est.total_cost > est.schur_cost > 0


def test_resource_estimate_class_labels():
    for kind in KINDS:
        est = resource_estimate(kind, 3)
        assert est.p_class == "O(N)"
        expect_n = "Theta(1)" if kind is ProtocolKind.PPBT_MES else "O(sqrt(N))"
        assert est.n_class == expect_n
    assert resource_estimate(ProtocolKind.DPBT_MES, 4).ancilla_qubits == 11
    assert resource_estimate(ProtocolKind.DPBT_MES, 4,
                             schur_variant=SchurVariant.SPIN).ancilla_qubits == 6


def test_resource_estimate_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        resource_estimate(ProtocolKind.DPBT_MES, 2, epsilon=0.0)
    with pytest.raises(ValueError):
        resource_estimate(ProtocolKind.DPBT_MES, 2, epsilon=1.5)
    # 1/epsilon overflows to inf: no finite cost, for either transform model
    for variant in SchurVariant:
        with pytest.raises(ValueError, match="epsilon"):
            resource_estimate(ProtocolKind.DPBT_MES, 2, epsilon=1e-310, schur_variant=variant)
