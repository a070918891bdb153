import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import action_matrix, branch_weights, haar_qubit
from portsim import protocols
from portsim.circuit import StateVector
from portsim.povm_oracle import build_povm, psd_sqrt
from portsim.protocols import (
    NumericalInvariantError,
    ProtocolKind,
    SchurVariant,
    average_fidelity,
    build_program,
    dpbt_opt_deformation,
    entanglement_fidelity,
    expected_outcome_distribution,
    ppbt_mes_no_aa,
    resource_estimate,
    resource_matrix,
    singlet_chain,
    success_probability,
    success_probability_exact,
    teleport,
    teleport_batch,
)
from portsim.schur import enumerate_labels, sector_operator
from portsim.spinalg import (Regime, chain_multiplicity, failure_eigenvalue, optimal_scalars,
                             spin_values)

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


def _project(projector, state: StateVector) -> StateVector:
    amps = state.amps.copy()
    amps.reshape(state.registers.dim, state.batch)[~projector.mask(state.registers)] = 0
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
            bare = prog.bare.apply(prog.initial_state(psi))
            amp = np.linalg.norm(_project(prog.good_mask, bare).amps)
            assert amp == pytest.approx(expected, abs=1e-12)


def _reflection_product(prog, state: StateVector) -> StateVector:
    """The amplification rounds as the operator sequence U, then per round
    the flag reflection and 1 - 2 U Pi U^dagger: U applied op by op, U^dagger
    as the conjugate transpose of U's dense matrix."""
    u, pi, pi_tilde = prog.bare, prog.start_mask, prog.good_mask
    u_dagger = action_matrix(u, prog.registers).conj().T
    current = u.apply(state)
    for _ in range((prog.rounds - 1) // 2):
        flagged = _project(pi_tilde, current)
        current = StateVector(current.registers, 2 * flagged.amps - current.amps)
        undone = (u_dagger @ current.flat()).reshape(current.amps.shape)
        back = u.apply(_project(pi, StateVector(current.registers, undone)))
        current = StateVector(current.registers, current.amps - 2 * back.amps)
    return current


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_oaa_matches_the_reflection_product(kind, n):
    prog = build_program(kind, n)
    assert prog.rounds > 0
    rng = np.random.default_rng(np.random.PCG64(700 + n))
    psis = np.column_stack([haar_system(rng, n + 1) for _ in range(4)])
    state = prog.initial_state(psis)
    np.testing.assert_allclose(prog.apply(state).amps,
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


# ------------------------------------------------------------ teleporting ----

def test_single_port_deterministic_run_is_a_coin_flip_channel():
    run = teleport(ProtocolKind.DPBT_MES, 1, np.array([1.0, 0.0]), seed=5)
    np.testing.assert_allclose(run.probabilities, [1.0], atol=1e-12)
    assert run.outcome == 1
    assert run.success
    assert run.fidelity == pytest.approx(0.5, abs=1e-10)
    np.testing.assert_allclose(run.bob_state, np.eye(2) / 2, atol=1e-10)


def test_single_port_heralded_run_probabilities():
    for seed in range(6):
        run = teleport(ProtocolKind.PPBT_MES, 1, np.array([0.6, 0.8j]), seed=seed)
        np.testing.assert_allclose(run.probabilities, [0.25, 0.75], atol=1e-10)
        if run.success:
            assert run.outcome == 1
            assert run.fidelity == pytest.approx(1.0, abs=1e-9)
        else:
            assert run.outcome == 2
            assert run.fidelity is None


@pytest.mark.parametrize("kind", KINDS)
def test_teleport_is_reproducible(kind):
    chi = np.array([0.28, 0.96j])
    first = teleport(kind, 2, chi, seed=123)
    second = teleport(kind, 2, chi, seed=123)
    assert first.outcome == second.outcome
    assert first.fidelity == second.fidelity
    np.testing.assert_allclose(first.probabilities, second.probabilities, atol=0)


def test_teleport_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        teleport(ProtocolKind.DPBT_MES, 2, np.array([1.0, 1.0]), seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        teleport(ProtocolKind.DPBT_MES, 2, np.array([bad, 0.0]), seed=1)
    with pytest.raises(ValueError, match="finite"):
        teleport(ProtocolKind.PPBT_OPT, 2, np.array([1.0, complex(0.0, bad)]), seed=1)
    # one bad column among normalized ones rejects the whole batch
    with pytest.raises(ValueError, match="finite"):
        teleport_batch(ProtocolKind.DPBT_MES, 2, np.array([[bad, 1.0], [0.0, 0.0]]), rng=1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, -1])
def test_port_counts_below_one_raise_one_value_error(kind, n):
    entry_points = [
        lambda: build_program(kind, n),
        lambda: teleport_batch(kind, n, np.array([[1.0], [0.0]]), rng=0),
        lambda: teleport(kind, n, np.array([1.0, 0.0]), seed=0),
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
    rng = np.random.default_rng(np.random.PCG64(31))
    chi = np.column_stack([haar_qubit(rng) for _ in range(40)])
    batch = teleport_batch(kind, n, chi, rng=7)
    single = teleport(kind, n, chi[:, 0], seed=0)
    np.testing.assert_allclose(batch.probabilities[:, 0], single.probabilities,
                               atol=1e-10)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_instrument_matches_direct_runs(kind, n):
    gram, receiver = protocols._instrument(kind, n)
    assert gram.shape == (n if kind.deterministic else n + 1, 2, 2)
    rng = np.random.default_rng(np.random.PCG64(40 + n))
    for _ in range(3):
        chi = haar_qubit(rng)
        weights, states = direct_run(kind, n, chi)
        forms = np.einsum("c,icd,d->i", chi.conj(), gram, chi)
        np.testing.assert_allclose(forms, weights, atol=1e-12)
        for k in range(n):
            state = np.einsum("icjd,c,d->ij", receiver[k], chi, chi.conj())
            np.testing.assert_allclose(state, states[k], atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_instrument_is_covariant(kind, n):
    # outcome probabilities of port-based teleportation do not depend on the
    # input, so every Gram form is a multiple of the identity
    gram, _ = protocols._instrument(kind, n)
    for g in gram:
        assert np.linalg.norm(g - np.trace(g).real / 2 * np.eye(2)) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_instrument_haar_averages_match_closed_forms(kind, n):
    # E[conj(chi_i) chi_c conj(chi_d) chi_j] = (d_ic d_dj + d_ij d_cd) / 6
    gram, receiver = protocols._instrument(kind, n)
    success = float(np.einsum("icc->", gram[:n]).real) / 2
    fidelity = float((np.einsum("kiijj->", receiver)
                      + np.einsum("kicic->", receiver)).real) / 6
    if kind.deterministic:
        assert success == pytest.approx(1.0, abs=1e-12)
        assert fidelity == pytest.approx(average_fidelity(kind, n), abs=1e-12)
    else:
        assert success == pytest.approx(success_probability(kind, n), abs=1e-12)
        assert fidelity == pytest.approx(success_probability(kind, n), abs=1e-12)


def test_batch_weights_are_the_instrument_quadratic_forms(monkeypatch):
    # a generic Hermitian form set, unlike the covariant ones the protocols
    # compile to, so the cross terms of chi^dagger G chi count
    kind, n = ProtocolKind.PPBT_OPT, 2
    gram, receiver = protocols._instrument(kind, n)
    rng = np.random.default_rng(np.random.PCG64(77))
    raw = rng.normal(size=gram.shape) + 1j * rng.normal(size=gram.shape)
    forms = np.einsum("icd,ied->ice", raw, raw.conj())
    monkeypatch.setattr(protocols, "_instrument", lambda *_: (forms, receiver))
    chi = np.column_stack([haar_qubit(rng) for _ in range(50)])
    batch = teleport_batch(kind, n, chi, rng=3)
    np.testing.assert_allclose(batch.probabilities,
                               np.einsum("ct,icd,dt->it", chi.conj(), forms, chi).real,
                               rtol=0, atol=1e-14)


def test_broken_resource_raises_numerical_invariant_error(monkeypatch):
    kind, n = ProtocolKind.PPBT_OPT, 2
    scaled = 1.1 * resource_matrix(kind, n)
    monkeypatch.setattr(protocols, "resource_matrix", lambda *_: scaled)
    protocols._instrument.cache_clear()
    try:
        with pytest.raises(NumericalInvariantError) as info:
            teleport(kind, n, np.array([1.0, 0.0]), seed=0)
    finally:
        protocols._instrument.cache_clear()
    assert not isinstance(info.value, ValueError)
    assert info.value.residual == pytest.approx(1.1 ** 2 - 1, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 6])
def test_detuned_attach_breaks_the_amplification_precondition(kind, n):
    # one attach factor off by 1e-6 leaves the flagged amplitude off sin(pi/2n)
    spec = protocols._SPECS[kind]
    broken = dataclasses.replace(spec, attach=lambda m: spec.attach(m) * (1 - 1e-6))
    prog = protocols._compile(broken, n)
    joint = np.einsum("ab,cd->acbd", resource_matrix(kind, n), np.eye(2))
    with pytest.raises(NumericalInvariantError) as info:
        prog.run(joint.reshape(2 ** (n + 1), 2 ** (n + 1)))
    assert not isinstance(info.value, ValueError)
    assert 1e-6 <= info.value.residual <= 3e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_samples_like_a_categorical_draw(kind, n):
    # teleport(seed) consumes the first PCG64 uniform exactly as
    # Generator.choice would on the exact outcome distribution
    chi = np.array([0.6, 0.8j])
    weights, _ = direct_run(kind, n, chi)
    for seed in range(20):
        rng = np.random.default_rng(np.random.PCG64(seed))
        slot = int(rng.choice(len(weights), p=weights / weights.sum()))
        assert teleport(kind, n, chi, seed=seed).outcome == slot + 1


def test_batch_is_seed_deterministic():
    rng = np.random.default_rng(np.random.PCG64(5))
    chi = np.column_stack([haar_qubit(rng) for _ in range(10)])
    a = teleport_batch(ProtocolKind.PPBT_OPT, 2, chi, rng=99)
    b = teleport_batch(ProtocolKind.PPBT_OPT, 2, chi, rng=99)
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
    for label in enumerate_labels(n + 1):
        value = failure_eigenvalue(kind.regime, n, label.j, label.s)
        total += value * nu[label.j] if nu is not None else value
    assert success_probability_exact(kind, n) == 1 - total / 2 ** (n + 1)


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
    norms = np.array([chain_multiplicity(n, j) * (j.twice + 1) / 2 ** n for j in js])
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
