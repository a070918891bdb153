import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import clebsch_gordan, kept_sector, pair_sectors, valid_z_component
from portsim.povm_analytic import port_eigensystem
from portsim.schur import enumerate_labels
from portsim.spinalg import (
    Regime,
    adjacent_pairs,
    chain_multiplicity,
    failure_eigenvalue,
    optimal_scalars,
    rho_eigenvalue,
    pair_weights,
    spin_values,
    valid_total_spin,
    weight_norm,
)


# ------------------------------------------------------ doubled spins ----

def test_halfint_admissibility_checks():
    # every spin is an int holding twice its value; one qubit carries 1/2 only
    assert valid_total_spin(1, 1)
    assert not valid_total_spin(1, 0)
    # parity: n qubits give integer spin iff n even
    assert valid_total_spin(4, 4) and not valid_total_spin(4, 3)
    assert not valid_total_spin(2, 4)  # above n/2
    assert valid_z_component(2, -2)
    assert not valid_z_component(2, 1)   # parity mismatch
    assert not valid_z_component(2, 4)   # |m| > s


def test_spin_values_descend_in_unit_steps():
    assert spin_values(4) == (4, 2, 0)
    assert spin_values(5) == (5, 3, 1)
    assert spin_values(1) == (1,)


# ------------------------------------------------------ Clebsch-Gordan ----

def test_cg_stretched_state_is_one():
    assert clebsch_gordan(1, 1, 1, 2, 2) == pytest.approx(1.0)


def test_cg_singlet_minus_branch():
    got = clebsch_gordan(1, -1, 1, 0, 0)
    assert got == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_cg_z_conservation_gives_zero():
    assert clebsch_gordan(1, 1, 1, 2, 0) == 0.0


@pytest.mark.parametrize("j1", range(1, 17))
def test_cg_coupling_matrix_is_orthogonal(j1):
    # For fixed (j1, M) the coefficients over (m1, m2) x J form an
    # orthogonal matrix; scan every M reachable by adding spin 1/2.
    js = [j1 + 1] + ([j1 - 1] if j1 >= 1 else [])
    for m in range(-j1 - 1, j1 + 2, 2):
        cols = []
        for big_j in js:
            if not valid_z_component(big_j, m):
                continue
            col = [clebsch_gordan(j1, m - m2, m2, big_j, m) for m2 in (1, -1)]
            cols.append(col)
        gram = np.array(cols) @ np.array(cols).T
        np.testing.assert_allclose(gram, np.eye(len(cols)), atol=1e-12)


# --------------------------------------------------- state eigenvalues ----

@pytest.mark.parametrize("j_twice, s_twice, expect", [
    (2, 3, Fraction(0)),
    (2, 1, Fraction(3, 4)),
    (0, 1, Fraction(1, 4)),
])
def test_rho_eigenvalue_two_port_values(j_twice, s_twice, expect):
    assert rho_eigenvalue(2, j_twice, s_twice) == expect


def test_rho_eigenvalue_rejects_non_adjacent_pair():
    with pytest.raises(ValueError):
        rho_eigenvalue(2, 2, 5)


@pytest.mark.parametrize("n", range(1, 7))
def test_rho_eigenvalue_trace_identity(n):
    total = sum(rho_eigenvalue(n, j, s) for j, s in enumerate_labels(n + 1)[:, -3:-1].tolist())
    assert total == Fraction(n)


# ------------------------------------------------------ sector scalars ----

@pytest.mark.parametrize("n", range(1, 7))
def test_dpbt_sector_eigenvalue_is_one_below_maximal(n):
    assert sum(pair_weights(Regime.DPBT, n, n - 1)) == Fraction(1)


def test_sector_eigenvalue_examples():
    assert sum(pair_weights(Regime.PPBT_MES, 3, 0)) == Fraction(2, 3)
    # maximal-spin sector of the deterministic measurement
    top = [sector.value for sector in port_eigensystem(Regime.DPBT, 4).sectors
           if sector.s == 5]
    assert top == [Fraction(1, 4)]


def test_sector_eigenvalue_rejects_non_pair_sector():
    with pytest.raises(ValueError):
        pair_weights(Regime.PPBT_MES, 2, 4)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 9))
def test_pair_weights_sum_to_the_sector_eigenvalue(regime, n):
    # lo + hi is the sector eigenvalue, lo / (lo + hi) its j = s - 1/2 share
    for s in pair_sectors(n):
        t = s
        lo, hi = pair_weights(regime, n, s)
        if regime is Regime.DPBT:
            assert lo + hi == Fraction(4 * (n + 1), (n + 1 - t) * (n + 3 + t))
        elif regime is Regime.PPBT_MES:
            assert lo + hi == Fraction(4, n + 3 + t)
            assert lo / (lo + hi) == Fraction(t, 2 * (t + 1))
        else:
            opt = optimal_scalars(n)
            assert hi == opt.u[s] * Fraction(t + 2, t + 1) / (2 * opt.nu[t + 1])


def test_rotation_pair_mes_half_sector():
    lo, hi = pair_weights(Regime.PPBT_MES, 2, 1)
    assert (lo / (lo + hi), hi / (lo + hi)) == (Fraction(1, 4), Fraction(3, 4))
    w_minus, w_plus = kept_sector(Regime.PPBT_MES, 2, 1).coeffs
    assert w_minus == pytest.approx(0.5, abs=1e-15)
    assert w_plus == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)


def test_rotation_pair_zero_sector_is_axis_vector():
    assert pair_weights(Regime.PPBT_MES, 3, 0)[0] == 0
    assert kept_sector(Regime.PPBT_MES, 3, 0).coeffs == (-1.0,)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 7))
def test_rotation_pairs_unit_norm_and_orthogonal_complement(regime, n):
    pairs = [sector.coeffs for sector in port_eigensystem(regime, n).sectors
             if len(sector.coeffs) == 2]
    assert len(pairs) == len([s for s in pair_sectors(n) if s > 0])
    for w_minus, w_plus in pairs:
        # the family's other direction, the orthogonal complement, is in the
        # kernel, which no sector lists
        assert w_minus ** 2 + w_plus ** 2 == pytest.approx(1.0, abs=1e-12)


def test_rotation_pair_rejects_maximal_sector():
    with pytest.raises(ValueError):
        pair_weights(Regime.DPBT, 2, 3)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 9))
def test_sector_checks_accept_exactly_the_pair_sectors(regime, n):
    for st in range(-2, n + 4):
        if st in pair_sectors(n):
            pair_weights(regime, n, st)
        else:
            with pytest.raises(ValueError, match="not a pair sector"):
                pair_weights(regime, n, st)


# ----------------------------------------------------- rational tables ----

def test_weight_norm_single_port():
    assert weight_norm(1) == Fraction(1, 4)


def test_chain_multiplicity_examples():
    assert chain_multiplicity(2, 2) == 1
    assert chain_multiplicity(2, 0) == 1
    assert chain_multiplicity(4, 2) == 3


@pytest.mark.parametrize("n", [*range(0, 41), 257, 400])
def test_chain_multiplicity_is_the_factorial_ballot_count(n):
    for j in spin_values(n):
        down, up = (n - j) // 2, (n + j) // 2
        assert chain_multiplicity(n, j) == (j + 1) * math.factorial(n) // (
            math.factorial(down) * math.factorial(up + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiplicity_dimension_identity(n):
    total = sum(chain_multiplicity(n, s) * (s + 1) for s in spin_values(n))
    assert total == 2 ** n


def test_optimal_scalars_three_ports():
    opt = optimal_scalars(3)
    assert opt.nu[3] == Fraction(8, 5)
    assert opt.nu[1] == Fraction(2, 5)
    assert opt.u[2] == Fraction(4, 5)
    assert opt.u[0] == Fraction(4, 15)


def test_optimal_scalars_are_shared_read_only_tables():
    opt = optimal_scalars(4)
    assert optimal_scalars(4) is opt
    for table in (opt.nu, opt.u):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 0


def test_failure_eigenvalue_values():
    # kept branch j = s - 1/2 carries the herald weight, the other is empty
    assert failure_eigenvalue(Regime.PPBT_MES, 2, 0, 1) == Fraction(2, 3)
    assert failure_eigenvalue(Regime.PPBT_MES, 2, 2, 1) == 0
    value = failure_eigenvalue(Regime.PPBT_OPT, 2, 2, 1)
    lam = rho_eigenvalue(2, 2, 1)
    opt = optimal_scalars(2)
    assert value == 1 - 2 * lam * opt.u[1] / opt.nu[2]


def test_dpbt_has_no_failure_outcome():
    with pytest.raises(ValueError):
        failure_eigenvalue(Regime.DPBT, 2, 2, 1)


@pytest.mark.parametrize("regime", [Regime.PPBT_MES, Regime.PPBT_OPT])
@pytest.mark.parametrize("j, s, message", [(2, 5, "adjacent pair"), (1, 2, "admissible")])
def test_failure_eigenvalue_rejects_non_adjacent_pairs(regime, j, s, message):
    with pytest.raises(ValueError, match=message):
        failure_eigenvalue(regime, 2, j, s)


def test_mes_failure_eigenvalue_never_reads_the_state_eigenvalue(monkeypatch):
    def unread(*args):
        raise AssertionError("rho_eigenvalue called")
    monkeypatch.setattr("portsim.spinalg.rho_eigenvalue", unread)
    assert failure_eigenvalue(Regime.PPBT_MES, 2, 0, 1) == Fraction(2, 3)


# ------------------------------------------------- regime-level scans ----

@pytest.mark.parametrize("n", range(1, 9))
def test_dpbt_sector_eigenvalues_bounded_by_one(n):
    values = {s: sum(pair_weights(Regime.DPBT, n, s)) for s in pair_sectors(n)}
    for s, value in values.items():
        assert 0 < value <= 1
        assert (value == 1) == (s == n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_sector_eigenvalues_bounded(n):
    # N/4 times the sector value never exceeds N/(N+3)
    for s in pair_sectors(n):
        scaled = Fraction(n, 4) * sum(pair_weights(Regime.PPBT_MES, n, s))
        assert scaled <= Fraction(n, n + 3) < 1


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_failure_eigenvalue_peaks_at_maximal_spin(n):
    s_top = n + 1
    for s in range(s_top % 2, n + 2, 2):
        j = s - 1
        if j < 0 or not valid_total_spin(n, j):
            continue
        tau = failure_eigenvalue(Regime.PPBT_MES, n, j, s)
        assert 0 < tau <= 1
        assert (tau == 1) == (s == s_top)


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_failure_complements_eigenvalue_ratio(n):
    # herald weight is one minus the ratio of the two sector eigenvalues
    for s in pair_sectors(n):
        j_low, j_high = s - 1, s + 1
        if j_low < 0 or not valid_total_spin(n, j_low):
            continue
        ratio = rho_eigenvalue(n, j_low, s) / rho_eigenvalue(n, j_high, s)
        assert failure_eigenvalue(Regime.PPBT_MES, n, j_low, s) == 1 - ratio


@pytest.mark.parametrize("n", range(1, 9))
def test_opt_failure_complements_deformed_weight(n):
    opt = optimal_scalars(n)
    for j, s in adjacent_pairs(n):
        value = failure_eigenvalue(Regime.PPBT_OPT, n, j, s)
        lam = rho_eigenvalue(n, j, s)
        if lam == 0:
            assert value == 1
        else:
            assert value == 1 - 2 ** (n - 1) * lam * opt.u[s] / opt.nu[j]


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 9))
def test_regime_scalars_tables_are_complete(regime, n):
    for s in pair_sectors(n):
        lo, hi = pair_weights(regime, n, s)
        # a normalizable pair: a nonzero j = s + 1/2 share
        assert lo >= 0 < hi and lo + hi <= 1
    if regime is not Regime.DPBT:
        for j, s in adjacent_pairs(n):
            assert 0 <= failure_eigenvalue(regime, n, j, s) <= 1
