import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import kept_entry, pair_sectors
from portsim.halfint import HALF, ZERO, HalfInt, valid_total_spin, valid_z_component
from portsim.povm_analytic import port_eigensystem
from portsim.schur import enumerate_labels
from portsim.spinalg import (
    Regime,
    UnsupportedCouplingError,
    adjacent_pairs,
    chain_multiplicity,
    clebsch_gordan,
    failure_eigenvalue,
    optimal_scalars,
    rho_eigenvalue,
    pair_weights,
    spin_values,
    weight_norm,
)


def h(twice: int) -> HalfInt:
    return HalfInt(twice)


# ------------------------------------------------------------- HalfInt ----

def test_halfint_construction_and_formatting():
    assert HalfInt.of(1).twice == 2
    assert HalfInt.of(0.5).twice == 1
    assert str(h(3)) == "3/2"
    assert str(h(4)) == "2"
    assert HALF.twice == 1 and ZERO.twice == 0
    assert h(3).as_fraction() == Fraction(3, 2)
    assert HalfInt.of(1.5).twice == 3


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_halfint_arithmetic_matches_fractions(a, b):
    # spins add and subtract through their twice values
    assert HalfInt(h(a).twice + h(b).twice).as_fraction() == Fraction(a + b, 2)
    assert HalfInt(h(a).twice - h(b).twice).as_fraction() == Fraction(a - b, 2)
    assert (h(a) < h(b)) == (a < b)


def test_halfint_admissibility_checks():
    # one qubit carries spin 1/2 only
    assert valid_total_spin(1, HALF)
    assert not valid_total_spin(1, ZERO)
    # parity: n qubits give integer spin iff n even
    assert valid_total_spin(4, h(4)) and not valid_total_spin(4, h(3))
    assert not valid_total_spin(2, h(4))  # above n/2
    assert valid_z_component(h(2), h(-2))
    assert not valid_z_component(h(2), h(1))   # parity mismatch
    assert not valid_z_component(h(2), h(4))   # |m| > s


def test_spin_values_descend_in_unit_steps():
    assert [s.twice for s in spin_values(4)] == [4, 2, 0]
    assert [s.twice for s in spin_values(5)] == [5, 3, 1]
    assert spin_values(1) == (HALF,)


# ------------------------------------------------------ Clebsch-Gordan ----

def test_cg_stretched_state_is_one():
    assert clebsch_gordan(HALF, HALF, HALF, HALF, h(2), h(2)) == pytest.approx(1.0)


def test_cg_singlet_minus_branch():
    got = clebsch_gordan(HALF, h(-1), HALF, HALF, ZERO, ZERO)
    assert got == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_cg_z_conservation_gives_zero():
    assert clebsch_gordan(HALF, HALF, HALF, HALF, h(2), ZERO) == 0.0


def test_cg_rejects_large_second_spin():
    with pytest.raises(UnsupportedCouplingError):
        clebsch_gordan(h(2), h(2), h(2), ZERO, h(4), h(2))


@pytest.mark.parametrize("j1_twice", range(1, 17))
def test_cg_coupling_matrix_is_orthogonal(j1_twice):
    # For fixed (j1, M) the coefficients over (m1, m2) x J form an
    # orthogonal matrix; scan every M reachable by adding spin 1/2.
    j1 = h(j1_twice)
    js = [h(j1_twice + 1)] + ([h(j1_twice - 1)] if j1_twice >= 1 else [])
    for m_twice in range(-j1_twice - 1, j1_twice + 2, 2):
        m = h(m_twice)
        cols = []
        for big_j in js:
            if not valid_z_component(big_j, m):
                continue
            col = [clebsch_gordan(j1, h(m_twice - m2_twice), HALF, h(m2_twice), big_j, m)
                   for m2_twice in (1, -1)]
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
    assert rho_eigenvalue(2, h(j_twice), h(s_twice)) == expect


def test_rho_eigenvalue_rejects_non_adjacent_pair():
    with pytest.raises(ValueError):
        rho_eigenvalue(2, h(2), h(5))


@pytest.mark.parametrize("n", range(1, 7))
def test_rho_eigenvalue_trace_identity(n):
    total = sum(rho_eigenvalue(n, lab.j, lab.s) for lab in enumerate_labels(n + 1))
    assert total == Fraction(n)


# ------------------------------------------------------ sector scalars ----

@pytest.mark.parametrize("n", range(1, 7))
def test_dpbt_sector_eigenvalue_is_one_below_maximal(n):
    assert sum(pair_weights(Regime.DPBT, n, h(n - 1))) == Fraction(1)


def test_sector_eigenvalue_examples():
    assert sum(pair_weights(Regime.PPBT_MES, 3, ZERO)) == Fraction(2, 3)
    # maximal-spin sector of the deterministic measurement
    top = {e.value_exact for e in port_eigensystem(Regime.DPBT, 4).entries
           if e.labels[0].s == h(5)}
    assert top == {Fraction(1, 4)}


def test_sector_eigenvalue_rejects_non_pair_sector():
    with pytest.raises(ValueError):
        pair_weights(Regime.PPBT_MES, 2, h(4))


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 9))
def test_pair_weights_sum_to_the_sector_eigenvalue(regime, n):
    # lo + hi is the sector eigenvalue, lo / (lo + hi) its j = s - 1/2 share
    for s in pair_sectors(n):
        t = s.twice
        lo, hi = pair_weights(regime, n, s)
        if regime is Regime.DPBT:
            assert lo + hi == Fraction(4 * (n + 1), (n + 1 - t) * (n + 3 + t))
        elif regime is Regime.PPBT_MES:
            assert lo + hi == Fraction(4, n + 3 + t)
            assert lo / (lo + hi) == Fraction(t, 2 * (t + 1))
        else:
            opt = optimal_scalars(n)
            assert hi == opt.u[s] * Fraction(t + 2, t + 1) / (2 * opt.nu[h(t + 1)])


def test_rotation_pair_mes_half_sector():
    lo, hi = pair_weights(Regime.PPBT_MES, 2, HALF)
    assert (lo / (lo + hi), hi / (lo + hi)) == (Fraction(1, 4), Fraction(3, 4))
    w_minus, w_plus = kept_entry(Regime.PPBT_MES, 2, HALF).coeffs
    assert w_minus == pytest.approx(0.5, abs=1e-15)
    assert w_plus == pytest.approx(-math.sqrt(3) / 2, abs=1e-15)


def test_rotation_pair_zero_sector_is_axis_vector():
    assert pair_weights(Regime.PPBT_MES, 3, ZERO)[0] == 0
    assert kept_entry(Regime.PPBT_MES, 3, ZERO).coeffs == (-1.0,)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 7))
def test_rotation_pairs_unit_norm_and_orthogonal_complement(regime, n):
    families: dict = {}
    for entry in port_eigensystem(regime, n).entries:
        if len(entry.labels) == 2:
            families.setdefault(entry.labels, []).append(entry)
    for kept, zero in families.values():
        w_minus, w_plus = kept.coeffs
        assert w_minus ** 2 + w_plus ** 2 == pytest.approx(1.0, abs=1e-12)
        # the discarded direction is the explicit orthogonal complement
        assert zero.value_exact == 0 and zero.coeffs == (w_plus, -w_minus)
        dot = w_minus * zero.coeffs[0] + w_plus * zero.coeffs[1]
        assert dot == pytest.approx(0.0, abs=1e-15)


def test_rotation_pair_rejects_maximal_sector():
    with pytest.raises(ValueError):
        pair_weights(Regime.DPBT, 2, h(3))


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("n", range(1, 9))
def test_sector_checks_accept_exactly_the_pair_sectors(regime, n):
    for st in range(-2, n + 4):
        if h(st) in pair_sectors(n):
            pair_weights(regime, n, h(st))
        else:
            with pytest.raises(ValueError, match="not a pair sector"):
                pair_weights(regime, n, h(st))


# ----------------------------------------------------- rational tables ----

def test_weight_norm_single_port():
    assert weight_norm(1) == Fraction(1, 4)


def test_chain_multiplicity_examples():
    assert chain_multiplicity(2, h(2)) == 1
    assert chain_multiplicity(2, ZERO) == 1
    assert chain_multiplicity(4, h(2)) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_multiplicity_dimension_identity(n):
    total = sum(chain_multiplicity(n, s) * (s.twice + 1) for s in spin_values(n))
    assert total == 2 ** n


def test_optimal_scalars_three_ports():
    opt = optimal_scalars(3)
    assert opt.nu[h(3)] == Fraction(8, 5)
    assert opt.nu[h(1)] == Fraction(2, 5)
    assert opt.u[h(2)] == Fraction(4, 5)
    assert opt.u[ZERO] == Fraction(4, 15)


def test_optimal_scalars_are_shared_read_only_tables():
    opt = optimal_scalars(4)
    assert optimal_scalars(4) is opt
    for table in (opt.nu, opt.u):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 0


def test_failure_eigenvalue_values():
    # kept branch j = s - 1/2 carries the herald weight, the other is empty
    assert failure_eigenvalue(Regime.PPBT_MES, 2, ZERO, HALF) == Fraction(2, 3)
    assert failure_eigenvalue(Regime.PPBT_MES, 2, h(2), HALF) == 0
    value = failure_eigenvalue(Regime.PPBT_OPT, 2, h(2), HALF)
    lam = rho_eigenvalue(2, h(2), HALF)
    opt = optimal_scalars(2)
    assert value == 1 - 2 * lam * opt.u[HALF] / opt.nu[h(2)]


def test_dpbt_has_no_failure_outcome():
    with pytest.raises(ValueError):
        failure_eigenvalue(Regime.DPBT, 2, h(2), h(1))


# ------------------------------------------------- regime-level scans ----

@pytest.mark.parametrize("n", range(1, 9))
def test_dpbt_sector_eigenvalues_bounded_by_one(n):
    values = {s: sum(pair_weights(Regime.DPBT, n, s)) for s in pair_sectors(n)}
    for s, value in values.items():
        assert 0 < value <= 1
        assert (value == 1) == (s.twice == n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_sector_eigenvalues_bounded(n):
    # N/4 times the sector value never exceeds N/(N+3)
    for s in pair_sectors(n):
        scaled = Fraction(n, 4) * sum(pair_weights(Regime.PPBT_MES, n, s))
        assert scaled <= Fraction(n, n + 3) < 1


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_failure_eigenvalue_peaks_at_maximal_spin(n):
    s_top = h(n + 1)
    for s_twice in range(s_top.twice % 2, n + 2, 2):
        s = h(s_twice)
        j = h(s_twice - 1)
        if j.twice < 0 or not valid_total_spin(n, j):
            continue
        tau = failure_eigenvalue(Regime.PPBT_MES, n, j, s)
        assert 0 < tau <= 1
        assert (tau == 1) == (s == s_top)


@pytest.mark.parametrize("n", range(1, 9))
def test_mes_failure_complements_eigenvalue_ratio(n):
    # herald weight is one minus the ratio of the two sector eigenvalues
    for s in pair_sectors(n):
        j_low, j_high = h(s.twice - 1), h(s.twice + 1)
        if j_low.twice < 0 or not valid_total_spin(n, j_low):
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
