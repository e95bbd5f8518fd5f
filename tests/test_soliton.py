import functools

import numpy as np
import pytest

from solmanifold import soliton


def test_phi_closed_form_values():
    assert soliton.phi(0.0, 1.0) == pytest.approx(3.0**0.25, rel=1e-14)
    assert soliton.phi(2.0, 1.0) == pytest.approx(3.0**0.25 / np.sqrt(5.0), rel=1e-14)


def test_phi_scaling_identity():
    # phi(r, a) = a^(1/4) phi(sqrt(a) r, 1)
    r = np.linspace(0.0, 30.0, 500)
    for a in (0.25, 1.0, 4.0):
        lhs = soliton.phi(r, a)
        rhs = a**0.25 * soliton.phi(np.sqrt(a) * r, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-14
    assert soliton.phi(1.0, 4.0) == pytest.approx(np.sqrt(2.0) * soliton.phi(2.0, 1.0), rel=1e-14)


def test_phi_monotone_decreasing():
    r = np.linspace(0.0, 50.0, 2000)
    for a in (0.5, 1.0, 2.0):
        vals = soliton.phi(r, a)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)


def test_resonance_weight_is_potential_times_resonance(S_ref):
    r = S_ref.grid.r
    assert np.array_equal(
        soliton.resonance_weight(r, S_ref.a), soliton.potential(r, S_ref.a) * S_ref.resonance.values
    )
    for a in (0.7, 1.3):
        assert np.array_equal(
            soliton.resonance_weight(r, a), soliton.potential(r, a) * soliton.dphi_da(r, a)
        )


def test_phi_domain_error():
    with pytest.raises(ValueError):
        soliton.phi(1.0, -1.0)
    with pytest.raises(ValueError):
        soliton.dphi_da(1.0, 0.0)


def test_dphi_da_against_finite_difference():
    # centred finite difference in a with step 1e-5
    da = 1e-5
    for r in (0.0, 0.7, 3.0, 10.0):
        for a in (0.8, 1.0, 1.3):
            fd = (soliton.phi(r, a + da) - soliton.phi(r, a - da)) / (2 * da)
            assert soliton.dphi_da(r, a) == pytest.approx(fd, rel=1e-8, abs=1e-10)
    assert soliton.dphi_da(0.0, 1.0) == pytest.approx(3.0**0.25 / 4.0, rel=1e-14)


def test_dphi_da_tail():
    # r * dphi_da -> -3^(1/4)/4, confirming the non-decaying 1/r resonance tail
    r = 1e3
    assert r * soliton.dphi_da(r, 1.0) == pytest.approx(-(3.0**0.25) / 4.0, rel=1e-5)


def test_resonance_mass_grows_like_sqrt_R():
    # L^2 mass over B_R of the resonance grows ~ sqrt(R): fit the exponent
    masses = []
    Rs = (100.0, 200.0, 400.0)
    for R in Rs:
        r = np.linspace(0, R, 4001)
        f = soliton.dphi_da(r, 1.0)
        m = np.sqrt(np.trapezoid(4 * np.pi * r * r * f * f, r))
        masses.append(m)
    slope = np.polyfit(np.log(Rs), np.log(masses), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_potential_values_and_tail():
    assert soliton.potential(0.0, 1.0) == pytest.approx(-15.0, rel=1e-14)
    assert soliton.potential(1.0, 1.0) == pytest.approx(-15.0 / 4.0, rel=1e-14)
    # tail: phi^4 ~ 3 r^-4, so r^4 V -> -15 (consistent with V(0) = -15
    # since (1+r^2)^-2 carries the whole r-dependence)
    r = 1e3
    assert r**4 * soliton.potential(r, 1.0) == pytest.approx(-15.0, rel=1e-5)


def test_defect_vanishes_at_one():
    r = np.linspace(0.0, 40.0, 300)
    assert np.max(np.abs(soliton.resonance_defect_profile(r, 1.0, 1.0))) < 1e-15


def test_defect_window_guard():
    with pytest.raises(ValueError):
        soliton.resonance_defect_profile(1.0, 2.5, 1.0)


def test_defect_is_relative_to_its_centre():
    # phi(r, 16 a) = 2 phi(4 r, a) gives dphi_da(r, 16 a) = dphi_da(4 r, a) / 8,
    # so the defect about centre 16 is the defect about 1, rescaled
    r = np.linspace(0.0, 10.0, 401)
    assert np.array_equal(soliton.resonance_defect_profile(r, 4.0, 4.0), np.zeros_like(r))
    for a in (0.6, 1.3, 1.9):
        got = soliton.resonance_defect_profile(r, 16.0 * a, 16.0)
        ref = soliton.resonance_defect_profile(4.0 * r, a, 1.0) / 8.0
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # the window is centre * DEFECT_WINDOW: 2.5 lies inside it about 4, 8.5 not
    soliton.resonance_defect_profile(r, 2.5, 4.0)
    with pytest.raises(ValueError):
        soliton.resonance_defect_profile(r, 8.5, 4.0)


def test_defect_is_localized_and_linear_in_a():
    # sup <r>^3 |defect(r, a)| <= C |a-1| with one C fitted over a = 0.9, 1.1
    r = np.linspace(0.0, 200.0, 8001)
    bracket = (1.0 + r * r) ** 1.5
    Cs = []
    for a in (0.9, 1.1):
        prof = soliton.resonance_defect_profile(r, a, 1.0)
        Cs.append(np.max(bracket * np.abs(prof)) / abs(a - 1.0))
    C = max(Cs)
    for a in (0.95, 1.05):
        prof = soliton.resonance_defect_profile(r, a, 1.0)
        assert np.max(bracket * np.abs(prof)) <= 1.05 * C * abs(a - 1.0)


def test_defect_matches_independent_construction():
    # direct evaluation vs the definition assembled from phi by finite difference
    da = 1e-6
    r = np.linspace(0.0, 10.0, 101)
    a = 1.1
    fd = (soliton.phi(r, a + da) - soliton.phi(r, a - da)) / (2 * da)
    expected = fd - a**-1.25 * soliton.dphi_da(r, 1.0)
    got = soliton.resonance_defect_profile(r, a, 1.0)
    assert np.max(np.abs(got - expected)) < 1e-7


PROFILES = (
    soliton.phi,
    soliton.dphi_da,
    soliton.potential,
    functools.partial(soliton.resonance_defect_profile, centre=1.0),
)


def test_profiles_broadcast_over_scales_bit_for_bit():
    # a column of scales against r gives, row by row, the scalar evaluations
    r = np.linspace(0.0, 40.0, 801)
    a = np.random.default_rng(7).uniform(0.5, 1.5, 57)
    a[0] = 1.0
    for prof in PROFILES:
        rows = prof(r, a[:, None])
        assert rows.shape == (57, 801)
        assert np.array_equal(rows, np.stack([prof(r, x) for x in a]))


def test_profiles_reject_any_bad_scale():
    r = np.linspace(0.0, 10.0, 11)
    for bad in (np.nan, 0.0, -0.5):
        a = np.array([[0.9], [bad], [1.1]])
        for prof in PROFILES:
            with pytest.raises(ValueError):
                prof(r, a)
    # every entry must lie in the defect window, not just the first
    with pytest.raises(ValueError):
        soliton.resonance_defect_profile(r, np.array([[1.0], [2.5]]), 1.0)
    with pytest.raises(ValueError):
        soliton.phi(r, np.nan)
