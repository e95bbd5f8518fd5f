import pickle

import numpy as np
import pytest

from solmanifold import (
    GridUsageError,
    RadialGrid,
    h1_seminorm,
    inner_product,
    l2_norm,
    laplacian,
    weighted_norm,
)
from solmanifold import soliton
from solmanifold.experiments import _csv
from solmanifold.grid import pair_w

from oracles import from_csv

INT_PHI6 = 3.0**1.5 * np.pi**2 / 4.0  # = ||grad phi||^2 by the Pohozaev identity


def test_constructor_rounds_to_odd_and_guards():
    g = RadialGrid(R=10.0, n=100)
    assert g.n == 101
    assert g.r[0] == 0.0 and g.r[-1] == 10.0
    with pytest.raises(ValueError):
        RadialGrid(R=10.0, n=8)
    with pytest.raises(ValueError):
        RadialGrid(R=-1.0, n=100)


def test_obs_slice_on_and_between_nodes():
    # dr = 1/8 is exact in binary, so the node radii are exact multiples of it
    g = RadialGrid(R=16.0, n=129, R_obs=4.0)
    assert g.obs_slice() == g.obs_slice(4.0) == slice(0, 33)
    for j in (0, 1, 7, 64, 128):
        on = g.obs_slice(j * g.dr)
        between = g.obs_slice((j + 0.5) * g.dr)
        assert on == between == slice(0, j + 1)
        assert np.array_equal(g.r[on], g.r[g.r <= (j + 0.5) * g.dr])
    assert g.r[g.obs_slice(0.99 * g.dr)].tolist() == [0.0]


def test_causality_budget():
    g = RadialGrid(R=40.0, n=401, R_obs=10.0)
    g.require_budget(30.0)
    with pytest.raises(GridUsageError):
        g.require_budget(31.0)


def test_inner_product_phi6_oracle():
    g = RadialGrid(R=200.0, n=4001)
    f = g.field(soliton.phi(g.r, 1.0) ** 3)
    val = inner_product(f, f)
    assert val == pytest.approx(INT_PHI6, rel=1e-6)


def test_inner_product_resonance_pairing_tracked_at_2R():
    from solmanifold import resonance_pairing

    g = RadialGrid(R=200.0, n=8001)
    val = resonance_pairing(g)
    assert val == pytest.approx(np.pi * 3.0**0.25, rel=1e-4)


def test_inner_product_symmetry(rng):
    g = RadialGrid(R=20.0, n=201)
    f = g.field(rng.standard_normal(g.n))
    h = g.field(rng.standard_normal(g.n))
    assert inner_product(f, h) == pytest.approx(inner_product(h, f), rel=1e-14)


def test_grid_mismatch_raises():
    g1 = RadialGrid(R=20.0, n=201)
    g2 = RadialGrid(R=20.0, n=301)
    with pytest.raises(GridUsageError):
        inner_product(g1.zeros(), g2.zeros())


def test_laplacian_on_soliton():
    # -lap(phi) = phi^5 with max-norm error O(dr^2), factor ~4 per halving
    errs = []
    for n in (2001, 4001):
        g = RadialGrid(R=100.0, n=n)
        phi_f = soliton.phi_field(g)
        res = laplacian(phi_f).values + phi_f.values**5
        half = g.r <= g.R / 2
        errs.append(np.max(np.abs(res[half])))
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_laplacian_constant_and_eigenfunction():
    g = RadialGrid(R=10.0, n=801)
    c = g.field(np.full(g.n, 2.5))
    lap = laplacian(c).values
    assert np.max(np.abs(lap[1:-1])) < 1e-10
    # f = sin(pi r / R)/r is a Dirichlet eigenfunction of the reduced problem
    vals = np.empty(g.n)
    vals[1:] = np.sin(np.pi * g.r[1:] / g.R) / g.r[1:]
    vals[0] = np.pi / g.R
    f = g.field(vals)
    lam = (np.pi / g.R) ** 2
    res = -laplacian(f).values - lam * f.values
    interior = slice(1, g.n - 1)
    assert np.max(np.abs(res[interior])) < lam * 1e-3


def test_laplacian_self_adjointness():
    g = RadialGrid(R=200.0, n=4001)
    f = g.field(np.exp(-((g.r - 3.0) ** 2)))
    h = g.field(np.exp(-0.5 * (g.r - 5.0) ** 2))
    asym = abs(inner_product(laplacian(f), h) - inner_product(f, laplacian(h)))
    assert asym < 1e-8 * l2_norm(f) * l2_norm(h)


def test_resonance_equation_refines():
    errs = []
    for n in (2001, 4001):
        g = RadialGrid(R=100.0, n=n)
        res_f = soliton.dphi_da_field(g)
        res = -laplacian(res_f).values + soliton.potential(g.r, 1.0) * res_f.values
        half = g.r <= g.R / 2
        errs.append(np.max(np.abs(res[half])))
    assert errs[1] < errs[0] / 3.0


def test_h1_seminorm_pohozaev():
    # the w-form reproduces the full-space H1 norm of phi up to O(R^-3)
    # truncation plus an O(dr^2) midpoint bias (coefficient 4pi/12 Int v''^2)
    errs = []
    for n in (4001, 8001):
        g = RadialGrid(R=200.0, n=n)
        val = h1_seminorm(soliton.phi_field(g)) ** 2
        errs.append(abs(val - INT_PHI6) / INT_PHI6)
    assert errs[0] < 5e-4
    assert errs[1] < errs[0] / 3.0


def test_weighted_norm_resonance_growth_exponent():
    # <x> dphi_da ~ const at infinity, so the weighted L2 mass over B_R ~ R^{3/2}
    vals = []
    Rs = (50.0, 100.0, 200.0)
    for R in Rs:
        g = RadialGrid(R=R, n=2001)
        vals.append(weighted_norm(soliton.dphi_da_field(g), "<x>^-1 L2"))
    slope = np.polyfit(np.log(Rs), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.5, abs=0.05)


def test_weighted_norm_unknown_kind():
    g = RadialGrid(R=10.0, n=101)
    with pytest.raises(GridUsageError):
        weighted_norm(g.zeros(), "bogus")


def test_pair_w_agrees_with_simpson_on_smooth_fields():
    g = RadialGrid(R=40.0, n=1601)
    f = g.field(np.exp(-((g.r - 2.0) ** 2)))
    h = g.field(np.exp(-0.3 * (g.r - 1.0) ** 2))
    assert pair_w(f, h) == pytest.approx(inner_product(f, h), rel=1e-6)


def test_csv_roundtrip():
    g = RadialGrid(R=10.0, n=101)
    f = g.field(np.sin(g.r) * np.exp(-g.r))
    text = _csv(zip(g.r, f.values), "r,value")
    assert text.splitlines()[0] == "r,value"
    back = from_csv(text)
    assert np.array_equal(back.values, f.values)
    assert back.grid.R == g.R and back.grid.n == g.n


def test_fields_are_immutable():
    g = RadialGrid(R=10.0, n=101)
    f = g.zeros()
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    # the node radii are built once per grid and shared read-only
    assert g.r is g.r
    for grid in (g, pickle.loads(pickle.dumps(g))):
        with pytest.raises(ValueError):
            grid.r[1] = 0.0
