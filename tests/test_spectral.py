import dataclasses

import numpy as np
import pytest

from solmanifold import (
    RadialField,
    RadialGrid,
    ground_state,
    inner_product,
    l2_norm,
    project_continuous,
    x_pm,
)
from solmanifold import soliton, spectral
from solmanifold.spectral import SpectralError

from oracles import project_continuous_w, secular_projector

# continuum ground-state rate, frozen from a dense-eigensolver oracle with
# Richardson extrapolation in dr (dr -> 0 limit of the tridiagonal spectrum)
K_REF = 1.9055455


def test_ground_state_reference_rate(S_ref):
    # dr = 0.0125 carries an O(dr^2) bias ~ 8e-5; Richardson restores K_REF
    assert S_ref.k == pytest.approx(K_REF, abs=2e-4)
    g2 = RadialGrid(R=S_ref.grid.R, n=2 * S_ref.grid.n - 1)
    S2 = ground_state(g2)
    k_rich = S2.k + (S2.k - S_ref.k) / 3.0
    assert k_rich == pytest.approx(K_REF, abs=2e-6)


def test_normalization_and_sign(S_ref):
    assert l2_norm(S_ref.g) == pytest.approx(1.0, rel=1e-12)
    assert S_ref.g.values[0] > 0


def test_k_stable_under_R_doubling(S_ref):
    gg = RadialGrid(R=2 * S_ref.grid.R, n=2 * S_ref.grid.n - 1)
    S2 = ground_state(gg)
    assert abs(S2.k - S_ref.k) < 1e-8


def test_scaling_law_k4(S_ref, spec_grid):
    # k(a) = sqrt(a) k(1), checked through Richardson pairs at both scales
    gh = RadialGrid(R=spec_grid.R, n=2 * spec_grid.n - 1)
    k1 = ground_state(gh).k
    k1_rich = k1 + (k1 - S_ref.k) / 3.0
    S4 = ground_state(spec_grid, a=4.0)
    S4h = ground_state(gh, a=4.0)
    k4_rich = S4h.k + (S4h.k - S4.k) / 3.0
    assert abs(k4_rich - 2.0 * k1_rich) < 1e-4


def test_residual_and_orthogonality(S_ref, spec_grid):
    assert S_ref.residual < 1e-6
    assert abs(S_ref.overlap_g_resonance) < 1e-4
    gh = RadialGrid(R=spec_grid.R, n=2 * spec_grid.n - 1)
    Sh = ground_state(gh)
    assert abs(Sh.overlap_g_resonance) < abs(S_ref.overlap_g_resonance)


def test_exponential_decay_diagnostic(S_ref):
    # log|g| + k r + log r bounded on [R/4, R/2]
    g = S_ref.g.values
    r = S_ref.grid.r
    m = (r > S_ref.grid.R / 4) & (r < S_ref.grid.R / 2) & (np.abs(g) > 0)
    diag = np.log(np.abs(g[m])) + S_ref.k * r[m] + np.log(r[m])
    assert diag.max() - diag.min() < 2.0


def test_unique_negative_eigenvalue(S_ref):
    assert S_ref.negative_count == 1


def _dense_spectrum(grid, scale=1.0):
    """Eigenvalues of the reduced Dirichlet matrix of -Delta + scale * V."""
    r = grid.r[1:-1]
    off = np.full(grid.n - 3, -1.0 / grid.dr**2)
    H = np.diag(2.0 / grid.dr**2 + scale * soliton.potential(r, 1.0))
    return np.linalg.eigvalsh(H + np.diag(off, 1) + np.diag(off, -1))


def test_negative_count_against_dense_solver():
    grid = RadialGrid(R=20.0, n=201)
    S = ground_state(grid)
    lams = _dense_spectrum(grid)
    assert S.k == pytest.approx(np.sqrt(-lams[0]), rel=1e-12)
    assert S.negative_count == int(np.sum(lams < 0)) == 1


def _lapack_pair(grid, V):
    """LAPACK's ground pair and negative count of the same tridiagonal (the oracle)."""
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    diag = 2.0 / grid.dr**2 + V
    off = np.full(len(V) - 1, -1.0 / grid.dr**2)
    lams, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    n_neg = len(eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, 0.0)))
    return float(lams[0]), vecs[:, 0], n_neg


@pytest.mark.parametrize("a", [1.0, 4.0])
@pytest.mark.parametrize("n", [201, 801, 1601, 3201])
def test_ground_state_against_lapack(monkeypatch, n, a):
    # the same SpectralData with LAPACK's eigenpair in place of the Sturm
    # count and Rayleigh-quotient iteration; g compared after the sign fix
    grid = RadialGrid(R=20.0, n=n)
    S = ground_state(grid, a)
    monkeypatch.setattr(spectral, "_ground_pair", _lapack_pair)
    L = ground_state(grid, a)
    assert S.k == pytest.approx(L.k, rel=1e-12)
    assert np.max(np.abs(S.g.values - L.g.values)) <= 1e-12
    assert S.negative_count == L.negative_count == 1
    assert S.residual <= 2.0 * L.residual


def test_sturm_count_against_lapack_on_a_deep_well():
    # 30 V binds several states: the negative pivots at every shift between
    # two of LAPACK's eigenvalues count the eigenvalues below it
    from scipy.linalg import eigvalsh_tridiagonal

    grid = RadialGrid(R=20.0, n=201)
    V = 30.0 * soliton.potential(grid.r[1:-1])
    lams = eigvalsh_tridiagonal(2.0 / grid.dr**2 + V, np.full(len(V) - 1, -1.0 / grid.dr**2))
    m = int(np.sum(lams < 0.0))
    assert m > 2
    shifts = np.concatenate([[lams[0] - 1.0], 0.5 * (lams[:m] + lams[1 : m + 1]), [0.0]])
    counts = [sum(p < 0.0 for p in spectral._pivots(V, sigma, grid.dr**2)) for sigma in shifts]
    assert counts == [int(np.sum(lams < sigma)) for sigma in shifts]


def test_no_negative_eigenvalue_error(monkeypatch):
    # sign-flipped potential is repulsive: no bound state at any resolution
    potential = soliton.potential
    monkeypatch.setattr(soliton, "potential", lambda r, a=1.0: -potential(r, a))
    with pytest.raises(SpectralError, match="no negative eigenvalue"):
        ground_state(RadialGrid(R=20.0, n=1601))


def test_several_negative_eigenvalues_error(monkeypatch):
    # a 30x deeper well binds several states; the error names their count
    grid = RadialGrid(R=20.0, n=201)
    count = int(np.sum(_dense_spectrum(grid, 30.0) < 0))
    assert count > 1
    potential = soliton.potential
    monkeypatch.setattr(soliton, "potential", lambda r, a=1.0: 30.0 * potential(r, a))
    with pytest.raises(SpectralError, match=f"found {count}$"):
        ground_state(grid)


def test_projection_examples(S_ref, rng):
    g = S_ref.grid
    # P_c g = 0
    pg = project_continuous(S_ref.g, S_ref)
    assert l2_norm(pg) < 1e-12
    # P_c dphi ~ dphi up to the small overlap
    res = S_ref.resonance
    pres = project_continuous(res, S_ref)
    assert l2_norm(RadialField(g, pres.values - res.values)) <= abs(
        S_ref.overlap_g_resonance
    ) + 1e-12
    # idempotence on random fields
    f = g.field(rng.standard_normal(g.n))
    p1 = project_continuous(f, S_ref)
    p2 = project_continuous(p1, S_ref)
    assert l2_norm(RadialField(g, p2.values - p1.values)) < 1e-12 * l2_norm(f)


def test_x_pm_mode_coordinates(S_ref):
    k = S_ref.k
    g = S_ref.g
    # one stack: the growing data (g, k g) above the decaying (g, -k g)
    xp, xm = x_pm(np.stack([g.values, g.values]), np.stack([k * g.values, -k * g.values]), S_ref)
    assert xp[0] == pytest.approx(np.sqrt(2 * k), rel=1e-12)
    assert abs(xm[0]) < 1e-12
    assert abs(xp[1]) < 1e-12
    assert xm[1] == pytest.approx(np.sqrt(2 * k), rel=1e-12)


def test_x_pm_kills_continuous_data(S_ref, rng):
    grid = S_ref.grid
    f = project_continuous(grid.field(rng.standard_normal(grid.n)), S_ref)
    h = project_continuous(grid.field(rng.standard_normal(grid.n)), S_ref)
    xp, xm = x_pm(f.values, h.values, S_ref)
    assert abs(xp) < 1e-10 and abs(xm) < 1e-10


def test_secular_projector(S_ref, rng):
    grid = S_ref.grid
    q = RadialField(grid, soliton.potential(grid.r, 1.0) * S_ref.resonance.values)
    # <dphi, V dphi> oracle: equals -||grad dphi||^2 (high-resolution quadrature)
    PAIR_RES_VRES = -1.0016400160
    val = inner_product(S_ref.resonance, q)
    assert val == pytest.approx(PAIR_RES_VRES, rel=1e-3)
    out = secular_projector(S_ref.resonance, S_ref)
    coeff = -4.0 * np.pi / S_ref.pairing_VdaPhi**2 * val
    assert np.allclose(out.values, coeff * S_ref.resonance.values, atol=1e-12)
    # annihilates fields orthogonal to V dphi (Gram-Schmidt construction)
    b = grid.field(rng.standard_normal(grid.n))
    b2 = RadialField(grid, b.values - inner_product(b, q) / inner_product(q, q) * q.values)
    assert np.max(np.abs(secular_projector(b2, S_ref).values)) < 1e-10
    # linearity
    f = grid.field(np.exp(-grid.r))
    assert np.allclose(
        secular_projector(RadialField(grid, 3.0 * f.values), S_ref).values,
        3.0 * secular_projector(f, S_ref).values,
        rtol=1e-12,
    )


def test_downstream_invariance_under_g_sign_flip(S_ref, rng):
    flipped = dataclasses.replace(
        S_ref, g=RadialField(S_ref.grid, -S_ref.g.values)
    )
    grid = S_ref.grid
    f = grid.field(rng.standard_normal(grid.n))
    p1 = project_continuous(f, S_ref)
    p2 = project_continuous(f, flipped)
    assert np.allclose(p1.values, p2.values, atol=1e-12)
    w1 = project_continuous_w(f, S_ref)
    w2 = project_continuous_w(f, flipped)
    assert np.allclose(w1.values, w2.values, atol=1e-12)
