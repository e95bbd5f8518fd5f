"""Discrete spectrum of H = -Delta + V on symmetric functions.

The eigenproblem is solved on the reduced variable w = r*g with Dirichlet
ends, which excludes the non-decaying zero resonance from the discrete point
spectrum automatically.  LAPACK's tridiagonal solvers give the minimal
eigenpair by index and count the eigenvalues in (-inf, 0]; the count doubles
as the "exactly one negative symmetric eigenvalue" hypothesis check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from . import soliton
from .grid import FOUR_PI, RadialField, RadialGrid, inner_product, laplacian, pair_w


class SpectralError(RuntimeError):
    """Raised when the discrete spectrum violates the expected structure."""


@dataclass(frozen=True)
class SpectralData:
    """Ground-state pair of H plus the pairing constants the dynamics needs."""

    grid: RadialGrid
    a: float
    k: float
    g: RadialField
    resonance: RadialField          # dphi_da at the given scale
    pairing_VdaPhi: float           # <V, dphi_da>, R->2R extrapolated
    gg_w: float                     # <g, g> in the scheme pairing
    overlap_g_resonance: float      # discrete <g, dphi_da>, O(dr^2) small
    residual: float                 # ||H g + k^2 g||_2
    negative_count: int


def ground_state(grid, a=1.0):
    """Minimal eigenpair (k, g) of -Delta + V(a) restricted to symmetric functions.

    Asserts that the minimal eigenvalue is negative and the unique negative
    one; aborts with a diagnostic otherwise (a too-coarse grid shows up as a
    missing negative eigenvalue).
    """
    soliton.check_scale(a)
    r = grid.r
    dr = grid.dr
    interior = r[1:-1]
    diag = 2.0 / dr**2 + soliton.potential(interior, a)
    off = np.full(grid.n - 3, -1.0 / dr**2)

    lams, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    lam = float(lams[0])
    if lam >= 0.0:
        raise SpectralError(
            f"no negative eigenvalue on grid (R={grid.R}, n={grid.n}); grid too coarse"
        )
    n_neg = len(eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, 0.0)))
    if n_neg != 1:
        raise SpectralError(
            f"expected exactly one negative symmetric eigenvalue, found {n_neg}"
        )

    gvals = np.zeros(grid.n)
    gvals[1:-1] = vecs[:, 0] / interior
    gvals[0] = (4.0 * gvals[1] - gvals[2]) / 3.0
    g = RadialField(grid, gvals)
    nrm = np.sqrt(inner_product(g, g))
    sign = np.sign(gvals[1]) or 1.0
    g = RadialField(grid, gvals / (nrm * sign))

    k = float(np.sqrt(-lam))
    resonance = soliton.dphi_da_field(grid, a)

    # eigen-residual through the same grid Laplacian stencil
    res = RadialField(
        grid,
        -laplacian(g).values + soliton.potential(r, a) * g.values + k * k * g.values,
    )
    res_vals = res.values.copy()
    res_vals[0] = 0.0  # origin row is not part of the reduced eigenproblem
    res_vals[-1] = 0.0
    residual = float(np.sqrt(inner_product(RadialField(grid, res_vals), RadialField(grid, res_vals))))

    return SpectralData(
        grid=grid,
        a=float(a),
        k=k,
        g=g,
        resonance=resonance,
        pairing_VdaPhi=resonance_pairing(grid, a),
        gg_w=pair_w(g, g),
        overlap_g_resonance=inner_product(g, resonance),
        residual=residual,
        negative_count=n_neg,
    )


def resonance_pairing(grid, a=1.0):
    """<V, dphi_da> with the R -> 2R Richardson step.

    The integrand decays like r^-3 after the volume weight, so plain
    truncation at R carries an O(R^-2) tail; evaluating at R and 2R at the
    same dr and extrapolating removes it.
    """

    def simpson_pair(R, n):
        mesh = RadialGrid(R, n)
        r = mesh.r
        integrand = soliton.resonance_weight(r, a) * r * r
        return FOUR_PI * float(np.sum(mesh.simpson_weights * integrand))

    I1 = simpson_pair(grid.R, grid.n)
    I2 = simpson_pair(2.0 * grid.R, 2 * grid.n - 1)
    return I2 + (I2 - I1) / 3.0


def project_continuous(f, S):
    """P_c f = f - <f, g> g; idempotent, annihilates g."""
    return RadialField(f.grid, f.values - inner_product(f, S.g) * S.g.values)


def x_pm(u0, u1, S):
    """Coordinates along the exponentially growing/decaying modes.

    u0 and u1 are stacks of rows (the last axis is the grid), each row
    paired with g by composite Simpson as in inner_product:
    x_pm = (2k)^(-1/2) (k <u0, g> +/- <u1, g>).  The growing coordinate is
    x_plus: under the linearized flow, data (g, k g) gives d/dt x_plus =
    +k x_plus with x_minus = 0 (verified empirically in the test suite;
    display bookkeeping elsewhere writes the same pair with the opposite
    role assignment, so the ordering here is pinned by the dynamics).
    """
    grid = S.grid
    wg = FOUR_PI * grid.simpson_weights * grid.r**2 * S.g.values
    ov = u0 @ wg
    rate = u1 @ wg
    c = 1.0 / np.sqrt(2.0 * S.k)
    return c * (S.k * ov + rate), c * (S.k * ov - rate)


def secular_coefficient(S):
    """4 pi / <V, dphi_da>^2, the scalar in front of the secular rank-one term."""
    return FOUR_PI / S.pairing_VdaPhi**2


def spectrum_report(S):
    return {
        "R": S.grid.R,
        "n": S.grid.n,
        "a": S.a,
        "k": S.k,
        "residual": S.residual,
        "overlap_g_daPhi": S.overlap_g_resonance,
        "pairing_VdaPhi": S.pairing_VdaPhi,
        "negative_count": S.negative_count,
    }
