"""Reference implementations the tests compare the package against.

None of these has a caller in the package: each is either an independent
route to a quantity the package computes another way (the Newton
potential as the long-time limit of the accumulated sine evolution, the
rank-one secular projector, the free Duhamel superposition, the Lorentz
diagonal, the anti-diagonal sums by one bincount, the scheme-pairing P_c
that the projected linear flow applies at every step, the inner time
norms of a whole stored stack, the whole modulation source stacks, the
fixed-point h of a stored on-manifold run), a conserved quantity that
checks a propagator, or a way to cut a stored trajectory that the package
no longer needs.
"""

import numpy as np

from solmanifold import soliton
from solmanifold.grid import (
    FOUR_PI,
    RadialField,
    RadialGrid,
    cumulative_trapezoid,
    inner_product,
    pair_w,
)
from solmanifold.modulation import _modulation_series, _quintic, evolve_nonlinear, h_fixed_point
from solmanifold.propagators import SpaceTimeField, _free_slices
from solmanifold.spectral import secular_coefficient


def from_csv(text):
    """Inverse of g_profile.csv (experiments._csv): the field on the grid its r column spans."""
    rows = [ln for ln in text.strip().splitlines()[1:] if ln]
    r = np.array([float(ln.split(",")[0]) for ln in rows])
    v = np.array([float(ln.split(",")[1]) for ln in rows])
    grid = RadialGrid(R=r[-1], n=len(r))
    return grid.field(v)


def restricted(traj, T):
    """A copy of the trajectory truncated to [0, T]."""
    m = int(round(T / traj.dt))
    return SpaceTimeField(traj.grid, traj.dt, traj.samples[: m + 1].copy())


def lp_norm_cells(f, p, radius=None):
    """Plain L^p against the same cell-volume measure (the Lorentz diagonal)."""
    grid = f.grid
    vals = np.abs(f.values)
    vols = grid.cell_volumes
    if radius is not None:
        inside = grid.obs_slice(radius)
        vals = vals[inside]
        vols = vols[inside]
    return float(np.sum(vals**p * vols) ** (1.0 / p))


def spacetime_l8(u, radius=None):
    """L^8 over space-time: (Sum |u|^8 4 pi r^2 dr dt)^(1/8) inside B_{R_obs}."""
    inside = u.grid.obs_slice(radius)
    vols = u.grid.cell_volumes[inside]
    total = float(np.sum(np.abs(u.samples[:, inside]) ** 8 * vols) * u.dt)
    return total ** (1.0 / 8.0)


def kato_norm(f):
    """sup_y Int |f(x)| / |x-y| dx via Newton's theorem for radial integrands.

    Int |f(x)|/|x-y| dx = 4 pi Int_0^inf |f(rho)| rho^2 / max(rho, |y|) drho;
    computed over every grid value of |y| (the sup sits at y = 0 for
    radially decreasing |f|, but no monotonicity is assumed).
    """
    return FOUR_PI * float(np.max(newton_potential(f.grid.field(np.abs(f.values))).values))


def newton_potential(f):
    """(-Delta)^{-1} f for radial f: Int f(rho) rho^2 / max(rho, r) drho * 4 pi / (4 pi).

    Explicitly: ((-Delta)^{-1} f)(r) = Int_0^inf f(rho) rho^2 / max(rho, r) drho.
    Used as the long-time oracle for the accumulated free sine evolution.
    """
    grid = f.grid
    r = grid.r
    dr = grid.dr
    a = f.values * r * r
    b = f.values * r
    A = cumulative_trapezoid(a, dx=dr)
    B = cumulative_trapezoid(b, dx=dr)
    Btail = B[-1] - B
    vals = np.empty(grid.n)
    vals[0] = Btail[0]
    vals[1:] = A[1:] / r[1:] + Btail[1:]
    return grid.field(vals)


def inner_time_profiles(samples, dt):
    """Per-node Linf_t, L2_t and L1_t of a stored (M+1, k) stack, each in one
    reduction along time: the reference the blocked TimeProfiles must equal
    bit for bit."""
    return (
        np.max(np.abs(samples), axis=0),
        np.sqrt(np.sum(samples**2, axis=0) * dt),
        np.sum(np.abs(samples), axis=0) * dt,
    )


def antidiagonal_sums(X):
    """s[m] = sum of X[j, k] over j + k = m, by one bincount over the flattened
    (M+1, M+1) X and its index j + k: the reference the package's row loop
    must equal bit for bit."""
    idx = np.arange(X.shape[0])
    return np.bincount((idx[:, None] + idx).ravel(), weights=X.ravel())[: X.shape[0]]


def source_stacks(u0_traj, a0, adot0, S):
    """The whole (M+1, n) stacks F = (V - V(a)) u0 + N(u0, phi(a)) and D = adot0 * defect(a0).

    The package's formulas broadcast over every row at once, as it stored
    them before it made them a block at a time: the reference its blocks
    must equal bit for bit.
    """
    r = S.grid.r
    a = np.asarray(a0, dtype=float)[:, None]
    u = u0_traj.samples
    F = (soliton.potential(r, S.a) - soliton.potential(r, a)) * u + _quintic(u, soliton.phi(r, a))
    D = np.asarray(adot0, dtype=float)[:, None] * soliton.resonance_defect_profile(r, a, S.a)
    return F, D


def project_continuous_w(f, S):
    """P_c in the scheme pairing: the exact Riesz projector of the discrete flow.

    Agrees with spectral.project_continuous to quadrature accuracy; the
    distinction matters inside linear evolutions, where any leftover
    g-component is amplified by e^{kT}.
    """
    return RadialField(
        f.grid, f.values - (pair_w(f, S.g) / S.gg_w) * S.g.values
    )


def secular_projector(f, S):
    """Rank-one secular term Q f = -(4 pi / <V, dphi>^2) <f, V dphi> dphi."""
    grid = f.grid
    q = grid.field(soliton.resonance_weight(grid.r, S.a))
    coeff = -secular_coefficient(S) * inner_product(f, q)
    return RadialField(grid, coeff * S.resonance.values)


def free_duhamel(F):
    """Trapezoid-in-s superposition of sine slices: Int_0^t sin((t-s)L)/L F(s) ds."""
    grid = F.grid
    dt = F.dt
    M = F.samples.shape[0] - 1
    grid.require_budget(F.horizon)
    acc = np.zeros_like(F.samples)
    for j in range(M + 1):
        slices = _free_slices(F.slice(j), M - j, dt, "sine")
        # trapezoid end weights: the s = 0 slice halves, the s = t one vanishes
        acc[j:] += 0.5 * slices if j == 0 else slices
    return SpaceTimeField(grid, dt, acc * dt)


def transport_energy(u, ut):
    """Staggered 1D wave energy 4 pi Int (v_r^2 + v_t^2) dr on w-variables.

    Exactly shift invariant for the transport propagators when t/dr is an
    integer, so free evolutions conserve it to rounding error.
    """
    grid = u.grid
    dr = grid.dr
    v = u.w()
    vt = ut.w()
    dv = np.diff(v) / dr
    vt_mid = 0.5 * (vt[1:] + vt[:-1])
    return FOUR_PI * dr * float(np.sum(dv * dv + vt_mid * vt_mid))


def stored_fixed_point_h(query, h, S, T, dt):
    """(h, tail_bound) of h_fixed_point along the stored stride-1 on-manifold run.

    The route the h_scaling experiment took before its two streamed passes:
    evolve the data at the shot h over [0, T], store every step, extract
    (a, u) by _modulation_series, and assemble the whole history.  The
    streamed passes must give the same bits.
    """
    run = evolve_nonlinear(*query.initial_data(S, h), T, dt, S=S)
    assert run.status == "completed"
    a, u = _modulation_series(run.psi.samples, S)
    return h_fixed_point(SpaceTimeField(S.grid, dt, u), a, np.gradient(a, dt), S,
                         pert_overlap_w=pair_w(query.psi0_perturbation, S.g),
                         psi1_overlap_w=pair_w(query.psi1, S.g))
