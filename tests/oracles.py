"""Reference implementations the tests compare the package against.

None of these has a caller in the package: each is either an independent
route to a quantity the package computes another way (the Newton
potential as the long-time limit of the accumulated sine evolution, the
rank-one secular projector, the free Duhamel superposition, the Lorentz
diagonal, the anti-diagonal sums by one bincount, the sums of a whole
Duhamel kernel, the scheme-pairing P_c that the projected linear flow
applies at every step, the inner time norms of a whole stored stack, the
whole modulation source stacks, the fixed-point h of a stored
on-manifold run, the secular split of one stored perturbed run, the
stored leapfrog and linear runs that the streamed runs replaced, the
stored nonlinear run and the whole-run extraction of its modulation that
the streamed passes replaced), a conserved quantity that checks a
propagator, a way to cut a stored trajectory that the package no longer
needs, or a formula the package uses only in another form (the quintic
nonlinearity on fields).
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

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
from solmanifold.modulation import (
    _ROWS,
    LeftModulationWindow,
    NonlinearRun,
    _modulation_proxy,
    _quintic,
    _window,
    evolve_nonlinear,
    h_fixed_point,
    shoot_h,
)
from solmanifold.norms import NormReport, TimeProfiles
from solmanifold.propagators import (
    SpaceTimeField,
    _free_slices,
    _leapfrog,
    _resonance_series,
    _secular_coefficients,
    evolve_linear_perturbed,
)
from solmanifold.spectral import _g_pairings, secular_coefficient, x_pm


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


def kernel_sums(B, dt):
    """(duhamel, secular) of a whole (M+1, M+1) Duhamel kernel B, each by one bincount.

    duhamel[m] is the trapezoid over s in [0, t_m] of B[s, t_m - s], and
    secular[m] that of Int_0^{t_m - s} B[s, lag] dlag, the inner integrals
    being the rows of C, the cumulative trapezoid of B along the lag.  The
    whole-B forms the package's block fold of the kernel must equal bit
    for bit.
    """
    C = cumulative_trapezoid(B, dx=dt)
    return (dt * (antidiagonal_sums(B) - 0.5 * (B[0] + B[:, 0])),
            dt * (antidiagonal_sums(C) - 0.5 * C[0]))


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


def nonlinearity(u, phi_a):
    """N(u, phi) = 10 phi^3 u^2 + 10 phi^2 u^3 + 5 phi u^4 + u^5, on fields."""
    return RadialField(u.grid, _quintic(u.values, phi_a.values))


def stored_secular_split(f, T, dt, S, kind, stride=1):
    """(dispersive_traj, coeff): the split of one field f of the streamed secular split, stored whole.

    One stored projected run of the data (0, f) for "sine", (f, 0) for
    "cosine", less coeff[:, None] * S.resonance.values on every row, coeff
    from f's series by the package's _secular_coefficients.  The rows the
    package's split streams in blocks must be the leading columns of
    dispersive_traj bit for bit.
    """
    series = _resonance_series(f.grid, S.a, T, dt, kind, [f])
    coeff = _secular_coefficients(series, dt, S, stride)[0]
    zero = f.grid.zeros()
    data = (zero, f) if kind == "sine" else (f, zero)
    run = stored_linear(*data, None, T, dt, a=S.a, stride=stride, project_out=S)
    return SpaceTimeField(f.grid, run.dt, run.samples - coeff[:, None] * S.resonance.values), coeff


def stored_leapfrog(grid, w0, wdot0, T, dt, force, stride=1, wg=None):
    """The (snapshots, *shape) stack of every stride-th state of a _leapfrog run, in w = r f.

    The raw states, which _leapfrog hands to no consumer (its snapshots
    are field values), read through stop, which sees every state w_m as
    it is made and here never ends the run.
    """
    rows = np.empty((int(round(T / dt)) // stride + 1, *np.shape(w0)))

    def keep(m, w):
        if m % stride == 0:
            rows[m // stride] = w

    _leapfrog(grid, w0, wdot0, T, dt, force, wg=wg, stop=keep)
    return rows


def stored_linear(u0, u1, source, T, dt, a=1.0, stride=1, project_out=None):
    """evolve_linear_perturbed's runs with every stride-th snapshot stored, dt * stride apart.

    The stored return the linear flow had before every run streamed, built
    on consume: u0 and u1 are two fields (one SpaceTimeField returned) or
    two lists of K fields (a list of K returned, one per run of the stack).
    source is None, a row source, or a SpaceTimeField sampled at dt, which
    is adapted to a row source here.  The rows are the snapshots j = 0,
    stride, 2 stride, ... of the blocks consume receives, bit for bit.
    """
    stack = not isinstance(u0, RadialField)
    u0, u1 = (list(u) if stack else [u] for u in (u0, u1))
    grid = u0[0].grid
    if isinstance(source, SpaceTimeField):
        source = SimpleNamespace(dt=source.dt, rows=len(source.samples),
                                 row=source.samples.__getitem__)
    rows = np.empty((int(round(T / dt)) + 1, len(u0), grid.n))

    def keep(block_rows, values):
        rows[block_rows] = values

    evolve_linear_perturbed(u0, u1, source, T, dt, keep, a=a, project_out=project_out)
    runs = [SpaceTimeField(grid, dt * stride, rows[::stride, k]) for k in range(len(u0))]
    return runs if stack else runs[0]


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


@dataclass
class StoredRun(NonlinearRun):
    """A NonlinearRun with its strided snapshots stored whole."""

    psi: SpaceTimeField = None      # strided psi snapshots
    dpsi_dt: SpaceTimeField = None  # strided five-point time derivative


def stored_nonlinear(psi0, psi1, T, dt, S=None, stride=1, overlap_cap=None):
    """evolve_nonlinear's run with every stride-th snapshot and its rate stored in two stacks.

    The stored route the package's nonlinear runs took before they all
    streamed, built on consume: the rows consume receives, in order, are
    the rows of psi and dpsi_dt (dt * stride apart), bit for bit.
    """
    grid = psi0.grid
    rows = int(round(T / dt)) // stride + 1
    psi, psi_t = np.empty((rows, grid.n)), np.empty((rows, grid.n))

    def keep(j, p, p_t):
        psi[j], psi_t[j] = p.values, p_t.values

    run = evolve_nonlinear(psi0, psi1, T, dt, S=S, stride=stride, overlap_cap=overlap_cap,
                           consume=keep)
    kept = (len(run.times_dense) - 1) // stride + 1
    return StoredRun(**vars(run), psi=SpaceTimeField(grid, dt * stride, psi[:kept]),
                     dpsi_dt=SpaceTimeField(grid, dt * stride, psi_t[:kept]))


def modulation_series(samples, S):
    """Scales a_m of the rows psi_m of a stored trajectory, and u_m = psi_m - phi(a_m).

    The whole-run extraction the passes replaced: one proxy product of all
    the rows and one root-find (the package's _modulation_proxy), u filled
    _ROWS rows at a time.  A row without a sign change across the window
    raises LeftModulationWindow naming the first such row.  Returns (a, u).
    """
    r = S.grid.r
    product, scales = _modulation_proxy(S)
    a, miss = scales([product(samples)])
    miss = np.flatnonzero(miss)
    if len(miss):
        raise LeftModulationWindow(f"row {miss[0]} has no modulation root in {_window(S)}")
    u = np.empty_like(samples)
    for start in range(0, len(a), _ROWS):
        rows = slice(start, start + _ROWS)
        np.subtract(samples[rows], soliton.phi(r, a[rows, None]), out=u[rows])
    return a, u


@dataclass
class ModulationTrajectory:
    """Extracted modulation history of a stored nonlinear run, plus diagnostics."""

    times: np.ndarray
    a: np.ndarray
    adot: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    g_overlap: np.ndarray
    u_snapshots: SpaceTimeField
    diagnostics: list = field(default_factory=list)
    adot_l1: float = 0.0


def trajectory_modulation(run, S):
    """Extract a(t), adot, x_pm, the g-overlap and the radiation's norms along a stored run."""
    psi = run.psi
    grid = psi.grid
    dt = psi.dt
    a, u_samples = modulation_series(psi.samples, S)
    adot = np.gradient(a, dt)
    u_traj = SpaceTimeField(grid, dt, u_samples)
    udot = run.dpsi_dt.samples - adot[:, None] * soliton.dphi_da(grid.r, a[:, None])
    xp, xm = x_pm(u_samples, udot, S)
    profiles = TimeProfiles.of(u_traj)
    diags = [
        NormReport(kind=kind, value=profiles.norm(outer, inner), R=grid.R, R_obs=grid.R_obs,
                   n=grid.n, dt=dt, T=psi.horizon)
        for kind, outer, inner in (
            ("L62x_Linf_t", ("lorentz", 6, 2), "Linf_t"),
            ("Linf_x_L2_t", "Linf_x", "L2_t"),
        )
    ]
    return ModulationTrajectory(
        times=psi.times,
        a=a,
        adot=adot,
        x_plus=xp,
        x_minus=xm,
        g_overlap=_g_pairings(u_samples, S),
        u_snapshots=u_traj,
        diagnostics=diags,
        adot_l1=float(np.sum(np.abs(adot)) * dt),
    )


def manifold_trajectory(S, query, T, dt, tol, stride=5, trim=4.0):
    """(ShootResult, ModulationTrajectory): shoot h at tol, store the run to T - trim, extract.

    The route adot_l1, lipschitz and the CLI's manifold took before the
    passes: one stored run per point at the experiments' snapshot stride.
    """
    res = shoot_h(query, S, T, dt, tol=tol)
    run = stored_nonlinear(*query.initial_data(S, res.h), T - trim, dt, S=S, stride=stride)
    assert run.status == "completed"
    return res, trajectory_modulation(run, S)


def stored_fixed_point_h(query, h, S, T, dt):
    """(h, tail_bound) of h_fixed_point along the stored stride-1 on-manifold run.

    The route the h_scaling experiment took before its two streamed passes:
    evolve the data at the shot h over [0, T], store every step, extract
    (a, u) by modulation_series, and assemble the whole history.  The
    streamed passes must give the same bits.
    """
    run = stored_nonlinear(*query.initial_data(S, h), T, dt, S=S)
    assert run.status == "completed"
    a, u = modulation_series(run.psi.samples, S)
    return h_fixed_point(SpaceTimeField(S.grid, dt, u), a, S,
                         pert_overlap_w=pair_w(query.psi0_perturbation, S.g),
                         psi1_overlap_w=pair_w(query.psi1, S.g))
