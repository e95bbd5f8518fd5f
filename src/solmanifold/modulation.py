"""Nonlinear solver with modulation and the two manifold constructions.

The nonlinear flow is integrated in the radiation variable u = psi - phi with
the soliton's elliptic identity applied analytically (well balanced): u = 0
is then an exact equilibrium of the discrete scheme, so the O(dr^2) elliptic
residual cannot seed the unstable mode and bury epsilon^2-scale manifold
offsets.  All g-overlap bookkeeping uses the scheme pairing pair_w, in which
the discrete evolution operator is exactly self-adjoint; the fixed-point
formula for the offset h then reproduces the shooting value to quadrature
accuracy.  Every formula is centred on S.a, the scale of the SpectralData
passed in, and the modulation window is S.a * soliton.MODULATION_WINDOW.

Sign conventions are pinned by the dynamics: data along (g, +k g) grows like
e^{+kt}, so the manifold correction is taken along (g, +k g).  Written-out
solution formulas elsewhere assign the growing role to the mirror pair
(g, -k g); the shooting construction is convention free and is treated as
authoritative here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from . import soliton
from .grid import (
    FOUR_PI,
    GridUsageError,
    RadialField,
    _values_from_w,
    cumulative_trapezoid,
    h1_seminorm,
    inner_product,
    l2_norm,
    pair_w,
)
from .norms import NormReport, lorentz_norm, mixed_norm
from .propagators import (
    SpaceTimeField,
    _leapfrog,
    _resonance_transport,
    evolve_linear_perturbed,
)
from .spectral import project_continuous, secular_coefficient, x_pm

TWO = 2.0


class LeftModulationWindow(RuntimeError):
    """The state has no soliton fit inside the trusted scale window."""


class BracketError(RuntimeError):
    """Shooting could not establish, classify or close a bracket."""


def _quintic(v, p):
    """N(v, p) on arrays, in Horner form; rows of a history broadcast alike."""
    return v * v * (10.0 * p**3 + v * (10.0 * p**2 + v * (5.0 * p + v)))


def _fifth(x, out):
    """out = x^5 as (x^2)^2 x: both fifth powers of the nonlinear force."""
    np.multiply(x, x, out=out)
    np.multiply(out, out, out=out)
    return np.multiply(out, x, out=out)


def _quintic_force(r, wphi):
    """The _leapfrog force ((w_phi + w_u)^5 - w_phi^5) / r^4 of the u flow.

    Its invariants and its two buffers are made once, here; see
    evolve_nonlinear for why both fifth powers come from _fifth.
    """
    wphi_in = wphi[1:-1]
    wphi5 = _fifth(wphi_in, np.empty_like(wphi_in))
    inv_r4 = 1.0 / r[1:-1] ** 4
    wpsi = np.empty_like(wphi_in)
    quint = np.empty_like(wphi_in)

    def force(wu, m, acc):
        np.add(wphi_in, wu[1:-1], out=wpsi)
        _fifth(wpsi, quint)
        np.subtract(quint, wphi5, out=quint)
        np.multiply(quint, inv_r4, out=quint)
        acc += quint

    return force


def nonlinearity(u, phi_a):
    """N(u, phi) = 10 phi^3 u^2 + 10 phi^2 u^3 + 5 phi u^4 + u^5."""
    return RadialField(u.grid, _quintic(u.values, phi_a.values))


@dataclass
class NonlinearRun:
    """Outcome of evolve_nonlinear: trajectory plus departure bookkeeping."""

    grid: object
    dt: float
    status: str                       # "completed" | "departed" | "blowup"
    times_dense: np.ndarray
    g_overlap: np.ndarray             # <psi - phi, g>_w at every solver step (if S given)
    psi: SpaceTimeField = None        # strided psi snapshots (None: stride None)
    dpsi_dt: SpaceTimeField = None    # strided five-point time derivative
    departure_time: float = None


def evolve_nonlinear(
    psi0,
    psi1,
    T,
    dt,
    S=None,
    stride=1,
    overlap_cap=None,
):
    """Leapfrog integration of psi_tt = Delta psi + psi^5 in w = r*psi variables.

    Internally evolves u = psi - phi so the soliton is an exact discrete
    equilibrium.  The quintic enters the w equation as the force
    ((w_phi + w_u)^5 - w_phi^5) / r^4 = r[(phi+u)^5 - phi^5].  Both fifth
    powers come from one product chain, _fifth, written into preallocated
    buffers, never from **: libm pow takes a slow path on the tiny values
    a spreading wave leaves in the far field, so a pow force grew several
    times slower as a run went on.  Sharing the formula matters as much:
    a w_phi^5 rounded otherwise than the step's own fifth power would make
    the force at u = 0 a rounding error instead of exactly 0.
    A blow-up detector aborts once sup |psi| on the observation ball
    exceeds 10*phi(0, S.a); the run is returned as a typed outcome, never
    an exception.  Only every stride-th step is stored (none with stride
    None), with its time derivative (five-point centred, see
    propagators._rate) taken in the loop; both stacks become
    SpaceTimeFields in place, once, after it.
    """
    grid = psi0.grid
    r = grid.r
    # runs without S (the energy runs) have no centre; they keep their pinned frame a = 1
    phi = soliton.phi(r, 1.0 if S is None else S.a)
    ceiling = 10.0 * phi[0]
    wphi = r * phi
    obs = grid.obs_slice()
    # the blow-up test reads the observation ball without its origin node
    wphi_obs = wphi[obs][1:]
    robs = r[obs][1:]
    wg = r * S.g.values if S is not None else None

    def overlap(wu):
        if wg is None:
            return 0.0
        return FOUR_PI * grid.dr * float((wu * wg).sum())

    def sup_obs(wu):
        return float(np.abs((wphi_obs + wu[obs][1:]) / robs).max())

    ovs = []

    def stop(m, wu):
        ovs.append(overlap(wu))
        if m < 2:  # the data and the Taylor step are not tested
            return None
        if not np.isfinite(ovs[-1]) or sup_obs(wu) > ceiling:
            return "blowup"
        if overlap_cap is not None and abs(ovs[-1]) > overlap_cap:
            return "departed"
        return None

    rows, rates, m_end, status = _leapfrog(
        grid,
        (psi0.values - phi) * r,
        r * psi1.values,
        T,
        dt,
        _quintic_force(r, wphi),
        stride=stride,
        stop=stop,
        rates=stride is not None,
    )
    psi = dpsi_dt = None
    if stride is not None:
        _values_from_w(grid, rows)
        rows += phi
        psi = SpaceTimeField(grid, dt * stride, rows)
        dpsi_dt = SpaceTimeField(grid, dt * stride, _values_from_w(grid, rates))

    return NonlinearRun(
        grid=grid,
        dt=dt,
        status=status or "completed",
        times_dense=np.arange(m_end + 1) * dt,
        g_overlap=np.array(ovs),
        psi=psi,
        dpsi_dt=dpsi_dt,
        departure_time=None if status is None else m_end * dt,
    )


def extract_modulation(psi, S):
    """Scale a solving <psi - phi(a), V(a) dphi(a)> = 0 inside the window.

    This instantaneous orthogonality kills the resonance direction locally;
    it is the practical stand-in for the nonlocal modulation condition,
    whose mutual consistency with this extraction is itself a test.  The
    one-row case of _modulation_series (the same Chebyshev proxy and
    root-find); raises LeftModulationWindow when the window holds no root.
    """
    return float(_modulation_series(psi.values[None], S)[0][0])


@dataclass(frozen=True)
class ManifoldQuery:
    """Perturbation pair on the constraint surface, with its recorded size."""

    psi0_perturbation: RadialField
    psi1: RadialField
    epsilon: float
    constraint_residual: float

    def initial_data(self, S, h):
        """Nonlinear data (phi + p + h g, p1 + h k g) at unstable-direction offset h.

        The one constructor of the manifold data; _offset_data subtracts phi.
        """
        grid = self.psi0_perturbation.grid
        psi0 = RadialField(
            grid, soliton.phi(grid.r, S.a) + self.psi0_perturbation.values + h * S.g.values
        )
        return psi0, RadialField(grid, self.psi1.values + h * S.k * S.g.values)


def _offset_data(query, S, h):
    """The perturbation pair moved to offset h: initial_data less the soliton."""
    psi0, psi1 = query.initial_data(S, h)
    return RadialField(S.grid, psi0.values - soliton.phi(S.grid.r, S.a)), psi1


def data_norm(pert, psi1):
    """Proxy for the data norm: H1 seminorm + L2 + the L^{3/2,1} Lorentz size."""
    return (
        h1_seminorm(pert)
        + l2_norm(psi1)
        + lorentz_norm(psi1, 1.5, 1)
    )


def make_query(S, pert, psi1):
    """Project both components onto the continuous subspace and package them.

    After projection k<pert, g> - <psi1, g> = 0 holds to rounding error
    (both overlaps vanish separately), so the constraint surface condition
    is satisfied in either sign bookkeeping.
    """
    p0 = project_continuous(pert, S)
    p1 = project_continuous(psi1, S)
    res = abs(S.k * inner_product(p0, S.g) - inner_product(p1, S.g))
    if res > 1e-10:
        raise GridUsageError(f"constraint residual {res:.2e} after projection")
    return ManifoldQuery(
        psi0_perturbation=p0,
        psi1=p1,
        epsilon=data_norm(p0, p1),
        constraint_residual=res,
    )


@dataclass
class ShootResult:
    h: float
    bracket_width: float
    iterations: int
    status: str
    epsilon: float
    trace: tuple = ()  # (h, exit_sign, c, status) of every run, in order


def _classify(query, h, S, T, dt):
    psi0, psi1 = query.initial_data(S, h)
    run = evolve_nonlinear(psi0, psi1, T, dt, S=S, stride=None, overlap_cap=0.25)
    ov = run.g_overlap[-1]
    if ov == 0.0:
        return 0.0, run
    return float(np.sign(ov)), run


def _growth_amplitude(g_overlap, mu):
    """c = ov[m] mu^-m at the first step m with |ov| > 1e-3 (else the last).

    Before the nonlinearity matters the overlap is c mu^m plus decaying
    parts, so c is the amplitude of the growing mode the data carry.
    """
    past = np.flatnonzero(np.abs(g_overlap) > 1e-3)
    m = past[0] if len(past) else len(g_overlap) - 1
    return float(g_overlap[m] * mu ** -float(m))


def shoot_h(query, S, T, dt, h_max=None, tol=None):
    """Shoot on the unstable-direction offset h of the full nonlinear flow.

    Runs data (phi + pert + h g, psi1 + h k g) and classifies each run by
    the exit sign of its g-overlap; by the time a run ends the overlap is
    dominated by the growing coordinate, so the sign is monotone in h and
    flips on the manifold.  The bracket [-h_max, h_max] is widened by 8
    up to four times until its ends exit with opposite signs.

    Near the manifold the growing mode's amplitude c(h) (_growth_amplitude,
    with the scheme's multiplier mu) is affine in h, so the bracket is
    shrunk by Illinois regula falsi on c (Dowell & Jarratt, BIT 11, 1971)
    instead of bisection: 8 runs instead of about 40 at the default tol.
    Each step moves lo or hi by the classified exit sign, so [lo, hi]
    stays a bracket of two runs with opposite signs.  A step that would
    land within tol/2 of an end is taken tol/2 inside it, which closes the
    bracket once the estimate is that accurate.  An end kept for two steps
    in a row has its c halved (Illinois), which lets the third step cross
    the root; if that step also fails to halve the width, the next one
    bisects, which carries the shoot past the noise floor of c (near
    2e-17).  The shoot stops on the bracket width, never on |c|.

    Returns h at the bracket midpoint.  Raises BracketError if the ends
    never separate, cannot be classified, or 200 steps leave the bracket
    wider than tol.
    """
    eps = query.epsilon
    if h_max is None:
        h_max = max(200.0 * eps**2, 1e-9)
    if tol is None:
        tol = 1e-12 * max(eps, 1e-6)
    mu = _leapfrog_rates(S.k, dt)[0]
    trace = []

    def shoot(h):
        sign, run = _classify(query, h, S, T, dt)
        c = _growth_amplitude(run.g_overlap, mu)
        trace.append((h, sign, c, run.status))
        return sign, c

    lo, hi = -h_max, h_max
    (s_lo, c_lo), (s_hi, c_hi) = shoot(lo), shoot(hi)
    widen = 0
    while s_lo == s_hi and widen < 4:
        lo *= 8.0
        hi *= 8.0
        (s_lo, c_lo), (s_hi, c_hi) = shoot(lo), shoot(hi)
        widen += 1
    if s_lo == s_hi:
        raise BracketError(
            f"both bracket ends exit with sign {s_lo:+.0f} (|h| up to {hi:.2e})"
        )
    if s_lo == 0.0 or s_hi == 0.0:
        raise BracketError("horizon too short to classify bracket ends")

    iterations = 0
    moved = 0  # +1: the last step moved lo, -1: it moved hi
    slow = 0   # steps in a row that left more than half the width
    while hi - lo > tol:
        if iterations == 200:
            raise BracketError(
                f"bracket width {hi - lo:.3e} still above tol {tol:.3e} "
                f"after {iterations} steps"
            )
        width = hi - lo
        h = lo - c_lo * width / (c_hi - c_lo) if c_hi != c_lo else np.nan
        bisect = slow >= 3 or not lo <= h <= hi
        if bisect:
            h = 0.5 * (lo + hi)
        h = min(max(h, lo + 0.5 * tol), hi - 0.5 * tol)
        s, c = shoot(h)
        if s == s_lo:
            lo, c_lo = h, c
            if moved == 1:  # Illinois: hi kept twice, halve its weight
                c_hi *= 0.5
            moved = 1
        else:
            hi, c_hi = h, c
            if moved == -1:
                c_lo *= 0.5
            moved = -1
        slow = 0 if bisect or hi - lo <= 0.5 * width else slow + 1
        iterations += 1
    return ShootResult(
        h=0.5 * (lo + hi),
        bracket_width=hi - lo,
        iterations=iterations,
        status="converged",
        epsilon=eps,
        trace=tuple(trace),
    )


def _leapfrog_rates(k, dt):
    """Discrete growth bookkeeping of the three-level scheme.

    The scheme's growing multiplier is mu = c + sqrt(c^2-1), c = 1 +
    dt^2 k^2 / 2; kt = log(mu)/dt is the discrete rate and khat =
    sinh(kt dt)/dt the coefficient tying the t = 0 data into the
    boundedness condition.  All agree with k to O(dt^2).
    """
    c = 1.0 + 0.5 * dt * dt * k * k
    mu = c + np.sqrt(c * c - 1.0)
    kt = np.log(mu) / dt
    khat = np.sinh(kt * dt) / dt
    return mu, kt, khat


def _elliptic_residual(grid, phi_vals):
    """Delta_h phi + phi^5 in w-variables on the interior nodes, rowwise."""
    r = grid.r
    w = r * phi_vals
    rho = np.zeros(w.shape)
    rho[..., 1:-1] = (w[..., 2:] - 2.0 * w[..., 1:-1] + w[..., :-2]) / grid.dr**2
    rho[..., 1:-1] += (phi_vals**5 * r)[..., 1:-1]
    return rho


@dataclass(frozen=True)
class _Sources:
    """The modulation source of one frozen history (u0, a0, adot0).

    Assembled once per Picard iterate; h, x_pm, the modulation rate and
    P_c u all read from it.
    """

    F: np.ndarray         # (V - V(a)) u0 + N(u0, phi(a)), shape (M+1, n)
    D: np.ndarray         # adot0 * defect(a0), or None without an adot history
    Fg: np.ndarray        # <F_j, g>_w
    gamma: np.ndarray     # <phi(a_j) - phi, g>_w
    residual: np.ndarray  # scheme elliptic residual pairing, see _assemble


_ROWS = 32  # history rows per block in _assemble and _modulation_series
_NODES = 32  # Chebyshev nodes of the modulation window in _modulation_series


def _assemble(samples, a0, adot0, S):
    """Build the _Sources of a history, every profile broadcast over the scales.

    The rows are assembled _ROWS at a time, so the temporaries stay at a few
    block-sized arrays whatever the horizon; bare phi and V are at S.a.  The residual is
    <(Delta_h phi(a) + phi(a)^5) - (Delta_h phi + phi^5), g>_w per step: the
    analytic soliton solves the elliptic equation exactly but the discrete
    stencil leaves an O(dr^2 (a - S.a)) residual along the family; the
    well-balanced flow feels exactly this difference, so the fixed-point
    integrand carries it too (it vanishes under refinement).
    """
    grid = S.grid
    r = grid.r
    g = S.g.values
    a_vals = np.asarray(a0, dtype=float)
    Vc = soliton.potential(r, S.a)
    phic = soliton.phi(r, S.a)
    rhoc = _elliptic_residual(grid, phic)
    F = np.empty(samples.shape)
    D = None if adot0 is None else np.empty(samples.shape)
    adot = None if adot0 is None else np.asarray(adot0, dtype=float)[:, None]
    gamma = np.empty(len(a_vals))
    residual = np.empty(len(a_vals))
    for start in range(0, len(a_vals), _ROWS):
        rows = slice(start, start + _ROWS)
        a = a_vals[rows, None]
        u = samples[rows]
        phia = soliton.phi(r, a)
        F[rows] = (Vc - soliton.potential(r, a)) * u + _quintic(u, phia)
        gamma[rows] = np.sum((phia - phic) * g * r**2, axis=1)
        rho = _elliptic_residual(grid, phia) - rhoc
        residual[rows] = np.sum(rho * (r * g), axis=1)
        if D is not None:
            D[rows] = adot[rows] * soliton.resonance_defect_profile(r, a, S.a)
    residual[np.abs(a_vals - S.a) < 1e-15 * S.a] = 0.0
    wg = FOUR_PI * grid.dr * r * r * g
    return _Sources(
        F=F,
        D=D,
        Fg=F @ wg,
        gamma=FOUR_PI * grid.dr * gamma,
        residual=FOUR_PI * grid.dr * residual,
    )


def _window(S):  # relative, and read at call time
    return tuple(S.a * w for w in soliton.MODULATION_WINDOW)


def _check_history(samples, a0, adot0, S):
    a0 = np.asarray(a0, dtype=float)
    if len(a0) != len(samples) or len(adot0) != len(samples):
        raise GridUsageError("history lengths disagree")
    lo, hi = _window(S)
    if np.any((a0 <= lo) | (a0 >= hi)):
        raise LeftModulationWindow(f"a0 history leaves the modulation window {(lo, hi)}")
    return a0


def _h_from(src, dt, S, pert_overlap_w, psi1_overlap_w):
    """The fixed-point offset h and its tail bound from an assembled source."""
    M = len(src.Fg) - 1
    mu, kt, khat = _leapfrog_rates(S.k, dt)
    q = src.Fg - S.k**2 * src.gamma + src.residual

    j = np.arange(M + 1)
    weights = np.exp(-kt * j * dt) * dt
    weights[0] *= 0.5
    total = float(np.sum(weights * q))
    tail = np.exp(-kt * M * dt) * float(np.max(np.abs(q[max(0, M - M // 4):]))) / kt
    h = -(khat * pert_overlap_w + psi1_overlap_w + total) / ((khat + S.k) * S.gg_w)
    return h, tail


def h_fixed_point(u0_traj, a0, adot0, S, pert_overlap_w=0.0, psi1_overlap_w=0.0):
    """Unstable-direction offset from the boundedness of the growing coordinate.

    Solves 2 k h <g,g> = -(weighted integral of the modulation sources) in
    the discrete-flow-adapted form: the exponential weight uses the
    scheme's own growth rate and the t = 0 data enter through khat (all
    equal to the continuum formula up to O(dt^2)).  The integrand is the
    frozen-soliton-frame source rewritten in modulated variables,

        (V - V(a)) u0 + N(u0, phi(a)) + [elliptic residual along the
        family] - k^2 gamma,   gamma(s) = <phi(a(s)) - phi, g>,

    which reduces the resonance-acceleration term exactly instead of
    through the continuum orthogonality <dphi_da, g> = 0 (the
    integrated-by-parts adot form carries an O(dr^2 eps) bias on a grid).
    Returns (h, tail_bound).
    """
    a0 = _check_history(u0_traj.samples, a0, adot0, S)
    src = _assemble(u0_traj.samples, a0, None, S)
    return _h_from(src, u0_traj.dt, S, pert_overlap_w, psi1_overlap_w)


def _d2_series(y, dt):
    out = np.zeros_like(y)
    out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dt**2
    if len(y) > 3:
        out[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / dt**2
        out[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / dt**2
    return out


def _xpm_from(src, data0, data1, S, dt):
    """x_plus, x_minus and the tail bound from an assembled source.

    (data0, data1) is the offset data pair (p + h g, p1 + h k g).
    """
    k = S.k
    c = 1.0 / np.sqrt(2.0 * k)
    M = len(src.Fg) - 1

    # w2g_j = <W_2(s_j), g>_w with the phi(a)-acceleration term as an exact
    # discrete second difference of gamma
    w2g = src.Fg - _d2_series(src.gamma, dt)

    # x_minus(0) from the corrected data pair
    x_minus0 = c * (k * pair_w(data0, S.g) - pair_w(data1, S.g))

    # trapezoid steps of e^{-k(t-s)} w2g(s), accumulated forward from t = 0
    # for x_minus and backward from the horizon for x_plus: step i reaches
    # step m damped by decay^|m-i|, one lower-triangular matrix for both
    decay = np.exp(-k * dt)
    lag = np.subtract.outer(np.arange(M), np.arange(M))
    L = np.tril(decay ** np.maximum(lag, 0))
    fwd = 0.5 * dt * (w2g[1:] + w2g[:-1] * decay)
    bwd = 0.5 * dt * (w2g[:-1] + w2g[1:] * decay)

    xm = np.exp(-k * dt * np.arange(M + 1)) * x_minus0
    xm[1:] -= c * (L @ fwd)
    xp = np.zeros(M + 1)
    xp[:-1] = -c * (L.T @ bwd)
    # truncation of the t..infinity integral at the horizon
    tail_bound = float(np.abs(w2g[-(M // 4 or 1):]).max() / k)
    return xp, xm, tail_bound


def xpm_evolution(u0_traj, a0, adot0, query, S, h):
    """Discrete-spectrum coordinates from the frozen-history Duhamel forms.

    x_minus integrates forward from t = 0; x_plus uses the backward-stable
    integral from t to the horizon (the bounded solution selected by h),
    with the truncated tail bound e^{-k(T-t)} sup|source|/k recorded.
    """
    src = _assemble(u0_traj.samples, a0, None, S)
    return _xpm_from(src, *_offset_data(query, S, h), S, u0_traj.dt)


def _resonance_pairings(data0, data1, src, S, T, dt):
    """The data pairings and the Duhamel kernel, from one transport of q each way.

    base[i] = <cos-free(t_i) data0 + sine-free(t_i) data1, q> and
    B[j, i] = <F_j, sine-free(q, t_i)> - <D_j, cos-free(q, t_i)> (None
    without a source), q = V dphi.  Self-adjointness of the free evolutions
    turns every pairing against q into a pairing with the free evolution of
    q, so the two transports of q serve the data and every source slice.
    """
    Esin, w = _resonance_transport(S.grid, S.a, T, dt, "sine")
    Ecos, _ = _resonance_transport(S.grid, S.a, T, dt, "cosine")
    base = Ecos @ (w * data0.values) + Esin @ (w * data1.values)
    B = None if src is None else (src.F * w) @ Esin.T - (src.D * w) @ Ecos.T
    return base, B


def _antidiagonal_sums(X):
    """s[m] = sum of X[j, k] over j + k = m, for m = 0..M of an (M+1, M+1) X."""
    idx = np.arange(X.shape[0])
    return np.bincount((idx[:, None] + idx).ravel(), weights=X.ravel())[: X.shape[0]]


def _duhamel_sums(B, dt):
    """Trapezoid over s in [0, t_m] of B[s, t_m - s], for every m."""
    return dt * (_antidiagonal_sums(B) - 0.5 * (B[0] + B[:, 0]))


def _secular_sums(B, dt):
    """Trapezoid over s in [0, t_m] of Int_0^{t_m - s} B[s, lag] dlag, for every m.

    The rows of C, the cumulative trapezoid of B along the lag, hold the
    inner integrals; the outer one is a trapezoid along the anti-diagonal of
    C, whose s = t_m end C[m, 0] vanishes.
    """
    C = cumulative_trapezoid(B, dx=dt)
    return dt * (_antidiagonal_sums(C) - 0.5 * C[0])


def _rate_from(a0, S, base, B, dt):
    """Modulation rate from the data pairings and the Duhamel kernel (None: no source)."""
    duh = 0.0 if B is None else _duhamel_sums(B, dt)
    return -((np.asarray(a0) / S.a) ** 1.25) * secular_coefficient(S) * (base + duh)


def modulation_rate_series(data0, data1, u0_traj, a0, adot0, S, T, dt):
    """Right-hand side of the modulation condition at every time step.

    adot(t) = -(a0(t)/S.a)^{5/4} (4 pi / <V, dphi>^2) < cos-free(t) data0 +
    sine-free(t) data1 + sine-Duhamel of the nonlinear sources -
    cosine-Duhamel of adot0 * defect, V dphi >.  The signs follow from
    demanding that the resonance multiples cancel in the Duhamel
    representation of P_c u: integrating the resonance acceleration by
    parts puts a minus on the cosine Duhamel, and the long-time secular
    limit of the perturbed evolution (measured directly) pins the overall
    orientation; written-out versions of this condition elsewhere carry
    the opposite sign and double the resonance content instead of
    cancelling it.  Every pairing uses the self-adjointness of the free
    evolutions: the data and each source slice are paired against the
    free evolution of the weight V dphi (_resonance_pairings).
    """
    src = None if u0_traj is None else _assemble(u0_traj.samples, a0, adot0, S)
    base, B = _resonance_pairings(data0, data1, src, S, T, dt)
    return _rate_from(a0, S, base, B, dt)


def x_norm(u_traj, adot, dt):
    """Distance in the iteration space X: trajectory mixed norms + adot norms."""
    mixed = max(
        mixed_norm(u_traj, ("lorentz", 6, 2), "Linf_t"),
        mixed_norm(u_traj, "Linf_x", "L2_t"),
        mixed_norm(u_traj, "Linf_x", "L1_t"),
    )
    adot = np.asarray(adot)
    l1 = float(np.sum(np.abs(adot)) * dt)
    linf = float(np.max(np.abs(adot))) if len(adot) else 0.0
    return mixed + max(l1, linf)


@dataclass
class PicardIterate:
    u: SpaceTimeField
    a: np.ndarray
    adot: np.ndarray
    h: float
    x_plus: np.ndarray
    x_minus: np.ndarray
    tail_bound: float


def picard_map(u0_traj, a0, adot0, query, S, T, dt):
    """One application of the linearized-system solution map (u0, a0) -> (u, a).

    Computes h from the boundedness condition, the new modulation rate from
    the free-evolution condition, the continuous-spectrum part from the
    secularly decomposed Duhamel form, and the discrete-spectrum part from
    the x_pm integrals.  The source of the frozen history is assembled once,
    and q = V dphi is transported once each way, for all four parts.
    """
    grid = S.grid
    M = int(round(T / dt))
    if u0_traj is None:
        u0_traj = SpaceTimeField(grid, dt, np.zeros((M + 1, grid.n)))
        a0 = np.full(M + 1, S.a)
        adot0 = np.zeros(M + 1)
    a0 = _check_history(u0_traj.samples, a0, adot0, S)
    src = _assemble(u0_traj.samples, a0, adot0, S)

    pg0 = pair_w(query.psi0_perturbation, S.g)
    pg1 = pair_w(query.psi1, S.g)
    h, tail = _h_from(src, u0_traj.dt, S, pg0, pg1)

    data0, data1 = _offset_data(query, S, h)
    base, B = _resonance_pairings(data0, data1, src, S, T, dt)

    adot = _rate_from(a0, S, base, B, dt)
    a = S.a + cumulative_trapezoid(adot, dx=dt)

    pcu = _pc_u_series(data0, data1, src, base, B, S, T, dt)
    xp, xm, xtail = _xpm_from(src, data0, data1, S, u0_traj.dt)
    coef = (xp + xm) / np.sqrt(2.0 * S.k)
    u = SpaceTimeField(grid, dt, pcu.samples + np.outer(coef, S.g.values))
    return PicardIterate(
        u=u, a=a, adot=adot, h=h, x_plus=xp, x_minus=xm, tail_bound=max(tail, xtail)
    )


def _pc_u_series(data0, data1, src, base, B, S, T, dt):
    """Continuous-spectrum trajectory via secular-decomposed propagators.

    P_c u(t) = C(t) data0 + S(t) data1 + Int S(t-s) F(s) ds -
    Int C(t-s) adot0(s) defect(a0(s)) ds, with each operator realized as
    (perturbed evolution of the P_c input) minus (rank-one secular term).
    The evolution is linear, so one leapfrog run with data (data0, data1)
    and source F gives the first three terms together; the defect Duhamel
    takes a second run, whose centred time derivative turns its sine
    Duhamel into the cosine one.  project_out=S is their only P_c: raw and
    P_c-projected inputs give the same states in exact arithmetic (see
    evolve_linear_perturbed).  The minus on the defect Duhamel matches
    modulation_rate_series (see the sign discussion there).
    base and B are the summed data pairings and the Duhamel kernel of
    _resonance_pairings, which modulation_rate_series reads too.
    """
    grid = S.grid
    cQ = secular_coefficient(S)
    resv = S.resonance.values

    F, D = SpaceTimeField(grid, dt, src.F), SpaceTimeField(grid, dt, src.D)
    out = evolve_linear_perturbed(data0, data1, F, T, dt, a=S.a, project_out=S).samples
    zero = grid.zeros()
    zs = evolve_linear_perturbed(zero, zero, D, T, dt, a=S.a, project_out=S).samples
    if zs.shape[0] >= 3:
        out[1:] -= np.gradient(zs, dt, axis=0)[1:]

    # secular parts: Q acting on the accumulated free evolutions of the data
    # and of the Duhamel sources
    sec = cumulative_trapezoid(base, dx=dt) + _secular_sums(B, dt)
    out += np.outer(cQ * sec, resv)
    return SpaceTimeField(grid, dt, out)


@dataclass
class ModulationTrajectory:
    """Extracted modulation history of a nonlinear run, plus diagnostics."""

    times: np.ndarray
    a: np.ndarray
    adot: np.ndarray
    x_plus: np.ndarray
    x_minus: np.ndarray
    g_overlap: np.ndarray
    u_snapshots: SpaceTimeField
    diagnostics: list = field(default_factory=list)
    adot_l1: float = 0.0


def _series_roots(coef):
    """Roots in [-1, 1] of the Chebyshev series coef[:, m], one per column.

    60 halvings of [-1, 1]: the right half is kept where F at the midpoint
    has the sign of F(-1), the left half otherwise.  Returns (s, miss);
    miss flags the columns where F(-1) * F(1) <= 0 fails, which includes
    every column with a NaN or inf.
    """
    f_lo = chebyshev.chebval(-1.0, coef)
    miss = ~(f_lo * chebyshev.chebval(1.0, coef) <= 0.0)
    lo, hi = np.full(coef.shape[1], -1.0), np.ones(coef.shape[1])
    for _ in range(60):
        s = 0.5 * (lo + hi)
        right = np.sign(chebyshev.chebval(s, coef, tensor=False)) == np.sign(f_lo)
        lo, hi = np.where(right, s, lo), np.where(right, hi, s)
    return 0.5 * (lo + hi), miss


def _modulation_series(samples, S):
    """Scales a_m of the rows psi_m of a trajectory, and u_m = psi_m - phi(a_m).

    a_m is the root of F_m(a) = <psi_m - phi(a), V(a) dphi_da(a)>, bracketed
    by the whole window S.a * MODULATION_WINDOW; on the pinned on-manifold runs F_m is
    increasing there with a single sign change, so this is the root a search
    from the previous row's scale finds.  F_m is analytic in a except at
    a <= 0, so its interpolant at _NODES Chebyshev points of the window
    converges like (2 + sqrt 3)^-N (Trefethen, ATAP Thm 8.2): the profiles
    are evaluated once, at the nodes, one product gives every row's F there,
    and one vectorised bisection (_series_roots) solves every row on its
    Chebyshev series.  A row without a sign change across the window raises
    LeftModulationWindow naming the first such row: the one place a window
    miss surfaces.  u is filled _ROWS rows at a time, so no second (M+1, n)
    stack is held beside it.  Returns (a, u).
    """
    r = S.grid.r
    lo, hi = _window(S)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = chebyshev.chebpts1(_NODES)
    nodes = (mid + half * x)[:, None]
    Q = FOUR_PI * S.grid.simpson_weights * r**2 * soliton.resonance_weight(r, nodes)
    c = np.sum(soliton.phi(r, nodes) * Q, axis=1)
    # the T_k are orthogonal on the nodes (sum_j T_k T_l = N/2, N for k = l = 0)
    T = chebyshev.chebvander(x, _NODES - 1) * np.r_[1.0, np.full(_NODES - 1, 2.0)] / _NODES
    s, miss = _series_roots(T.T @ (samples @ Q.T - c).T)
    miss = np.flatnonzero(miss)
    if len(miss):
        raise LeftModulationWindow(f"row {miss[0]} has no modulation root in {(lo, hi)}")
    a = mid + half * s
    u = np.empty_like(samples)
    for start in range(0, len(a), _ROWS):
        rows = slice(start, start + _ROWS)
        np.subtract(samples[rows], soliton.phi(r, a[rows, None]), out=u[rows])
    return a, u


def trajectory_modulation(run, S):
    """Extract a(t), adot, x_pm and the radiation along a nonlinear run."""
    psi = run.psi
    grid = psi.grid
    dt = psi.dt
    a, u_samples = _modulation_series(psi.samples, S)
    adot = np.gradient(a, dt)
    u_traj = SpaceTimeField(grid, dt, u_samples)
    udot = run.dpsi_dt.samples - adot[:, None] * soliton.dphi_da(grid.r, a[:, None])
    xp, xm = x_pm(u_samples, udot, S)
    # the Simpson pairing of every row with g that x_pm makes
    ov = u_samples @ (FOUR_PI * grid.simpson_weights * grid.r**2 * S.g.values)
    adot_l1 = float(np.sum(np.abs(adot)) * dt)
    diags = [
        NormReport(
            kind=kind,
            value=mixed_norm(u_traj, outer, inner),
            R=grid.R,
            R_obs=grid.R_obs,
            n=grid.n,
            dt=dt,
            T=psi.horizon,
        )
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
        g_overlap=ov,
        u_snapshots=u_traj,
        diagnostics=diags,
        adot_l1=adot_l1,
    )
