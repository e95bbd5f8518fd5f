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
The modulation source of a frozen history is never stored whole, and
neither is its Duhamel kernel: the source and its defect are made _ROWS
rows at a time, as the (F, D) pairs the Picard map's linear runs read, and
each block, with its rows of the kernel, is folded into every quantity
that reads it before the next replaces it (_source_rows).  No on-manifold
run is stored either: two streamed passes, each stepping every sweep point
as one stack, give the scales of its snapshots and then hand their blocks
of u = psi - phi(a) to the caller (_manifold_passes); the fixed-point h of
the h_scaling sweep folds them into the same pairings (h_fixed_point).

Sign conventions are pinned by the dynamics: data along (g, +k g) grows like
e^{+kt}, so the manifold correction is taken along (g, +k g).  Written-out
solution formulas elsewhere assign the growing role to the mirror pair
(g, -k g); the shooting construction is convention free and is treated as
authoritative here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import soliton
from .grid import (
    FOUR_PI,
    GridUsageError,
    RadialField,
    cumulative_trapezoid,
    h1_seminorm,
    inner_product,
    l2_norm,
    pair_w,
)
from .norms import TimeProfiles, lorentz_norm, mixed_norm
from .propagators import (
    PropagatorError,
    SpaceTimeField,
    _leapfrog,
    evolve_linear_perturbed,
    free_cosine_traj,
    free_sine_traj,
)
from .spectral import project_continuous, secular_coefficient

TWO = 2.0


class LeftModulationWindow(RuntimeError):
    """The state has no soliton fit inside the trusted scale window."""


class BracketError(RuntimeError):
    """Shooting could not establish, classify or close a bracket."""


def _quintic(v, p):
    """N(v, p) on arrays, in Horner form; rows of a history broadcast alike.

    v * v * (10 p**3 + v * (10 p**2 + v * (5 p + v))), accumulated in one
    array, so that no more than three of the broadcast shape are held.
    """
    horner = 5.0 * p + v
    for power in (2, 3):
        horner *= v
        horner += 10.0 * p**power
    horner *= v * v
    return horner


def _fifth(x, out):
    """out = x^5 as (x^2)^2 x: both fifth powers of the nonlinear force."""
    np.multiply(x, x, out=out)
    np.multiply(out, out, out=out)
    return np.multiply(out, x, out=out)


def _quintic_force(r, wphi, lead=()):
    """The _leapfrog force ((w_phi + w_u)^5 - w_phi^5) / r^4 of the u flow.

    Its invariants and its two buffers are made once, here, for states of
    leading shape lead: () for one state, (K,) for a stack of K.  See
    evolve_nonlinear for why both fifth powers come from _fifth.
    """
    wphi_in = wphi[1:-1]
    wphi5 = _fifth(wphi_in, np.empty_like(wphi_in))
    inv_r4 = 1.0 / r[1:-1] ** 4
    wpsi = np.empty(lead + wphi_in.shape)
    quint = np.empty_like(wpsi)

    def force(wu, m, acc):
        np.add(wphi_in, wu[..., 1:-1], out=wpsi)
        _fifth(wpsi, quint)
        np.subtract(quint, wphi5, out=quint)
        np.multiply(quint, inv_r4, out=quint)
        acc += quint

    return force


def _u_frame(grid, S):
    """(phi, wphi, overlap, blown): the frame of the u flow, shared by every nonlinear run.

    phi is the soliton at S.a, or at a = 1 without S (the energy runs keep
    that pinned frame), and wphi = r phi.  overlap(wu) is <u, g>_w of each
    row of a state or a stack, 0.0 without S.  blown(wu, ov) is the
    blow-up test, per row: ov not finite, or sup |psi| on the observation
    ball, its origin excluded, above 10 phi(0) or NaN.
    """
    r = grid.r
    phi = soliton.phi(r, 1.0 if S is None else S.a)
    ceiling = 10.0 * phi[0]
    wphi = r * phi
    ball = slice(1, grid.obs_slice().stop)
    wphi_ball, r_ball = wphi[ball], r[ball]
    wg = None if S is None else r * S.g.values

    def overlap(wu):
        return 0.0 if wg is None else FOUR_PI * grid.dr * (wu * wg).sum(axis=-1)

    def blown(wu, ov):
        sup = np.abs((wphi_ball + wu[..., ball]) / r_ball).max(axis=-1)
        return ~(np.isfinite(ov) & (sup <= ceiling))

    return phi, wphi, overlap, blown


@dataclass
class NonlinearRun:
    """Outcome of evolve_nonlinear: its steps and departure bookkeeping."""

    grid: object
    dt: float
    status: str                       # "completed" | "departed" | "blowup"
    times_dense: np.ndarray
    g_overlap: np.ndarray             # <psi - phi, g>_w at every solver step (if S given)
    departure_time: float = None


def evolve_nonlinear(psi0, psi1, T, dt, S=None, stride=1, overlap_cap=None, consume=None):
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
    exceeds 10*phi(0, S.a) or is NaN; the run is a typed outcome, never
    an exception.  The frame, the force and that test are _u_frame's and
    _quintic_force's, which _manifold_passes also steps on a stack.
    Nothing is stored: with consume, consume(j, psi, psi_t) receives the
    RadialFields of snapshot j, every stride-th step, and of its time
    derivative (five-point centred, see propagators._rate), in order, each
    checked finite: its own copies of the loop's one-row value blocks (see
    propagators._leapfrog), which it may keep.  One row, as consume takes
    them: a larger block would only hold more rows, and an energy run's
    memory must not grow with its steps.  Without consume no snapshot is
    made.
    """
    grid = psi0.grid
    r = grid.r
    phi, wphi, overlap, blown = _u_frame(grid, S)
    ovs = []

    def stop(m, wu):
        ovs.append(overlap(wu))
        if m < 2:  # the data and the Taylor step are not tested
            return None
        if blown(wu, ovs[-1]):
            return "blowup"
        if overlap_cap is not None and abs(ovs[-1]) > overlap_cap:
            return "departed"
        return None

    def take(rows, psi, psi_t):  # the consumer's own copies of the one-row blocks
        psi, psi_t = psi[0] + phi, psi_t[0].copy()
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(psi_t))):
            raise GridUsageError("non-finite trajectory samples")
        consume(rows.start, RadialField(grid, psi), RadialField(grid, psi_t))

    m_end, status = _leapfrog(grid, (psi0.values - phi) * r, r * psi1.values, T, dt,
                              _quintic_force(r, wphi), None if consume is None else take,
                              stride=stride, block=1, stop=stop, rates=consume is not None)
    return NonlinearRun(
        grid=grid,
        dt=dt,
        status=status or "completed",
        times_dense=np.arange(m_end + 1) * dt,
        g_overlap=np.array(ovs),
        departure_time=None if status is None else m_end * dt,
    )


def extract_modulation(psi, S):
    """Scale a solving <psi - phi(a), V(a) dphi(a)> = 0 inside the window.

    This instantaneous orthogonality kills the resonance direction locally;
    it is the practical stand-in for the nonlocal modulation condition,
    whose mutual consistency with this extraction is itself a test.  The
    one-row case of the passes' extraction (the same Chebyshev proxy and
    root-find, _modulation_proxy); raises LeftModulationWindow when the
    window holds no root.
    """
    product, scales = _modulation_proxy(S)
    a, miss = scales([product(psi.values[None])])
    if miss[0]:
        raise LeftModulationWindow(f"no modulation root in {_window(S)}")
    return float(a[0])


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
    run = evolve_nonlinear(psi0, psi1, T, dt, S=S, overlap_cap=0.25)
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
    """Delta_h phi + phi^5 in w-variables on the interior nodes, rowwise.

    Written in place into the result and w = r phi: two arrays of its shape.
    """
    r = grid.r
    w = r * phi_vals
    rho = np.zeros(w.shape)
    inner = rho[..., 1:-1]  # (w[2:] - 2 w[1:-1] + w[:-2]) / dr^2
    np.subtract(w[..., 2:], np.multiply(w[..., 1:-1], 2.0, out=inner), out=inner)
    inner += w[..., :-2]
    inner /= grid.dr**2
    np.power(phi_vals, 5, out=w)
    w *= r
    inner += w[..., 1:-1]
    return rho


@dataclass(frozen=True)
class _Sources:
    """The pairings of the modulation source of one frozen history (u0, a0, adot0).

    h, x_pm, the modulation rate and the secular part of P_c u read them.
    The source itself, F = (V - V(a)) u0 + N(u0, phi(a)) and the defect
    D = adot0 * defect(a0), is never stored, and neither is the Duhamel
    kernel B that pairs it with the q transports: _source_rows makes them
    a block at a time and folds every block into these.  h_fixed_point
    folds the blocks of F of its on-manifold runs alone (_source_fold),
    with no kernel.  The zero history has no source (_no_source).
    """

    Fg: np.ndarray        # <F_j, g>_w
    gamma: np.ndarray     # <phi(a_j) - phi, g>_w
    residual: np.ndarray  # scheme elliptic residual pairing, see _source_rows
    duhamel: np.ndarray = None  # the Duhamel sums of B (_kernel_fold), or None: no kernel
    secular: np.ndarray = None  # the secular sums of B (_kernel_fold), or None: no kernel


_ROWS = 32  # rows per block of the source and its kernel, _add_outer and _manifold_passes
_NODES = 32  # Chebyshev nodes of the modulation window in _modulation_proxy


class _Blocks:
    """Rows 0..rows-1 of a stack that make(rows) builds _ROWS at a time, as a row source.

    The row source evolve_linear_perturbed reads (dt, rows, row(m)).
    row(m) makes every block up to the one holding row m, in order, and
    holds only the last, so the rows are read in increasing m.  complete()
    makes the blocks no run reached.
    """

    def __init__(self, make, rows, dt):
        self._make, self.rows, self.dt = make, rows, dt
        self._start, self._block = 0, np.empty((0, 0))

    def row(self, m):
        if not self._start <= m < self.rows:
            raise GridUsageError(f"row {m} asked of a source made in order, now at row {self._start}")
        while m >= self._start + len(self._block):
            self._start += len(self._block)
            self._block = self._make(slice(self._start, min(self._start + _ROWS, self.rows)))
        return self._block[m - self._start]

    def complete(self):
        self.row(self.rows - 1)


def _source_rows(samples, a0, adot0, S, dt, transport):
    """(src, rows): the _Sources of a history and the _Blocks of source rows that fill it.

    Every profile is broadcast over the scales of a block; bare phi and V
    are at S.a.  Each block is made once: F, whose rows of Fg, gamma and
    the residual it gives as it is made, then D and the block's rows of
    the Duhamel kernel B[j, i] = <F_j, sine-free(q, t_i)> - <D_j,
    cos-free(q, t_i)>, with the picard_transport pair, folded into
    src.duhamel and src.secular (_kernel_fold), so B is never whole.  A
    block is the (rows, 2, n) stack of the pairs (F_j, D_j), so row(m) is
    the (2, n) source row of the Picard map's pair of runs, and each block
    is written into the last one's buffer, so a row is read before the next
    block is made.  src is whole once rows is complete.
    The residual is <(Delta_h phi(a) + phi(a)^5) - (Delta_h phi + phi^5), g>_w
    per step: the analytic soliton solves the elliptic equation exactly but
    the discrete stencil leaves an O(dr^2 (a - S.a)) residual along the
    family; the well-balanced flow feels exactly this difference, so the
    fixed-point integrand carries it too (it vanishes under refinement).
    """
    r = S.grid.r
    a0 = np.asarray(a0, dtype=float)
    M = len(a0) - 1
    src = _Sources(Fg=np.empty(M + 1), gamma=np.empty(M + 1), residual=np.empty(M + 1),
                   duhamel=np.empty(M + 1), secular=np.empty(M + 1))
    fold = _source_fold(S, src)
    (Esin, w), (Ecos, _) = transport
    adot0 = np.asarray(adot0, dtype=float)
    add_kernel = _kernel_fold(src, dt)
    block = np.empty((_ROWS, 2, len(r)))

    def make(rows):
        FD = block[: rows.stop - rows.start]
        FD[:, 0] = fold(rows, samples[rows], a0[rows])
        FD[:, 1] = adot0[rows, None] * soliton.resonance_defect_profile(r, a0[rows, None], S.a)
        B = (FD[:, 0] * w) @ Esin.T
        B -= (FD[:, 1] * w) @ Ecos.T
        add_kernel(rows.start, B)
        return FD

    return src, _Blocks(make, M + 1, dt)


def _source_fold(S, src):
    """fold(rows, u, a): F = (V - V(a)) u + N(u, phi(a)) of a block of history rows.

    Each block, as it is made, writes its rows of src.Fg, src.gamma and
    src.residual (see _source_rows), and F is returned for the caller's
    own pairings.  u holds the rows of the block, a their scales.
    """
    grid = S.grid
    r = grid.r
    g = S.g.values
    Vc = soliton.potential(r, S.a)
    phic = soliton.phi(r, S.a)
    rhoc = _elliptic_residual(grid, phic)
    wg = FOUR_PI * grid.dr * r * r * g

    def fold(rows, u, a):
        a = a[:, None]
        phia = soliton.phi(r, a)
        F = (Vc - soliton.potential(r, a)) * u + _quintic(u, phia)
        src.Fg[rows] = F @ wg
        src.gamma[rows] = FOUR_PI * grid.dr * np.sum((phia - phic) * g * r**2, axis=1)
        residual = np.sum((_elliptic_residual(grid, phia) - rhoc) * (r * g), axis=1)
        residual[np.abs(a[:, 0] - S.a) < 1e-15 * S.a] = 0.0
        src.residual[rows] = FOUR_PI * grid.dr * residual
        return F

    return fold


def _no_source(M):
    """The _Sources of the zero history on M steps: no kernel, the pairings 0.

    There u0 = 0 and a0 = S.a, so F = (V - V(S.a)) 0 + N(0, phi) and
    D = 0 * defect vanish identically, and so does every pairing _source_rows
    would make of them.
    """
    zeros = np.zeros(M + 1)
    return _Sources(Fg=zeros, gamma=zeros, residual=zeros)


def _window(S):  # relative, and read at call time
    return tuple(S.a * w for w in soliton.MODULATION_WINDOW)


def _check_history(samples, S, *series):
    """series[0] (a0) as floats, each series checked against samples, a0 against the window."""
    if any(len(x) != len(samples) for x in series):
        raise GridUsageError("history lengths disagree")
    return _check_window(np.asarray(series[0], dtype=float), S)


def _check_window(a0, S):
    lo, hi = _window(S)
    if np.any((a0 <= lo) | (a0 >= hi)):
        raise LeftModulationWindow(f"a0 history leaves the modulation window {(lo, hi)}")
    return a0


def _h_from(src, dt, S, pert_overlap_w, psi1_overlap_w):
    """The fixed-point offset h and its tail bound from the pairings src of a whole source."""
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


def h_fixed_point(queries, hs, S, T, dt):
    """Unstable-direction offset of the on-manifold run of each query at its shot h.

    The offset follows from the boundedness of the growing coordinate:
    2 k h <g,g> = -(weighted integral of the modulation sources), in the
    discrete-flow-adapted form.  The exponential weight uses the scheme's
    own growth rate and the t = 0 data enter through khat (_leapfrog_rates;
    all equal to the continuum formula up to O(dt^2)).  The integrand is
    the frozen-soliton-frame source rewritten in modulated variables,

        (V - V(a)) u0 + N(u0, phi(a)) + [elliptic residual along the
        family] - k^2 gamma,   gamma(s) = <phi(a(s)) - phi, g>,

    which reduces the resonance-acceleration term exactly instead of
    through the continuum orthogonality <dphi_da, g> = 0 (the
    integrated-by-parts adot form carries an O(dr^2 eps) bias on a grid);
    _h_from sums it.  No run is stored: _manifold_passes reads each run over
    [0, T] at stride 1 and hands its blocks of u = psi - phi(a), _ROWS rows
    from row 0, to the point's pairings (_source_fold), so every h and
    tail bound has the bits of the same fold over the stored run.  Returns
    [(h, tail_bound)], one per query.
    """
    M = int(round(T / dt))
    srcs = [_Sources(Fg=np.empty(M + 1), gamma=np.empty(M + 1), residual=np.empty(M + 1))
            for _ in queries]
    folds = [_source_fold(S, src) for src in srcs]

    def fold(rows, u, a, udot):
        for k, fold_k in enumerate(folds):
            fold_k(rows, u[:, k], a[k])

    _manifold_passes(queries, hs, S, T, dt, fold)
    return [_h_from(src, dt, S, pair_w(q.psi0_perturbation, S.g), pair_w(q.psi1, S.g))
            for q, src in zip(queries, srcs)]


def _manifold_passes(queries, hs, S, T, dt, fold, stride=1, rates=False):
    """Read the on-manifold run of each query at its shot h, from no stored run: (a, adot).

    Each run is evolve_nonlinear's from query.initial_data(S, h) over
    [0, T] at dt, read at its J snapshots, every stride-th step.  Both
    passes step all K runs as one (K, n) stack, each row with its own
    run's bits.  Pass 1 (_proxy_products) keeps each snapshot's proxy
    products, whose one root-find gives the scales a, (K, J), and adot =
    np.gradient(a, stride dt) along each run.  Pass 2 hands fold(rows, u,
    a, udot) each block of up to _ROWS snapshots, in order: u = psi -
    phi(a), (rows, K, n), the block's scales, (K, rows), and with rates
    udot = psi_t - adot dphi_da(a) from _leapfrog's five-point rates, else
    None; u and udot live until the next block.  Each row is paired with
    the proxy alone (_modulation_proxy), so all of these are the stored
    run's extraction, bit for bit, whatever the blocking or the BLAS
    thread count.  A row without a modulation root raises
    LeftModulationWindow naming its point, the index in queries, and the
    row; a blow-up in pass 1 raises PropagatorError naming the point.
    """
    grid = S.grid
    r = grid.r
    K = len(queries)
    frame = _u_frame(grid, S)
    phi, wphi = frame[:2]
    data = [q.initial_data(S, h) for q, h in zip(queries, hs)]
    w0 = np.array([(psi0.values - phi) * r for psi0, _ in data])
    w1 = np.array([r * psi1.values for _, psi1 in data])
    product, scales = _modulation_proxy(S)
    a, miss = scales(list(_proxy_products(grid, frame, w0, w1, T, dt, stride, product)))
    del product, scales  # pass 2 holds no proxy
    a, miss = a.reshape(K, -1), miss.reshape(K, -1)
    for k in range(K):
        if miss[k].any():
            raise LeftModulationWindow(f"sweep point {k}: row {np.flatnonzero(miss[k])[0]} has "
                                       f"no modulation root in {_window(S)}")
    _check_window(a, S)
    adot = np.gradient(a, stride * dt, axis=-1)

    def radiation(rows, u, udot):  # the values of w and its rates become u and udot, in place
        u += phi
        for k in range(K):  # one point at a time: (rows, n) temporaries
            scale = a[k, rows, None]
            u[:, k] -= soliton.phi(r, scale)
            if rates:
                udot[:, k] -= adot[k, rows, None] * soliton.dphi_da(r, scale)
        fold(rows, u, a[:, rows], udot)

    _leapfrog(grid, w0, w1, T, dt, _quintic_force(r, wphi, (K,)), radiation, stride=stride,
              block=_ROWS, rates=rates)
    return a, adot


def _proxy_products(grid, frame, w0, w1, T, dt, stride, product):
    """Pass 1 of _manifold_passes: the (K, J, _NODES) proxy products of the snapshots of K runs.

    The K runs of the u flow from (w0, w1), (K, n) each, step as one stack
    through _leapfrog; frame is _u_frame's, product _modulation_proxy's.
    Every stride-th state is a snapshot, paired a block of _ROWS
    snapshots at a time.  A blow-up in any row ends the pass and raises
    PropagatorError naming that row's sweep point.
    """
    phi, wphi, overlap, blown = frame
    K = len(w0)
    J = int(round(T / dt)) // stride + 1
    P = np.empty((K, J, _NODES))

    def project(rows, psi, psi_t):
        psi += phi
        P[:, rows] = product(psi).swapaxes(0, 1)

    def stop(m, w):
        if m < 2:  # the data and the Taylor step are not tested
            return None
        bad = np.flatnonzero(blown(w, overlap(w)))
        return bad[0] if len(bad) else None

    force = _quintic_force(grid.r, wphi, (K,))
    m_end, point = _leapfrog(grid, w0, w1, T, dt, force, project, stride=stride, block=_ROWS,
                             stop=stop)
    if point is not None:
        raise PropagatorError(f"nonlinear run of sweep point {point} ended 'blowup' at "
                              f"t={m_end * dt:.6g} of T={T}")
    return P


def _d2_series(y, dt):
    out = np.zeros_like(y)
    out[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dt**2
    if len(y) > 3:
        out[0] = (2 * y[0] - 5 * y[1] + 4 * y[2] - y[3]) / dt**2
        out[-1] = (2 * y[-1] - 5 * y[-2] + 4 * y[-3] - y[-4]) / dt**2
    return out


def xpm_evolution(src, data0, data1, S, dt):
    """(x_plus, x_minus, tail_bound) from the frozen-history Duhamel forms.

    src holds the pairings of the source (_Sources) and (data0, data1) is
    the offset data pair (p + h g, p1 + h k g).  x_minus integrates forward
    from t = 0; x_plus uses the backward-stable integral from t to the
    horizon (the bounded solution selected by h), truncated there: the
    tail it drops is at most e^{-k(T-t)} sup|source|/k, and the bound
    recorded is sup|w2g| / k over the last quarter of the steps.  Where w2g
    vanishes, as for the zero history, both integrals vanish: x_minus is
    e^{-kt} x_minus(0), and x_plus and the tail bound are 0 (+0.0, never
    the -0.0 that -c * (L.T @ 0) would give).
    """
    k = S.k
    c = 1.0 / np.sqrt(2.0 * k)
    M = len(src.Fg) - 1

    # w2g_j = <W_2(s_j), g>_w with the phi(a)-acceleration term as an exact
    # discrete second difference of gamma
    w2g = src.Fg - _d2_series(src.gamma, dt)

    # x_minus(0) from the corrected data pair
    x_minus0 = c * (k * pair_w(data0, S.g) - pair_w(data1, S.g))
    xm = np.exp(-k * dt * np.arange(M + 1)) * x_minus0
    if not w2g.any():
        return np.zeros(M + 1), xm, 0.0

    # trapezoid steps of e^{-k(t-s)} w2g(s), accumulated forward from t = 0
    # for x_minus and backward from the horizon for x_plus: step i reaches
    # step m damped by decay^|m-i|, one lower-triangular matrix for both
    decay = np.exp(-k * dt)
    # its rows: reversed windows of M - 1 zeros and the powers, copied once
    powers = np.concatenate((np.zeros(M - 1), decay ** np.arange(M)))
    L = np.ascontiguousarray(sliding_window_view(powers, M)[:, ::-1])
    fwd = 0.5 * dt * (w2g[1:] + w2g[:-1] * decay)
    bwd = 0.5 * dt * (w2g[:-1] + w2g[1:] * decay)

    xm[1:] -= c * (L @ fwd)
    xp = np.zeros(M + 1)
    xp[:-1] = -c * (L.T @ bwd)
    # truncation of the t..infinity integral at the horizon
    tail_bound = float(np.abs(w2g[-(M // 4 or 1):]).max() / k)
    return xp, xm, tail_bound


def picard_transport(S, T, dt):
    """((E_sine, w), (E_cosine, w)): the stored free transports of q = V(S.a) dphi_da(S.a).

    E holds the M+1 rows of [0, T] at dt, w = 4 pi * simpson * r^2, and
    E @ (w * f) is <free(f)(t_m), q>.  The only stored transport of q (the
    Duhamel kernel reads it whole): make it once per (S, T, dt).
    """
    q = S.grid.field(soliton.resonance_weight(S.grid.r, S.a))
    w = FOUR_PI * S.grid.simpson_weights * S.grid.r**2
    return tuple((traj(q, T, dt).samples, w) for traj in (free_sine_traj, free_cosine_traj))


def _resonance_pairings(data0, data1, transport):
    """The data pairings base[i] = <cos-free(t_i) data0 + sine-free(t_i) data1, q>, q = V dphi.

    Self-adjointness of the free evolutions turns every pairing against q
    into a pairing with the free evolution of q, so the two transports of
    q, the picard_transport pair, serve the data here and every source row
    in the Duhamel kernel B that _source_rows folds.
    """
    (Esin, w), (Ecos, _) = transport
    return Ecos @ (w * data0.values) + Esin @ (w * data1.values)


def _antidiagonal_sums(X, s=None, start=0):
    """s[m] = sum of X[j, k] over j + k = m, for m = 0..M of an (M+1, M+1) X.

    Each s[m] adds its terms to 0.0 in increasing j, as a bincount over the
    flattened X would, without an (M+1)^2 index.  X may also be the rows
    j = start, start + 1, ... of such a matrix, added to the sums s of the
    rows before them, so a matrix handed over in row blocks gives the bits
    of the whole.
    """
    n = X.shape[1]
    if s is None:
        s = np.zeros(n)
    for j, row in enumerate(X, start):
        s[j:] += row[: n - j]
    return s


def _kernel_fold(src, dt):
    """fold(start, B): add the rows start, start + 1, ... of the Duhamel kernel B to src's sums.

    The blocks must come in order from row 0.  Once the last row M is in,
    src.duhamel[m] holds the trapezoid over s in [0, t_m] of B[s, t_m - s]
    and src.secular[m] that of Int_0^{t_m - s} B[s, lag] dlag, for every m.
    The inner integrals are the rows of C, the cumulative trapezoid of B
    along the lag; the outer ones are anti-diagonal sums of B and of C
    (_antidiagonal_sums, carried from block to block), whose trapezoid end
    corrections read row 0 and column 0 of B and row 0 of C (the s = t_m
    end of C, C[m, 0], vanishes).  The sums take the bits of the whole B.
    """
    M = len(src.duhamel) - 1
    s_duhamel, s_secular, column0 = np.zeros(M + 1), np.zeros(M + 1), np.empty(M + 1)
    row0 = {}

    def fold(start, B):
        C = cumulative_trapezoid(B, dx=dt)
        if start == 0:
            row0.update(B=B[0].copy(), C=C[0].copy())
        column0[start : start + len(B)] = B[:, 0]
        _antidiagonal_sums(B, s_duhamel, start)
        _antidiagonal_sums(C, s_secular, start)
        if start + len(B) == M + 1:
            src.duhamel[:] = dt * (s_duhamel - 0.5 * (row0["B"] + column0))
            src.secular[:] = dt * (s_secular - 0.5 * row0["C"])

    return fold


def modulation_rate_series(a0, S, base, duhamel):
    """Right-hand side of the modulation condition at every time step.

    adot(t) = -(a0(t)/S.a)^{5/4} (4 pi / <V, dphi>^2) < cos-free(t) data0 +
    sine-free(t) data1 + sine-Duhamel of the nonlinear sources -
    cosine-Duhamel of adot0 * defect, V dphi >.  base holds the data part
    (_resonance_pairings) and duhamel the two Duhamel parts (src.duhamel of
    _source_rows; None for a history with no source).  The signs follow
    from demanding that the resonance multiples cancel in the Duhamel
    representation of P_c u: integrating the resonance acceleration by
    parts puts a minus on the cosine Duhamel, and the long-time secular
    limit of the perturbed evolution (measured directly) pins the overall
    orientation; written-out versions of this condition elsewhere carry
    the opposite sign and double the resonance content instead of
    cancelling it.  Every pairing uses the self-adjointness of the free
    evolutions: the data and each source slice are paired against the
    free evolution of the weight V dphi.
    """
    duh = 0.0 if duhamel is None else duhamel
    return -((np.asarray(a0) / S.a) ** 1.25) * secular_coefficient(S) * (base + duh)


def x_norm(rows, adot, dt, grid):
    """Distance in the iteration space X: trajectory mixed norms + adot norms.

    rows is the array of a trajectory's rows at (at least) the leading
    nodes of grid's observation ball, which are all the norms read.  The
    three mixed norms come from one TimeProfiles pass over the rows.
    """
    profiles = TimeProfiles(grid, dt)
    profiles.add(rows)
    mixed = max(
        mixed_norm(profiles, ("lorentz", 6, 2), "Linf_t"),
        mixed_norm(profiles, "Linf_x", "L2_t"),
        mixed_norm(profiles, "Linf_x", "L1_t"),
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


def picard_map(u0_traj, a0, adot0, query, S, T, dt, transport):
    """One application of the linearized-system solution map (u0, a0) -> (u, a).

    Computes the continuous-spectrum part from the secularly decomposed
    Duhamel form, h from the boundedness condition, the discrete-spectrum
    part from the x_pm integrals and the new modulation rate from the
    free-evolution condition.  u0_traj None is the zero history (u0, a0,
    adot0) = (0, S.a, 0), which has no source at all.  Otherwise the source
    of the frozen history is made a block of (F, D) pairs at a time as the
    pair of linear runs of _pc_u_series reads it (_source_rows), and each
    block is folded into the pairings that h, x_pm and the rate read, and
    its rows of the Duhamel kernel B into the kernel sums that the rate and
    the secular term read, before the next replaces it: neither a source
    stack nor the (M+1)^2 kernel is stored.

    The runs need no h, though h needs the pairing of every row of F: they
    evolve (p, p1) = (query.psi0_perturbation, query.psi1), not the offset
    data (p + h g, p1 + h k g), and with project_out=S both give the same
    states in exact arithmetic (see _pc_u_series).  After the runs come h,
    the offset data, x_pm, the data pairings base, the rate and a, and the
    secular and discrete terms, in that order; both terms are added in
    place to the runs' array, so the iterate takes no second (M+1, n) stack.
    transport is the picard_transport pair of (S, T, dt), made once for
    every call on those.
    """
    grid = S.grid
    M = int(round(T / dt))
    if any(E.shape != (M + 1, grid.n) for E, _ in transport):
        raise GridUsageError("the q transport must cover [0, T] at dt on the whole grid")
    if u0_traj is None:
        a0 = np.full(M + 1, S.a)
        src, rows = _no_source(M), None
    else:
        a0 = _check_history(u0_traj.samples, S, a0, adot0)
        src, rows = _source_rows(u0_traj.samples, a0, adot0, S, dt, transport)
    samples = _pc_u_series(query, rows, S, T, dt)

    pg0 = pair_w(query.psi0_perturbation, S.g)
    pg1 = pair_w(query.psi1, S.g)
    h, tail = _h_from(src, dt, S, pg0, pg1)

    data0, data1 = _offset_data(query, S, h)
    xp, xm, xtail = xpm_evolution(src, data0, data1, S, dt)
    base = _resonance_pairings(data0, data1, transport)
    adot = modulation_rate_series(a0, S, base, src.duhamel)
    a = S.a + cumulative_trapezoid(adot, dx=dt)

    # secular parts: Q acting on the accumulated free evolutions of the data
    # and of the Duhamel sources
    sec = cumulative_trapezoid(base, dx=dt)
    if src.secular is not None:
        sec += src.secular
    _add_outer(samples, secular_coefficient(S) * sec, S.resonance.values)
    _add_outer(samples, (xp + xm) / np.sqrt(2.0 * S.k), S.g.values)
    u = SpaceTimeField(grid, dt, samples)
    return PicardIterate(
        u=u, a=a, adot=adot, h=h, x_plus=xp, x_minus=xm, tail_bound=max(tail, xtail)
    )


def _add_outer(out, coef, profile):
    """out += outer(coef, profile), in place, _ROWS rows at a time."""
    for start in range(0, len(coef), _ROWS):
        rows = slice(start, start + _ROWS)
        out[rows] += np.outer(coef[rows], profile)


def _pc_u_series(query, source, S, T, dt):
    """The perturbed evolutions of the continuous-spectrum trajectory, before h is known.

    P_c u(t) = C(t) data0 + S(t) data1 + Int S(t-s) F(s) ds -
    Int C(t-s) D(s) ds, D = adot0 defect(a0), with each operator realized
    as (perturbed evolution of the P_c input) minus (rank-one secular
    term); this makes the perturbed evolutions, and picard_map adds the
    secular terms once h is known.  project_out=S is their only P_c: raw
    and P_c-projected inputs give the same states in exact arithmetic (see
    evolve_linear_perturbed).  The offset data (data0, data1) = (p + h g,
    p1 + h k g) differ from (p, p1) = (query.psi0_perturbation,
    query.psi1) by multiples of g, which P_c removes: in w = r f, _leapfrog
    takes the component along r g out of state 0 and out of every step,
    and the offset adds only multiples of r g to state 0 and to the Taylor
    step.  So the run from (p, p1) is the run from the offset data, to
    rounding, for every h, and the data run can read F before h exists.
    The evolution is linear, so one run with data (p, p1) and source F
    gives the first three terms together; the defect Duhamel takes a second
    run from zero data with source D, whose centred time derivative turns
    its sine Duhamel into the cosine one.  The two runs step as one (2, n)
    stack, each row with the bits of its own run, and read source, the
    _Blocks of (F, D) pairs of _source_rows, whose row(m) is that stack's
    source row.  Nothing of the defect run is stored: as the pair hands on
    each block of snapshots, its data rows are written straight into the
    output and, for each row j >= 2 of the block, the derivative of the
    defect run at row j - 1 from its rows j - 2 and j (np.gradient's
    expressions: centred inside, one-sided at the horizon, none for M < 2)
    is subtracted from row j - 1; the last two defect rows carry over to
    the next block.  source is completed after the run, so the pairings and
    the kernel sums are whole on return.  The zero history (source None)
    runs the data alone, with no source, as a stack of one run whose
    blocks are written straight into the same output array.  The minus on
    the defect Duhamel matches modulation_rate_series (see the sign
    discussion there).  Returns the (M+1, n) samples.
    """
    grid = S.grid
    p, p1 = query.psi0_perturbation, query.psi1
    M = int(round(T / dt))
    out = np.empty((M + 1, grid.n))
    if source is None:

        def keep(rows, z):
            out[rows] = z[:, 0]

        evolve_linear_perturbed([p], [p1], None, T, dt, keep, a=S.a, project_out=S)
        return out
    recent = np.empty((0, grid.n))  # the defect run's last rows before the block, up to two

    def consume(rows, z):
        nonlocal recent
        out[rows] = z[:, 0]
        z = np.concatenate((recent, z[:, 1]))  # the defect rows from max(rows.start - 2, 0)
        if len(z) > 2:  # each row j >= 2 of the block: row j - 1 takes the centred difference
            out[rows.stop - len(z) + 1 : rows.stop - 1] -= (z[2:] - z[:-2]) / (2.0 * dt)
            if rows.stop == M + 1:
                out[M] -= (z[-1] - z[-2]) / dt
        recent = z[-2:]

    zero = grid.zeros()
    evolve_linear_perturbed([p, zero], [p1, zero], source, T, dt, consume, a=S.a, project_out=S)
    source.complete()  # row M, which no step reads, and the kernel rows of its block
    return out


def _chebval(x, c):
    """The Chebyshev series c[:, m] at x (a scalar, or one point per column).

    numpy.polynomial.chebyshev.chebval's Clenshaw recurrence (with
    tensor=False for a vector x), its expressions in its order, so the
    values are its bits.  c has at least two rows.
    """
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebpts1(n):
    """The n Chebyshev points of the first kind, ascending: chebpts1(n)'s bits."""
    return np.sin(0.5 * np.pi / n * np.arange(-n + 1, n + 1, 2))


def _chebvander(x, deg):
    """(len(x), deg + 1) values T_i(x): chebvander(x, deg)'s recurrence, so its bits."""
    v = np.empty((deg + 1, len(x)))
    v[0] = 1.0
    v[1] = x
    x2 = 2 * x
    for i in range(2, deg + 1):
        v[i] = v[i - 1] * x2 - v[i - 2]
    return v.T


def _series_roots(coef):
    """Roots in [-1, 1] of the Chebyshev series coef[:, m], one per column.

    60 halvings of [-1, 1]: the right half is kept where F at the midpoint
    has the sign of F(-1), the left half otherwise.  Every step acts on
    each column alone (Clenshaw down each column, then np.sign and
    np.where), so a column gets the bits it gets by itself, and one call
    can solve the rows of many runs.  Returns (s, miss);
    miss flags the columns where F(-1) * F(1) <= 0 fails, which includes
    every column with a NaN or inf.
    """
    f_lo = _chebval(-1.0, coef)
    miss = ~(f_lo * _chebval(1.0, coef) <= 0.0)
    lo, hi = np.full(coef.shape[1], -1.0), np.ones(coef.shape[1])
    for _ in range(60):
        s = 0.5 * (lo + hi)
        right = np.sign(_chebval(s, coef)) == np.sign(f_lo)
        lo, hi = np.where(right, s, lo), np.where(right, hi, s)
    return 0.5 * (lo + hi), miss


def _modulation_proxy(S):
    """(product, scales): the Chebyshev proxy of the modulation scale.

    The scale a_m of a row psi_m is the root of F_m(a) = <psi_m - phi(a),
    V(a) dphi_da(a)>, bracketed by the whole window S.a * MODULATION_WINDOW;
    on the pinned on-manifold runs F_m is increasing there with a single
    sign change, so this is the root a search from the previous row's scale
    finds.  F_m is analytic in a except at a <= 0, so its interpolant at
    _NODES Chebyshev points a_j of the window converges like
    (2 + sqrt 3)^-N (Trefethen, ATAP Thm 8.2): the profiles are evaluated
    once, at the nodes, and one vectorised bisection (_series_roots) solves
    every row on its Chebyshev series.

    product(rows) holds each row's <psi, Q_j> at the nodes, Q_j = W V(a_j)
    dphi_da(a_j) (W the Simpson weight 4 pi r^2), shape rows.shape[:-1] +
    (_NODES,).  Each row is paired by its own dot products (np.vecdot), so
    its products, and its scale, do not depend on how many rows share a
    call, nor on the BLAS thread count, as a matrix product's would.
    scales(products) takes a list of (rows, _NODES) products, one per run,
    and returns the scales of all their rows, in order, with the miss
    flags of _series_roots (a row without a sign change across the window,
    a non-finite one included): one root-find over every run.  Each run's
    Chebyshev coefficients come from one transform over all its rows, as
    one run alone gets them: a transform over more or fewer columns at
    once rounds them otherwise.
    """
    r = S.grid.r
    lo, hi = _window(S)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = _chebpts1(_NODES)
    nodes = (mid + half * x)[:, None]
    Q = FOUR_PI * S.grid.simpson_weights * r**2 * soliton.resonance_weight(r, nodes)
    c = np.sum(soliton.phi(r, nodes) * Q, axis=1)
    # the T_k are orthogonal on the nodes (sum_j T_k T_l = N/2, N for k = l = 0)
    T = _chebvander(x, _NODES - 1) * np.r_[1.0, np.full(_NODES - 1, 2.0)] / _NODES

    def product(rows):
        return np.vecdot(rows[..., None, :], Q)

    def scales(products):
        s, miss = _series_roots(np.concatenate([T.T @ (P - c).T for P in products], axis=1))
        return mid + half * s, miss

    return product, scales
