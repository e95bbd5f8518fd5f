"""Wave propagators for radial data.

Free evolutions are computed by exact 1D d'Alembert transport on w = r*f
(odd extension through the origin), which removes numerical dispersion from
every secular-term computation.  The perturbed evolution for H = -Delta + V
is realized in the time domain by leapfrog on w; its spatial operator is the
same stencil the spectral module diagonalizes, so the discrete eigenpair
(k, g) is exact for the scheme.  That leapfrog, _leapfrog, is the package's
only time stepper: the nonlinear flow of the modulation module runs on it
with its own force and stop test.  It stores only the strided snapshots its
callers read, so memory grows with the snapshots, not with the steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import soliton
from .grid import (
    FOUR_PI,
    GridUsageError,
    RadialField,
    _values_from_w,
    cumulative_trapezoid,
)

__all__ = [
    "SpaceTimeField",
    "free_sine",
    "free_cosine",
    "free_sine_traj",
    "free_cosine_traj",
    "free_pairing_series",
    "free_duhamel",
    "evolve_linear_perturbed",
    "secular_decomposition_S",
    "secular_decomposition_C",
    "transport_energy",
]


class PropagatorError(RuntimeError):
    pass


@dataclass
class SpaceTimeField:
    """A radial field sampled on a uniform time grid t_m = m*dt.

    Trajectories that feed solvers (sources) must be sampled at the solver
    dt, which carries the unit-CFL constraint dt <= dr; that is enforced at
    the use sites so strided outputs (dt > dr) remain representable.
    """

    grid: object
    dt: float
    samples: np.ndarray = field(repr=False)  # shape (M+1, n)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.grid.n:
            raise GridUsageError("samples must have shape (M+1, n)")
        if not np.all(np.isfinite(self.samples)):
            raise GridUsageError("non-finite trajectory samples")

    @property
    def times(self):
        return self.dt * np.arange(self.samples.shape[0])

    @property
    def horizon(self):
        return self.dt * (self.samples.shape[0] - 1)

    def slice(self, m):
        return RadialField(self.grid, self.samples[m])

    def restricted(self, T):
        """Truncate the trajectory to [0, T]."""
        m = int(round(T / self.dt))
        return SpaceTimeField(self.grid, self.dt, self.samples[: m + 1].copy())


class _Transport:
    """d'Alembert transport of one field w = r*f, odd through the origin.

    Built once per field: node values of the even antiderivative W, of w
    and of its centred derivative d = w' (even), on the cells -K..n-1+K
    that shifts up to `reach` touch.  Beyond R, W continues linearly with
    slope w(R) and w, d stay constant (those values are causally invisible
    inside the budget, the extension only keeps lookups well defined).
    """

    def __init__(self, grid, w, reach):
        n, dr = grid.n, grid.dr
        w = np.asarray(w, dtype=float)
        W = cumulative_trapezoid(w, dx=dr)
        # centered derivative of w (even extension of w' across the origin)
        d = np.empty_like(w)
        d[1:-1] = (w[2:] - w[:-2]) / (2.0 * dr)
        d[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dr)
        d[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * dr)
        self.grid = grid
        self.K = K = int(np.ceil(reach / dr)) + 1
        cells = np.arange(-K, n + K)
        k = np.abs(cells)
        inside = np.minimum(k, n - 1)
        self.x = dr * cells
        self.values = {
            "W": W[inside] + np.maximum(k - (n - 1), 0) * dr * w[-1],
            "w": np.sign(cells) * w[inside],
            "d": d[inside],
        }

    def at(self, name, x):
        return np.interp(x, self.x, self.values[name])

    def half_sums(self, name, op, M, dt):
        """Rows m = 0..M of op(F(r + m dt), F(r - m dt)) / 2 for F = W, w or d.

        When dt is a whole number s of cells, row m pairs two windows of the
        extended node values shifted by +-m*s cells: no interpolation, and
        two strided views feed a single ufunc call.  Otherwise one
        interpolation covers every row.
        """
        grid = self.grid
        half = 0.5 * self.values[name]  # exact: op(a/2, b/2) == op(a, b)/2
        out = np.empty((M + 1, grid.n))
        s = dt / grid.dr
        cells = int(round(s))
        if cells >= 1 and abs(s - cells) <= 1e-12 * s:
            K = self.K
            windows = sliding_window_view(half, grid.n)
            op(windows[K::cells][: M + 1], windows[K::-cells][: M + 1], out=out)
        else:
            t = (dt * np.arange(M + 1))[:, None]
            plus = np.interp(grid.r + t, self.x, half)
            op(plus, np.interp(grid.r - t, self.x, half), out=out)
        return out


def _free_slices(f, M, dt, kind):
    """All M+1 slices t_m = m*dt of the free sine or cosine evolution of f.

    One d'Alembert transport of w = r*f: the sine rows are (W(r+t) -
    W(r-t))/2r with origin value w(t), the cosine rows (w(r+t) + w(r-t))/2r
    with origin value w'(t), and cosine row 0 is f itself.  Returns the
    (M+1, n) array of field values; callers check the budget.
    """
    tr = _Transport(f.grid, f.w(), M * dt)
    times = dt * np.arange(M + 1)
    if kind == "sine":
        out = tr.half_sums("W", np.subtract, M, dt)
        origin = tr.at("w", times)
    else:
        out = tr.half_sums("w", np.add, M, dt)
        origin = tr.at("d", times)
    out[:, 1:] /= f.grid.r[1:]
    out[:, 0] = origin
    if kind != "sine":
        out[0] = f.values
    return out


def _budget_check(grid, t, enforce):
    if enforce:
        grid.require_budget(t)


def _check_time(t):
    if t < 0:
        raise ValueError("free evolution defined for t >= 0")


def free_sine(f, t, enforce_budget=True):
    """sin(t sqrt(-Delta))/sqrt(-Delta) applied to f, by spherical means.

    In the radial reduction this is d'Alembert transport of w = r*f:
    v(r, t) = (W(r+t) - W(r-t))/2 with W the (even) antiderivative of the
    odd extension of w; u = v/r with u(0, t) = w(t).
    """
    _check_time(t)
    _budget_check(f.grid, t, enforce_budget)
    return RadialField(f.grid, _free_slices(f, 1, t, "sine")[1])


def free_cosine(g0, t, enforce_budget=True):
    """cos(t sqrt(-Delta)) applied to g0; t = 0 returns g0 exactly."""
    _check_time(t)
    if t == 0.0:
        return g0
    _budget_check(g0.grid, t, enforce_budget)
    return RadialField(g0.grid, _free_slices(g0, 1, t, "cosine")[1])


def _free_traj(f, T, dt, kind, enforce_budget):
    _check_time(T)
    _budget_check(f.grid, T, enforce_budget)
    M = int(round(T / dt))
    return SpaceTimeField(f.grid, dt, _free_slices(f, M, dt, kind))


def free_sine_traj(f, T, dt, enforce_budget=True):
    return _free_traj(f, T, dt, "sine", enforce_budget)


def free_cosine_traj(g0, T, dt, enforce_budget=True):
    return _free_traj(g0, T, dt, "cosine", enforce_budget)


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


def _leapfrog(grid, w0, wdot0, T, dt, force, stride=1, wg=None, stop=None, rates=False):
    """Three-level integration of w_tt = w_rr + force on the interior nodes.

    The package's one time-stepping loop.  The ends are Dirichlet; the
    first step is the Taylor step from (w0, wdot0), every later one
    2 w_m - w_{m-1} + dt^2 acc_m.  force(w, m, acc) adds everything but the
    second difference to the interior acceleration acc of state m, in place.
    When wg is given (the reduced eigenvector r*g), the g-component of the
    state is removed after every step: the continuous-spectrum evolution
    commutes with that projection exactly, and without it rounding error
    reseeds the exponentially unstable mode and dominates long horizons.
    stop(m, w), when given, sees every state w_m as it is made; the first
    value other than None ends the run there and is returned as its status.

    Only the states m = 0, stride, 2 stride, ... up to the last step m_end
    are stored (stride None stores none).  With rates, the time derivative
    of each stored state is stored too, by _rate from the last five states
    the loop keeps: five-point centred, lower-order within two steps of
    m = 0 and of m_end.  Returns (rows, rate_rows, m_end, status);
    rate_rows is None without rates.
    """
    if dt > grid.dr + 1e-12:
        raise GridUsageError(f"CFL violation: dt={dt} > dr={grid.dr}")
    M = int(round(T / dt))
    dr2 = grid.dr**2
    acc = np.zeros(grid.n)
    interior = acc[1:-1]

    def accel(w, m):
        interior[...] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dr2
        force(w, m, interior)
        return acc

    if wg is not None:
        wg = wg / np.sqrt(np.sum(wg * wg))

    def suppress(w):
        if wg is not None:
            w -= np.dot(w, wg) * wg
        return w

    stored = 0 if stride is None else M // stride + 1
    rows = np.empty((stored, grid.n))
    drows = np.empty((stored, grid.n)) if rates else None
    w_prev = None
    w_cur = suppress(np.array(w0, dtype=float))
    recent = [w_cur]  # the states m-4..m whose rates _rate reads
    if stored:
        rows[0] = w_cur
    status = None if stop is None else stop(0, w_cur)
    m = 0
    while status is None and m < M:
        m += 1
        if m == 1:
            w_next = suppress(w_cur + dt * wdot0 + 0.5 * dt * dt * accel(w_cur, 0))
        else:
            w_next = suppress(2.0 * w_cur - w_prev + dt * dt * accel(w_cur, m - 1))
        w_prev, w_cur = w_cur, w_next
        if rates:
            recent = recent[-4:] + [w_cur]
            if m >= 2 and (m - 2) % stride == 0:
                drows[(m - 2) // stride] = _rate(recent, len(recent) - 3, dt)
        if stored and m % stride == 0:
            rows[m // stride] = w_cur
        if stop is not None:
            status = stop(m, w_cur)
        # a stopped run keeps the verdict its stop test gave
        if status is None and m % 64 == 0 and not np.all(np.isfinite(w_cur)):
            raise PropagatorError(f"leapfrog instability detected at t={m * dt}")
    if status is None and not np.all(np.isfinite(w_cur)):
        raise PropagatorError("leapfrog instability detected at final step")
    if stored:
        stored = m // stride + 1
        rows = rows[:stored]
    if rates:
        drows = drows[:stored]
        # the stored states among the last two still wait for their rates
        for j in (m - 1, m):
            if j >= 0 and j % stride == 0:
                drows[j // stride] = _rate(recent, len(recent) - 1 - (m - j), dt)
    return rows, drows, m, status


def _rate(w, i, dt):
    """Time derivative of the state w[i] of consecutive states w, dt apart.

    The five-point centred difference
    (8 (w[i+1] - w[i-1]) - (w[i+2] - w[i-2])) / 12dt (Fornberg, Math. Comp.
    51, 1988) where two states lie on each side; with fewer, the centred
    difference, then the one-sided one, then 0 for a lone state.  w is a
    list of states or an array of rows.
    """
    before, after = min(i, 2), min(len(w) - 1 - i, 2)
    if before == after == 2:
        return (8.0 * (w[i + 1] - w[i - 1]) - (w[i + 2] - w[i - 2])) / (12.0 * dt)
    if before and after:
        return (w[i + 1] - w[i - 1]) / (2.0 * dt)
    if after:
        return (w[i + 1] - w[i]) / dt
    if before:
        return (w[i] - w[i - 1]) / dt
    return np.zeros_like(w[i])


def _centred_rates(rows, dt):
    """The rates _leapfrog stores with rates, from its rows stored at stride 1."""
    out = np.empty(rows.shape)
    for i in range(len(rows)):
        out[i] = _rate(rows, i, dt)
    return out


def evolve_linear_perturbed(u0, u1, source, T, dt, a=1.0, stride=1, project_out=None):
    """Time-domain realization of the evolution generated by H = -Delta + V(a).

    source may be None or a SpaceTimeField sampled at the solver dt.  The
    flow is linear: one run from (u0, u1) with source F is the cosine
    evolution of u0 plus the sine evolution of u1 plus the sine Duhamel
    integral of F.
    project_out, when set to SpectralData, keeps the state in the
    continuous subspace of the scheme (see _leapfrog).  Discrete energy
    drift over [0, T] is O(dt^2).
    """
    grid = u0.grid
    V = soliton.potential(grid.r, a)[1:-1]
    src = None
    if source is not None:
        if abs(source.dt - dt) > 1e-12:
            raise GridUsageError("source trajectory must be sampled at the solver dt")
        src = source.samples[:, 1:-1]
        r = grid.r[1:-1]

    def force(w, m, acc):
        acc -= V * w[1:-1]
        if src is not None:
            acc += r * src[min(m, src.shape[0] - 1)]

    wg = grid.r * project_out.g.values if project_out is not None else None
    rows = _leapfrog(grid, u0.w(), u1.w(), T, dt, force, stride=stride, wg=wg)[0]
    return SpaceTimeField(grid, dt * stride, _values_from_w(grid, rows))


def free_pairing_series(data_field, weight_field, T, dt, kind):
    """<free sine or cosine evolution of data (t), weight> for t = 0..T.

    One trajectory of exact transport against the inner_product weights
    4 pi * simpson * r^2 * weight; no budget check (pairings against a
    decaying weight are read at every radius).
    """
    grid = weight_field.grid
    traj = free_sine_traj if kind == "sine" else free_cosine_traj
    samples = traj(data_field, T, dt, enforce_budget=False).samples
    return samples @ (FOUR_PI * grid.simpson_weights * grid.r**2 * weight_field.values)


def _secular_decomposition(f, T, dt, S, stride, kind):
    """Perturbed sine or cosine evolution of P_c f split as dispersive + secular.

    Perturbed side: evolve the data (0, P_c f) for "sine", (P_c f, 0) for
    "cosine" under H.  Secular side: the rank-one projector applied to the
    running time integral of the free evolution of f of the same kind.
    Returns (dispersive_traj, secular_traj); their sum is the full
    perturbed evolution.
    """
    from .spectral import project_continuous_w, secular_coefficient

    grid = f.grid
    grid.require_budget(T)
    pcf = project_continuous_w(f, S)
    data = (grid.zeros(), pcf) if kind == "sine" else (pcf, grid.zeros())
    full = evolve_linear_perturbed(*data, None, T, dt, a=S.a, stride=stride, project_out=S)

    q = grid.field(soliton.resonance_weight(grid.r, S.a))
    series = free_pairing_series(f, q, T, dt, kind)
    cum = cumulative_trapezoid(series, dx=dt)
    coeff = -secular_coefficient(S) * cum[::stride]
    secular = SpaceTimeField(grid, dt * stride, np.outer(coeff, S.resonance.values))
    dispersive = SpaceTimeField(grid, dt * stride, full.samples - secular.samples)
    return dispersive, secular


def secular_decomposition_S(f, T, dt, S, stride=1):
    """Split the perturbed sine evolution of (0, P_c f): (S_traj, secular_traj)."""
    return _secular_decomposition(f, T, dt, S, stride, "sine")


def secular_decomposition_C(g0, T, dt, S, stride=1):
    """Cosine mirror of secular_decomposition_S with data (P_c g0, 0)."""
    return _secular_decomposition(g0, T, dt, S, stride, "cosine")


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
