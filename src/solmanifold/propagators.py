"""Wave propagators for radial data.

Free evolutions are computed by exact 1D d'Alembert transport on w = r*f
(odd extension through the origin), which removes numerical dispersion from
every secular-term computation.  The perturbed evolution for H = -Delta + V
is realized in the time domain by leapfrog on w; its spatial operator is the
same stencil the spectral module diagonalizes, so the discrete eigenpair
(k, g) is exact for the scheme.  That leapfrog, _leapfrog, is the package's
only time stepper: the nonlinear flow of the modulation module runs on it
with its own force and stop test, one state at a time or, for the
fixed-point h of a sweep, as one (K, n) stack of K states whose rows each
keep the bits of their own run.  It hands only the strided snapshots its
callers read to a consumer, which stores them by default, so memory grows
with the snapshots, not with the steps, and with neither when the consumer
reduces each snapshot as it is made.  A stored trajectory holds the
whole grid.  Given a profiles consumer (inside and add, see _free_slices),
the free trajectories and the secular split store no trajectory at all:
the rows of the ball it reads go to it in blocks of about BLOCK_BYTES
(256 KB) as they are made, so that a block, a norms.TimeProfiles' copy of
it and the transport's windows fit in L2 together.  The resonance series
stream to a whole-grid consumer that pairs each row.  A linear run reads
its source one row per step through one accessor, so a source need not be
stored: a row source may make its rows as the run reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

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
from .spectral import secular_coefficient

__all__ = [
    "SpaceTimeField",
    "free_sine",
    "free_cosine",
    "free_sine_traj",
    "free_cosine_traj",
    "evolve_linear_perturbed",
    "secular_decomposition_S",
    "secular_decomposition_C",
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

    def half_sums(self, name, op, dt, cols):
        """A filler of rows of op(F(r + m dt), F(r - m dt)) / 2 for F = W, w or d.

        fill(m0, out) writes rows m = m0, m0+1, ... into out, one row per
        row of out, at its cols leading columns.  The halved node values
        are made once here and shared by every block.  When dt is a whole
        number s of cells, row m pairs two windows of them shifted by
        +-m*s cells, built once here too: no interpolation, and two
        strided views feed a single ufunc call.  Otherwise one
        interpolation covers each block.
        """
        grid = self.grid
        half = 0.5 * self.values[name]  # exact: op(a/2, b/2) == op(a, b)/2
        s = dt / grid.dr
        cells = int(round(s))
        if cells >= 1 and abs(s - cells) <= 1e-12 * s:
            windows = sliding_window_view(half, cols)
            ahead, behind = windows[self.K :: cells], windows[self.K :: -cells]

            def fill(m0, out):
                m1 = m0 + len(out)
                op(ahead[m0:m1], behind[m0:m1], out=out)

        else:
            r = grid.r[:cols]

            def fill(m0, out):
                t = (dt * np.arange(m0, m0 + len(out)))[:, None]
                op(np.interp(r + t, self.x, half), np.interp(r - t, self.x, half), out=out)

        return fill


def _columns(grid, profiles):
    """Leading node count a producer makes: the whole grid, or the ball profiles read.

    At least 3: the origin value of f = w/r is extrapolated from nodes 1, 2.
    """
    return grid.n if profiles is None else max(profiles.inside.stop, 3)


# bytes of one block of rows that a streamed evolution hands to its profiles:
# a block, the profiles' copy of it and the transport's windows fit in L2
BLOCK_BYTES = 2**18


def _block_rows(cols):
    return max(1, BLOCK_BYTES // (8 * cols))


def _free_slices(f, M, dt, kind, profiles=None):
    """All M+1 slices t_m = m*dt of the free sine or cosine evolution of f.

    One d'Alembert transport of w = r*f: the sine rows are (W(r+t) -
    W(r-t))/2r with origin value w(t), the cosine rows (w(r+t) + w(r-t))/2r
    with origin value w'(t), and cosine row 0 is f itself.  The rows are
    made in blocks of about BLOCK_BYTES.  Without profiles the blocks fill
    the returned (M+1, n) array.  profiles is any object with inside, the
    slice of the leading nodes it reads, and add(rows): a norms.TimeProfiles
    or _resonance_series' pairing sink.  add receives each block in turn,
    at the nodes of inside, in one reused buffer it must consume before it
    returns, and nothing is stored or returned.  Callers check the budget.
    """
    grid = f.grid
    cols = _columns(grid, profiles)
    tr = _Transport(grid, f.w(), M * dt)
    name, op, origin = ("W", np.subtract, "w") if kind == "sine" else ("w", np.add, "d")
    fill = tr.half_sums(name, op, dt, cols)
    r = grid.r[1:cols]
    step = _block_rows(cols)
    out = np.empty((M + 1, cols)) if profiles is None else np.empty((min(step, M + 1), cols))
    for m0 in range(0, M + 1, step):
        m1 = min(m0 + step, M + 1)
        block = out[m0:m1] if profiles is None else out[: m1 - m0]
        fill(m0, block)
        block[:, 1:] /= r
        block[:, 0] = tr.at(origin, dt * np.arange(m0, m1))
        if m0 == 0 and kind != "sine":
            block[0] = f.values[:cols]
        if profiles is not None:
            profiles.add(block)
    return out if profiles is None else None


def _check_time(t):
    if t < 0:
        raise ValueError("free evolution defined for t >= 0")


def free_sine(f, t):
    """sin(t sqrt(-Delta))/sqrt(-Delta) applied to f, by spherical means.

    In the radial reduction this is d'Alembert transport of w = r*f:
    v(r, t) = (W(r+t) - W(r-t))/2 with W the (even) antiderivative of the
    odd extension of w; u = v/r with u(0, t) = w(t).
    """
    _check_time(t)
    f.grid.require_budget(t)
    return RadialField(f.grid, _free_slices(f, 1, t, "sine")[1])


def free_cosine(g0, t):
    """cos(t sqrt(-Delta)) applied to g0; t = 0 returns g0 exactly."""
    _check_time(t)
    if t == 0.0:
        return g0
    g0.grid.require_budget(t)
    return RadialField(g0.grid, _free_slices(g0, 1, t, "cosine")[1])


def _free_traj(f, T, dt, kind, profiles):
    _check_time(T)
    f.grid.require_budget(T)
    M = int(round(T / dt))
    rows = _free_slices(f, M, dt, kind, profiles)
    return None if profiles is not None else SpaceTimeField(f.grid, dt, rows)


def free_sine_traj(f, T, dt, profiles=None):
    """Free sine trajectory of f on [0, T].

    With profiles (inside and add, see _free_slices), the rows of their
    ball go to profiles.add block by block as they are made, nothing is
    stored and None is returned; the consumer owns the finiteness check a
    stored trajectory makes.
    """
    return _free_traj(f, T, dt, "sine", profiles)


def free_cosine_traj(g0, T, dt, profiles=None):
    """Free cosine trajectory of g0 on [0, T]; profiles as for free_sine_traj."""
    return _free_traj(g0, T, dt, "cosine", profiles)


def _resonance_series(grid, a, T, dt, kind, fields):
    """The (len(fields), M+1) series <free(f)(t_m), q> of each f in fields, q = V(a) dphi_da(a).

    <free(f)(t), q> = <f, free(q)(t)>: one free transport of q, streamed to
    a whole-grid profiles consumer, serves every f.  Each row is paired with
    each w * f, w = 4 pi * simpson * r^2, by its own dot product (np.vecdot;
    a gemv's bits would follow the rows of a block, so BLOCK_BYTES).  No
    transport is stored, so a non-finite series raises GridUsageError.
    """
    q = grid.field(soliton.resonance_weight(grid.r, a))
    weighted = FOUR_PI * grid.simpson_weights * grid.r**2 * np.array([f.values for f in fields])
    products = []  # per block, its (fields, rows) dot products
    sink = SimpleNamespace(inside=slice(0, grid.n),
                           add=lambda block: products.append(np.vecdot(weighted[:, None], block)))
    (free_sine_traj if kind == "sine" else free_cosine_traj)(q, T, dt, profiles=sink)
    series = np.concatenate(products, axis=1)
    if not np.isfinite(series).all():
        raise GridUsageError("non-finite trajectory samples")
    return series


def _leapfrog(grid, w0, wdot0, T, dt, force, stride=1, wg=None, stop=None, rates=False,
              emit=None):
    """Three-level integration of w_tt = w_rr + force on the interior nodes.

    The package's one time-stepping loop.  A state is one row of n values,
    or a (K, n) stack of K rows stepped together: every operation acts
    along the last axis or elementwise, so each row of a stack takes the
    bits of its own K = 1 run.  The ends are Dirichlet; the first step is
    the Taylor step from (w0, wdot0), every later one
    2 w_m - w_{m-1} + dt^2 acc_m.  force(w, m, acc) adds everything but the
    second difference to the interior acceleration acc of state m, in place.
    When wg is given (the reduced eigenvector r*g), the g-component of the
    state is removed after every step: the continuous-spectrum evolution
    commutes with that projection exactly, and without it rounding error
    reseeds the exponentially unstable mode and dominates long horizons.
    A stack with wg raises GridUsageError.  stop(m, w), when given, sees
    every state w_m as it is made; the first value other than None ends
    the run there and is returned as its status.

    Only the states m = 0, stride, 2 stride, ... up to the last step m_end
    are emitted (stride None emits none).  With rates, the time
    derivative of each emitted state goes with it, by _rate from the last
    five states the loop keeps: five-point centred, lower-order within two
    steps of m = 0 and of m_end.  emit(j, row, rate) receives snapshot j
    once both exist: at step j stride without rates (rate None), at step
    j stride + 2 with them, and the last two after the loop.  row is a view
    of the live state, rate a fresh array.  The default emit
    stores the snapshots in two preallocated stacks, so memory grows with
    the snapshots, not with the steps; a (K, n) state stores (snapshots,
    K, n).  Returns (rows, rate_rows, m_end,
    status); rows and rate_rows are those stacks, cut at m_end, and are
    None when emit is given, rate_rows also without rates.
    """
    if dt > grid.dr + 1e-12:
        raise GridUsageError(f"CFL violation: dt={dt} > dr={grid.dr}")
    shape = np.shape(w0)
    if len(shape) > 1 and wg is not None:
        raise GridUsageError("the g-projection steps one state, not a stack")
    M = int(round(T / dt))
    dr2 = grid.dr**2
    acc = np.zeros(shape)
    interior = acc[..., 1:-1]

    def accel(w, m):
        interior[...] = (w[..., 2:] - 2.0 * w[..., 1:-1] + w[..., :-2]) / dr2
        force(w, m, interior)
        return acc

    if wg is not None:
        wg = wg / np.sqrt(np.sum(wg * wg))

    def suppress(w):
        if wg is not None:
            w -= np.dot(w, wg) * wg
        return w

    rows = drows = None
    if emit is None:
        stored = 0 if stride is None else M // stride + 1
        rows = np.empty((stored, *shape))
        drows = np.empty((stored, *shape)) if rates else None

        def emit(j, row, rate):
            rows[j] = row
            if rates:
                drows[j] = rate

    w_prev = None
    w_cur = suppress(np.array(w0, dtype=float))
    recent = [w_cur]  # the states m-4..m whose rates _rate reads
    if stride is not None and not rates:
        emit(0, w_cur, None)
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
                emit((m - 2) // stride, recent[-3], _rate(recent, len(recent) - 3, dt))
        elif stride is not None and m % stride == 0:
            emit(m // stride, w_cur, None)
        if stop is not None:
            status = stop(m, w_cur)
        # a stopped run keeps the verdict its stop test gave
        if status is None and m % 64 == 0 and not np.all(np.isfinite(w_cur)):
            raise PropagatorError(f"leapfrog instability detected at t={m * dt}")
    if status is None and not np.all(np.isfinite(w_cur)):
        raise PropagatorError("leapfrog instability detected at final step")
    if rates:
        # the emitted states among the last two still wait for their rates
        for j in (m - 1, m):
            if j >= 0 and j % stride == 0:
                i = len(recent) - 1 - (m - j)
                emit(j // stride, recent[i], _rate(recent, i, dt))
    if rows is not None:
        kept = 0 if stride is None else m // stride + 1
        rows = rows[:kept]
        if rates:
            drows = drows[:kept]
    return rows, drows, m, status


def _rate(w, i, dt):
    """Time derivative of the state w[i] of consecutive states w, dt apart.

    The five-point centred difference
    (8 (w[i+1] - w[i-1]) - (w[i+2] - w[i-2])) / 12dt (Fornberg, Math. Comp.
    51, 1988) where two states lie on each side; with fewer, the centred
    difference, then the one-sided one, then 0 for a lone state.
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


def evolve_linear_perturbed(u0, u1, source, T, dt, a=1.0, stride=1, project_out=None,
                            consume=None):
    """Time-domain realization of the evolution generated by H = -Delta + V(a).

    source may be None, a SpaceTimeField sampled at the solver dt, or a row
    source: any object with dt, rows (its row count) and row(m), the values
    of row m, which the force asks for once per step in increasing m.  A
    SpaceTimeField is adapted to one here; the modulation module's Picard
    map hands one that makes its rows a block at a time as the run reaches
    them.  The steps read rows 0..M-1 of [0, T], so a source of fewer rows
    raises GridUsageError.  The flow is linear: one run from (u0, u1) with
    source F is the cosine evolution of u0 plus the sine evolution of u1
    plus the sine Duhamel integral of F.
    project_out, when set to SpectralData, keeps the state in the
    continuous subspace of the scheme (see _leapfrog), and is the only P_c
    the flow needs: in w = r f, _leapfrog's projection is the scheme-pairing
    P_c, an orthogonal projector P applied to state 0, the Taylor step and
    every later state; P(r F) = r P_c F and P(I - P) = 0, so by induction
    (u0, u1, F) and (P_c u0, P_c u1, P_c F) give the same states in exact
    arithmetic.  Discrete energy drift over [0, T] is O(dt^2).
    With consume, nothing is stored: consume(j, row) receives the values of
    snapshot j, a fresh array, in order, as the leapfrog makes it (see
    _leapfrog), and None is returned.
    """
    grid = u0.grid
    wg = grid.r * project_out.g.values if project_out is not None else None
    source_row = None
    if source is not None:
        if isinstance(source, SpaceTimeField):
            source = SimpleNamespace(dt=source.dt, rows=len(source.samples),
                                     row=source.samples.__getitem__)
        if abs(source.dt - dt) > 1e-12:
            raise GridUsageError("source trajectory must be sampled at the solver dt")
        steps = int(round(T / dt))
        if source.rows < steps:
            raise GridUsageError(f"a source of {source.rows} rows for a run that reads {steps}")
        source_row = source.row
    emit = None
    if consume is not None:

        def emit(j, row, rate):
            consume(j, _values_from_w(grid, np.array(row)))

    rows = _leapfrog(grid, u0.w(), u1.w(), T, dt, _linear_force(grid, a, source_row),
                     stride=stride, wg=wg, emit=emit)[0]
    if consume is not None:
        return None
    return SpaceTimeField(grid, dt * stride, _values_from_w(grid, rows))


def _linear_force(grid, a, row):
    """The _leapfrog force of H = -Delta + V(a), with source row(m) at step m unless row is None."""
    V = soliton.potential(grid.r, a)[1:-1]
    r = grid.r[1:-1]

    def force(w, m, acc):
        acc -= V * w[1:-1]
        if row is not None:
            acc += r * row(m)[1:-1]

    return force


def _secular_decomposition(f, T, dt, S, stride, kind, series, profiles=None):
    """Perturbed sine or cosine evolution of P_c f split as dispersive + secular.

    Perturbed side: evolve the data (0, f) for "sine", (f, 0) for "cosine"
    under H with the per-step projection of evolve_linear_perturbed's
    project_out=S, which evolves P_c f.  Secular side: the rank-one
    projector applied to the running time integral of series, the
    M+1 values <free(f)(t_m), q> of the free evolution of f of the same
    kind, which _resonance_series(grid, S.a, T, dt, kind, [f]) makes here
    when None: a caller splitting many f on one grid makes all their
    series from one transport of q.  The secular side is built from f as
    given, so the split is that of P_c f only when f has no g-component: a
    caller holding any other f passes P_c f.  Each dispersive row, the
    field of its state minus coeff_j times the resonance, is made in blocks
    of about BLOCK_BYTES as the leapfrog emits the states.  Returns
    (dispersive_traj, coeff); the secular part is coeff[:, None] *
    S.resonance.values, not built.  With profiles, profiles.add(rows)
    receives each dispersive block in turn, at the nodes of their ball, in
    one reused buffer, and nothing is stored or returned.
    """
    grid = f.grid
    grid.require_budget(T)
    if series is None:
        series = _resonance_series(grid, S.a, T, dt, kind, [f])[0]
    if len(series) != int(round(T / dt)) + 1:
        raise GridUsageError("the resonance series must hold one value per time m*dt of [0, T]")
    coeff = -secular_coefficient(S) * cumulative_trapezoid(series, dx=dt)[::stride]
    cols = _columns(grid, profiles)
    resonance = S.resonance.values[:cols]
    last = len(coeff) - 1
    step = _block_rows(cols)
    out = np.empty((last + 1, cols)) if profiles is None else np.empty((min(step, last + 1), cols))

    def emit(j, row, rate):
        i = j % step  # the block holds rows j - i .. j so far
        block = out[j - i :] if profiles is None else out
        block[i] = row[:cols]
        if i == step - 1 or j == last:
            block = block[: i + 1]
            _values_from_w(grid, block)
            block -= coeff[j - i : j + 1, None] * resonance  # now the dispersive part
            if profiles is not None:
                profiles.add(block)

    data = (grid.zeros(), f) if kind == "sine" else (f, grid.zeros())
    _leapfrog(grid, data[0].w(), data[1].w(), T, dt, _linear_force(grid, S.a, None),
              stride=stride, wg=grid.r * S.g.values, emit=emit)
    return None if profiles is not None else (SpaceTimeField(grid, dt * stride, out), coeff)


def secular_decomposition_S(f, T, dt, S, stride=1, series=None, profiles=None):
    """Split the perturbed sine evolution of (0, P_c f): (S_traj, coeff).

    series: the sine _resonance_series of f, to make many from one
    transport of q; profiles: stream the dispersive rows of their ball to
    them instead of storing (see _secular_decomposition).
    """
    return _secular_decomposition(f, T, dt, S, stride, "sine", series, profiles)


def secular_decomposition_C(g0, T, dt, S, stride=1, series=None, profiles=None):
    """Cosine mirror of secular_decomposition_S with data (P_c g0, 0)."""
    return _secular_decomposition(g0, T, dt, S, stride, "cosine", series, profiles)
