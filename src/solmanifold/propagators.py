"""Wave propagators for radial data.

Free evolutions are computed by exact 1D d'Alembert transport on w = r*f
(odd extension through the origin), which removes numerical dispersion from
every secular-term computation.  The perturbed evolution for H = -Delta + V
is realized in the time domain by leapfrog on w; its spatial operator is the
same stencil the spectral module diagonalizes, so the discrete eigenpair
(k, g) is exact for the scheme.  That leapfrog, _leapfrog, is the package's
only time stepper: the nonlinear flow of the modulation module runs on it
with its own force and stop test, one state at a time or, for the
on-manifold passes, as one (K, n) stack of K states whose rows each keep
the bits of their own run.  Projected linear runs step stacks too: the
Picard map's data and defect runs as one pair, and the secular split of
many fields as one stack per kind.  It stores no state and is the one
owner of the snapshot format: it hands the strided snapshots its callers
read to their consumer as blocks of field values f = w / r, converted a
block at a time in one reused buffer, so memory grows with what the
consumer keeps, not with the steps, and no consumer converts a
snapshot itself (a stop test still reads each state in w).  A
stored trajectory holds the whole grid.  The secular split always
streams to a profiles consumer (inside and add, see _free_slices), and
the free trajectories do when given one: then no trajectory is stored at
all, and the rows of the ball the consumer reads go to it in blocks of about
BLOCK_BYTES (256 KB) as they are made, so that a block, a
norms.TimeProfiles' copy of it and the transport's windows fit in L2
together.  The resonance series stream to a whole-grid consumer that
pairs each row, and the split takes them from its caller.  A linear run
reads its source one row per step from a row source, which may make its
rows as the run reaches them.
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
    """A radial field sampled on a uniform time grid t_m = m*dt."""

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


def _leapfrog(grid, w0, wdot0, T, dt, force, take=None, stride=1, block=None, cols=None,
              wg=None, stop=None, rates=False):
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
    Each row of a stack is projected by its own dot product with wg
    (np.vecdot, which gives np.dot's bits for one row), so a projected
    stack keeps each row's bits too.  stop(m, w), when given, sees
    every state w_m as it is made; the first value other than None ends
    the run there and is returned as its status.

    With take, the snapshots m = 0, stride, 2 stride, ... up to the last
    step m_end go to the caller in blocks of field values, f = w / r with
    the origin extrapolated (grid._values_from_w); without take none is
    made.  A block of up to block snapshots (by default about BLOCK_BYTES)
    at the cols leading nodes (by default all) fills one reused buffer and
    is converted once, when full or when the run ends, a stopped run too.
    take(rows, values, rates) receives the blocks in order from snapshot
    0: rows is the slice of snapshot indices, values the (len(rows), K,
    cols) block (no K axis for one row), and rates that of their time
    derivatives, or None without rates.  A rate comes from the last five
    states the loop keeps (_rate: five-point centred, lower-order within
    two steps of m = 0 and of m_end), written straight into its row, so
    it holds its snapshot back two steps.  Both blocks are reused: take
    copies what it keeps.  No state is stored.  Returns (m_end, status).
    """
    if dt > grid.dr + 1e-12:
        raise GridUsageError(f"CFL violation: dt={dt} > dr={grid.dr}")
    shape = np.shape(w0)
    M = int(round(T / dt))
    dr2 = grid.dr**2
    acc = np.zeros(shape)
    interior = acc[..., 1:-1]

    def accel(w, m):  # (w[2:] - 2 w[1:-1] + w[:-2]) / dr^2 + force, into acc
        np.multiply(w[..., 1:-1], 2.0, out=interior)
        np.subtract(w[..., 2:], interior, out=interior)
        np.add(interior, w[..., :-2], out=interior)
        np.divide(interior, dr2, out=interior)
        force(w, m, interior)
        return acc

    if wg is not None:
        wg = wg / np.sqrt(np.sum(wg * wg))
        scratch = np.empty(shape)  # the g-components of a state, reused by every step

    def suppress(w):
        if wg is not None:
            w -= np.multiply(np.vecdot(w, wg)[..., None], wg, out=scratch)
        return w

    if take is not None:
        cols = shape[-1] if cols is None else cols
        block = block or _block_rows(int(np.prod(shape[:-1])) * cols)
        values = np.empty((min(block, M // stride + 1), *shape[:-1], cols))
        slopes = np.empty_like(values) if rates else None
    lag = 2 if rates else 0  # steps a snapshot waits for the states its rate reads
    ahead = 0  # the step of the next snapshot

    def settle(ready):  # every snapshot up to step ready into its row; a full block to take
        nonlocal ahead
        while ahead <= ready:
            i, j = len(recent) - 1 - (m - ahead), ahead // stride
            values[j % block] = recent[i]
            if rates:
                _rate(recent, i, dt, slopes[j % block])
            ahead += stride
            if (j + 1) % block == 0:
                flush(j)

    def flush(j):  # the block that ends at snapshot j
        i = j % block
        take(slice(j - i, j + 1), _values_from_w(grid, values[: i + 1]),
             _values_from_w(grid, slopes[: i + 1]) if rates else None)

    m, w_prev = 0, None
    w_cur = suppress(np.array(w0, dtype=float))
    if take is not None:
        # the states m-4..m that a snapshot and its rate read, at the cols leading nodes
        recent = [w_cur[..., :cols]]
        settle(-lag)
    status = None if stop is None else stop(0, w_cur)
    while status is None and m < M:
        m += 1
        # each step makes one fresh array and no other temporary state
        if m == 1:  # w_cur + dt wdot0 + dt^2/2 acc
            w_next = np.multiply(wdot0, dt)
            np.add(w_cur, w_next, out=w_next)
            w_next += np.multiply(accel(w_cur, 0), 0.5 * dt * dt, out=acc)
        else:  # 2 w_cur - w_prev + dt^2 acc
            w_next = np.multiply(w_cur, 2.0)
            w_next -= w_prev
            w_next += np.multiply(accel(w_cur, m - 1), dt * dt, out=acc)
        suppress(w_next)
        w_prev, w_cur = w_cur, w_next
        if take is not None:
            recent = (recent + [w_cur[..., :cols]])[-2 * lag - 1 :]
            settle(m - lag)
        if stop is not None:
            status = stop(m, w_cur)
        # a stopped run keeps the verdict its stop test gave
        if status is None and m % 64 == 0 and not np.all(np.isfinite(w_cur)):
            raise PropagatorError(f"leapfrog instability detected at t={m * dt}")
    if status is None and not np.all(np.isfinite(w_cur)):
        raise PropagatorError("leapfrog instability detected at final step")
    if take is not None:
        settle(m)  # the snapshots among the last lag states, with one-sided rates
        if (ahead // stride) % block:
            flush(ahead // stride - 1)
    return m, status


def _rate(w, i, dt, out):
    """Time derivative of the state w[i] of consecutive states w, dt apart, into out.

    The five-point centred difference
    (8 (w[i+1] - w[i-1]) - (w[i+2] - w[i-2])) / 12dt (Fornberg, Math. Comp.
    51, 1988) where two states lie on each side; with fewer, the centred
    difference, then the one-sided one, then 0 for a lone state.  Each
    formula's operations run in the order the expression gives them.
    """
    before, after = min(i, 2), min(len(w) - 1 - i, 2)
    if before == after == 2:
        np.subtract(w[i + 1], w[i - 1], out=out)
        out *= 8.0
        out -= w[i + 2] - w[i - 2]
        out /= 12.0 * dt
    elif before and after:
        np.subtract(w[i + 1], w[i - 1], out=out)
        out /= 2.0 * dt
    elif after or before:  # one-sided, forward where a later state exists
        k = i + 1 if after else i
        np.subtract(w[k], w[k - 1], out=out)
        out /= dt
    else:
        out[...] = 0.0


def evolve_linear_perturbed(u0, u1, source, T, dt, consume, a=1.0, project_out=None):
    """Time-domain realization of the evolution generated by H = -Delta + V(a).

    u0 and u1 are two lists of K fields: the data of K runs stepped as one
    (K, n) stack (see _leapfrog), each row with the bits of its own run.
    source is None or a row source: any object with dt, rows (its row
    count) and row(m), the (K, n) values of row m, which the force asks for
    once per step in increasing m; the modulation module's Picard map hands
    one that makes its rows a block at a time as the run reaches them.  The
    steps read rows 0..M-1 of [0, T], so a source of fewer rows raises
    GridUsageError.  The flow is linear: one run from (u0, u1) with source
    F is the cosine evolution of u0 plus the sine evolution of u1 plus the
    sine Duhamel integral of F.
    project_out, when set to SpectralData, keeps the state in the
    continuous subspace of the scheme (see _leapfrog), and is the only P_c
    the flow needs: in w = r f, _leapfrog's projection is the scheme-pairing
    P_c, an orthogonal projector P applied to state 0, the Taylor step and
    every later state; P(r F) = r P_c F and P(I - P) = 0, so by induction
    (u0, u1, F) and (P_c u0, P_c u1, P_c F) give the same states in exact
    arithmetic.  Discrete energy drift over [0, T] is O(dt^2).
    Nothing is stored: consume(rows, values) receives the snapshots
    t_j = j*dt, j = 0..M, in order, in blocks of about BLOCK_BYTES as the
    leapfrog makes them: rows is the slice of their indices j and values
    their (len(rows), K, n) field values, in a buffer the next block
    reuses (see _leapfrog).  None is returned.
    """
    grid = u0[0].grid
    w0, w1 = (np.array([f.w() for f in u]) for u in (u0, u1))
    wg = grid.r * project_out.g.values if project_out is not None else None
    source_row = None
    if source is not None:
        if abs(source.dt - dt) > 1e-12:
            raise GridUsageError("source trajectory must be sampled at the solver dt")
        steps = int(round(T / dt))
        if source.rows < steps:
            raise GridUsageError(f"a source of {source.rows} rows for a run that reads {steps}")
        source_row = source.row
    _leapfrog(grid, w0, w1, T, dt, _linear_force(grid, a, source_row),
              lambda rows, values, rates: consume(rows, values), wg=wg)


def _linear_force(grid, a, row):
    """The _leapfrog force of H = -Delta + V(a), with source row(m) at step m unless row is None."""
    V = soliton.potential(grid.r, a)[1:-1]
    r = grid.r[1:-1]
    scratch = {}  # one product buffer per interior shape, reused by every step

    def force(w, m, acc):
        tmp = scratch.get(acc.shape)
        if tmp is None:
            tmp = scratch[acc.shape] = np.empty(acc.shape)
        acc -= np.multiply(V, w[..., 1:-1], out=tmp)
        if row is not None:
            acc += np.multiply(r, row(m)[..., 1:-1], out=tmp)

    return force


def _secular_coefficients(series, dt, S, stride):
    """Coefficients of the rank-one secular part at the times t_j = j*stride*dt.

    -c_Q times the running time integral of each row of series, the values
    <free(f)(t_m), q> at t_m = m*dt that _resonance_series makes: the
    secular part of the split of f at t_j is coeff_j * S.resonance.
    """
    return -secular_coefficient(S) * cumulative_trapezoid(series, dx=dt)[..., ::stride]


def _secular_decomposition(fields, T, dt, S, stride, kind, series, profiles):
    """Perturbed sine or cosine evolutions of P_c f, f in fields, split as dispersive + secular.

    The K fields' runs step as one (K, n) stack, each row with the bits of
    its own run.  Perturbed side: evolve the data (0, f) for "sine", (f, 0)
    for "cosine" under H with the per-step projection of
    evolve_linear_perturbed's project_out=S, which evolves P_c f.  Secular
    side: coeff_j * S.resonance, coeff by _secular_coefficients from
    series, the (K, M+1) values <free(f)(t_m), q> of the free evolutions of
    the same kind (_resonance_series(grid, S.a, T, dt, kind, fields) makes
    them from one transport of q).  The secular side is built from f as
    given, so the split is that of P_c f only when f has no g-component: a
    caller holding any other f passes P_c f.  Each dispersive row, the
    field of its state minus coeff_j times the resonance, is made at the
    nodes of the ball of profiles (inside and add, see _free_slices) in
    the (rows, K, cols) value blocks of about BLOCK_BYTES that the leapfrog
    hands on.  profiles.add receives each block in turn, in one reused
    buffer, as a norms.TimeProfiles of K trajectories reads them.  Nothing
    is stored or returned: a caller that reads the secular part makes its
    coefficients from the same series.
    """
    grid = fields[0].grid
    grid.require_budget(T)
    if series.shape != (len(fields), int(round(T / dt)) + 1):
        raise GridUsageError("the resonance series must hold one value per time m*dt of [0, T]")
    coeff = _secular_coefficients(series, dt, S, stride)
    cols = _columns(grid, profiles)
    resonance = S.resonance.values[:cols]

    def take(rows, block, rates):
        block -= coeff[:, rows].T[..., None] * resonance  # now the dispersive part
        profiles.add(block)

    w = np.array([g.w() for g in fields])
    zero = np.broadcast_to(0.0, w.shape)  # _leapfrog copies state 0 and reads wdot0 once
    data = (zero, w) if kind == "sine" else (w, zero)
    _leapfrog(grid, *data, T, dt, _linear_force(grid, S.a, None), take, stride=stride,
              cols=cols, wg=grid.r * S.g.values)


def secular_decomposition_S(fields, T, dt, S, series, profiles, stride=1):
    """Split the perturbed sine evolutions of (0, P_c f), f in fields, streamed to profiles.

    series: the (len(fields), M+1) sine _resonance_series of the fields.
    See _secular_decomposition.
    """
    _secular_decomposition(fields, T, dt, S, stride, "sine", series, profiles)


def secular_decomposition_C(fields, T, dt, S, series, profiles, stride=1):
    """Cosine mirror of secular_decomposition_S with data (P_c f, 0) and cosine series."""
    _secular_decomposition(fields, T, dt, S, stride, "cosine", series, profiles)
