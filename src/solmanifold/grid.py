"""Uniform radial discretization of symmetric functions on R^3.

Everything downstream works on the reduced variable w = r*f, which turns the
3D radial Laplacian into a plain 1D second difference and makes the discrete
calculus (inner products, norms, wave propagation) essentially exact for the
profiles that matter here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * np.pi


class GridUsageError(ValueError):
    """Raised on grid mismatches and causality-budget violations."""


def _odd_node_count(n):
    # composite Simpson needs an odd node count; round up
    n = int(n)
    if n < 16:
        raise ValueError(f"node count {n} too small (need >= 16)")
    return n if n % 2 == 1 else n + 1


@dataclass(frozen=True)
class RadialGrid:
    """Uniform mesh r_j = j*dr on [0, R] with an observation ball B_{R_obs}.

    The causality budget R >= R_obs + T guarantees that the truncation
    boundary at r = R cannot influence anything measured inside B_{R_obs}
    up to time T (unit propagation speed).
    """

    R: float
    n: int
    R_obs: float = None  # default R/2

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("outer radius must be positive")
        object.__setattr__(self, "n", _odd_node_count(self.n))
        if self.R_obs is None:
            object.__setattr__(self, "R_obs", 0.5 * self.R)
        if not (0 < self.R_obs <= self.R):
            raise ValueError("observation radius must lie in (0, R]")
        r = np.linspace(0.0, self.R, self.n)
        r.setflags(write=False)
        object.__setattr__(self, "_r", r)
        ws = np.ones(self.n)
        ws[1:-1:2] = 4.0
        ws[2:-1:2] = 2.0
        ws *= self.dr / 3.0
        ws.setflags(write=False)
        object.__setattr__(self, "_simpson", ws)

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, so their node
        # radii are read-only too
        return (RadialGrid, (self.R, self.n, self.R_obs))

    @property
    def dr(self):
        return self.R / (self.n - 1)

    @property
    def r(self):
        """Node radii, built once per grid and shared read-only."""
        return self._r

    @property
    def simpson_weights(self):
        """Composite-Simpson weights, built once per grid and shared read-only."""
        return self._simpson

    @property
    def cell_volumes(self):
        """Shell volumes 4*pi*r^2*dr used as the discrete radial measure."""
        return FOUR_PI * self.r**2 * self.dr

    def budget_horizon(self):
        """Largest evolution horizon T with R >= R_obs + T."""
        return self.R - self.R_obs

    def require_budget(self, T):
        if T > self.budget_horizon() + 1e-12:
            raise GridUsageError(
                f"causality budget violated: T={T} but R - R_obs = {self.budget_horizon()}"
            )

    def obs_slice(self, radius=None):
        """Index slice of the nodes in the ball of the given radius (default R_obs)."""
        if radius is None:
            radius = self.R_obs
        return slice(0, int(np.floor(radius / self.dr)) + 1)

    def field(self, values):
        return RadialField(self, np.asarray(values, dtype=float))

    def zeros(self):
        return RadialField(self, np.zeros(self.n))


@dataclass
class RadialField:
    """Samples of a spherically symmetric function at the grid nodes."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise GridUsageError(
                f"field has {self.values.shape} samples for a grid of {self.grid.n} nodes"
            )
        self.values.setflags(write=False)

    def w(self):
        """Reduced variable w = r*f (w[0] = 0 encodes regularity at the origin)."""
        return self.grid.r * self.values

    def __add__(self, other):
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return RadialField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return RadialField(self.grid, self.values * float(c))

    __rmul__ = __mul__


def _check_same_grid(f, g):
    if f.grid is not g.grid and (f.grid.R != g.grid.R or f.grid.n != g.grid.n):
        raise GridUsageError("fields live on different grids")


def cumulative_trapezoid(y, dx):
    """Trapezoid integrals of y from its first sample to every sample, along
    the last axis; the same operations as scipy's with initial=0."""
    out = np.zeros(y.shape)
    np.cumsum(dx * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


def _values_from_w(grid, w):
    """In place along the last axis: w = r*f becomes f, the origin by parabolic
    extrapolation (f even).  One call converts a whole (M+1, n) stack, or its
    leading columns."""
    w[..., 1:] /= grid.r[1 : w.shape[-1]]
    w[..., 0] = (4.0 * w[..., 1] - w[..., 2]) / 3.0
    return w


def field_from_w(grid, w):
    """Recover f = w/r; the origin value by parabolic extrapolation (f even)."""
    return RadialField(grid, _values_from_w(grid, np.array(w, dtype=float)))


def inner_product(f, g):
    """Composite-Simpson approximation of the R^3 pairing 4*pi*Int f g r^2 dr.

    Accurate for fields negligible at R; pairings against the non-decaying
    resonance must carry an O(r^-4) weight and are tracked at R and 2R
    (see spectral.resonance_pairing).
    """
    _check_same_grid(f, g)
    gr = f.grid
    return FOUR_PI * float(np.sum(gr.simpson_weights * f.values * g.values * gr.r**2))


def pair_w(f, g):
    """Plain dr-weighted pairing 4*pi*dr*sum(w_f*w_g).

    This is the pairing in which the discrete 1D Laplacian on w is exactly
    self-adjoint, so the modulation bookkeeping uses it for all g-overlaps.
    Agrees with inner_product to quadrature accuracy on smooth fields.
    """
    _check_same_grid(f, g)
    gr = f.grid
    return FOUR_PI * gr.dr * float(np.sum(f.values * g.values * gr.r**2))


def laplacian(f):
    """3D radial Laplacian via the second difference of w = r*f.

    Interior: (w_{j+1} - 2 w_j + w_{j-1})/dr^2 / r_j.  Origin: the smooth
    even limit 6*(f_1 - f_0)/dr^2.  At r = R a one-sided second difference
    on w closes the stencil.  Second-order consistent on smooth fields.
    """
    gr = f.grid
    if gr.n < 3:
        raise GridUsageError("laplacian needs at least 3 nodes")
    w = f.w()
    dr = gr.dr
    out = np.empty(gr.n)
    out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dr**2 / gr.r[1:-1]
    out[0] = 6.0 * (f.values[1] - f.values[0]) / dr**2
    # one-sided (w_{n-4..n-1}) closure, second order
    out[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / dr**2 / gr.r[-1]
    return RadialField(gr, out)


def l2_norm(f, radius=None):
    v = _restrict(f, radius)
    gr = f.grid
    ws = gr.simpson_weights
    return float(np.sqrt(FOUR_PI * np.sum(ws * v * v * gr.r**2)))


def h1_seminorm(f, radius=None):
    """|| grad f ||_{L^2} via midpoint differences of w = r*f.

    For fields with a c/r tail (soliton family) the w-form reproduces the
    full-space norm up to O(R^-3): the omitted tail mass equals the
    boundary term [r f^2]_R that the w-form retains.
    """
    gr = f.grid
    w = f.w()
    if radius is not None:
        w = w[gr.obs_slice(radius)]
    dw = np.diff(w) / gr.dr
    return float(np.sqrt(FOUR_PI * gr.dr * np.sum(dw * dw)))


def weighted_norm(f, kind, radius=None):
    """Norms of <x> f: membership of f in <x>^-1 X means <x> f lies in X."""
    gr = f.grid
    bracket = np.sqrt(1.0 + gr.r**2)
    weighted = RadialField(gr, bracket * f.values)
    if kind == "<x>^-1 H1":
        return h1_seminorm(weighted, radius=radius)
    if kind == "<x>^-1 L2":
        return l2_norm(weighted, radius=radius)
    raise GridUsageError(f"unknown weighted norm kind {kind!r}")


def _restrict(f, radius):
    if radius is None:
        return f.values
    inside = f.grid.obs_slice(radius)
    out = np.zeros(f.grid.n)
    out[inside] = f.values[inside]
    return out
