"""Discrete Lorentz, mixed space-time, and energy functionals.

Rearrangements are computed against the exact discrete volume measure
(cell volumes 4 pi r^2 dr), not node counts: the radial measure is wildly
non-uniform and Lorentz norms are measure-theoretic objects.  Sup-type
norms are taken over the observation ball B_{R_obs} so the causality budget
keeps the truncation boundary out of every reported number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridUsageError, h1_seminorm, inner_product

__all__ = [
    "NormReport",
    "TimeProfiles",
    "lorentz_norm",
    "mixed_norm",
    "energy",
]


@dataclass(frozen=True)
class NormReport:
    kind: str
    value: float
    R: float
    R_obs: float
    n: int
    dt: float = None
    T: float = None


def _rearrangement(values, volumes):
    """Decreasing rearrangement of |f| against the cell-volume measure.

    Returns (levels, cumvol): f* is the piecewise-constant function equal to
    levels[i] on [cumvol[i-1], cumvol[i]).
    """
    mags = np.abs(values)
    order = np.argsort(mags)[::-1]
    levels = mags[order]
    cum = np.cumsum(volumes[order])
    return levels, cum


def lorentz_norm(f, p, q, radius=None):
    """Discrete L^{p,q} norm by exact piecewise evaluation of the rearrangement.

    ||f||_{p,q} = ( Int_0^inf (t^{1/p} f*(t))^q dt/t )^{1/q}; q = inf gives
    sup_t t^{1/p} f*(t).
    """
    if not (1 <= p < np.inf):
        raise ValueError(f"p out of range: {p}")
    if not (1 <= q):
        raise ValueError(f"q out of range: {q}")
    grid = f.grid
    vals = f.values
    vols = grid.cell_volumes
    if radius is not None:
        inside = grid.obs_slice(radius)
        vals = vals[inside]
        vols = vols[inside]
    levels, cum = _rearrangement(vals, vols)
    keep = levels > 0
    if not np.any(keep):
        return 0.0
    levels, cum = levels[keep], cum[keep]
    lo = np.concatenate(([0.0], cum[:-1]))
    if q == np.inf:
        return float(np.max(cum ** (1.0 / p) * levels))
    # Int t^{q/p - 1} dt over [lo, cum) piecewise
    e = q / p
    pieces = (cum**e - lo**e) / e
    return float(np.sum(levels**q * pieces) ** (1.0 / q))


_INNER_TAGS = ("Linf_t", "L2_t", "L1_t")


def _carried(reduce, buf, running):
    """reduce(buf, axis=0), with the running value as row 0 of buf when there is one."""
    if running is None:
        return reduce(buf, axis=0)
    buf[0] = running
    return reduce(buf, axis=0, out=running)


class TimeProfiles:
    """Inner time norms, per node, of a trajectory whose rows arrive in blocks.

    For each node of the ball of the given radius (default R_obs) it keeps
    the running max |v|, sum v^2 and sum |v| of the rows fed so far: the
    Linf_t, L2_t and L1_t profiles.  A later block is reduced with the
    running values as its row 0: numpy adds the rows of a C-ordered stack
    along axis 0 in order, so any blocking gives the sums of the whole
    stack bit for bit, and no block outlives its add call.  The blocks may
    also hold the rows of K trajectories stepped together, (rows, K, cols):
    then every profile and norm has one entry per trajectory, each with the
    bits of that trajectory fed alone, as the reduction along axis 0 adds
    each node's rows in the same order.
    """

    def __init__(self, grid, dt, radius=None):
        self.grid = grid
        self.dt = dt
        self.radius = grid.R_obs if radius is None else radius
        self.inside = grid.obs_slice(self.radius)
        if self.inside.stop > grid.n:
            raise GridUsageError(f"radius {self.radius} is wider than the grid (R={grid.R})")
        self._peak = self._l2 = self._l1 = None
        self._buf = np.empty((0, self.inside.stop))

    @classmethod
    def of(cls, u, radius=None):
        """The profiles of a stored trajectory u, fed as one block."""
        profiles = cls(u.grid, u.dt, radius)
        profiles.add(u.samples)
        return profiles

    def add(self, block):
        """Fold in the next rows of the trajectory; block must hold the ball's nodes."""
        cols = self.inside.stop
        if block.shape[-1] < cols:
            raise GridUsageError(f"radius {self.radius} needs {cols} nodes, "
                                 f"the trajectory holds {block.shape[-1]}")
        lead = 0 if self._peak is None else 1  # row 0 carries the running values
        if len(self._buf) < len(block) + lead or self._buf.shape[1:-1] != block.shape[1:-1]:
            # with room for the carry row, so equal blocks reuse the first buffer
            self._buf = np.empty((len(block) + 1, *block.shape[1:-1], cols))
        buf = self._buf[: len(block) + lead]
        mags = buf[lead:]
        np.abs(block[..., :cols], out=mags)
        self._peak = _carried(np.max, buf, self._peak)
        self._l1 = _carried(np.sum, buf, self._l1)
        np.square(mags, out=mags)  # |v| |v| == v v exactly
        self._l2 = _carried(np.sum, buf, self._l2)

    def profile(self, inner):
        """The inner time norm ("Linf_t" | "L2_t" | "L1_t") at each node of the ball."""
        if self._peak is None:
            raise GridUsageError("no trajectory rows were added")
        if not np.all(np.isfinite(self._peak)):
            raise GridUsageError("non-finite trajectory samples")
        if inner == "Linf_t":
            return self._peak
        if inner == "L2_t":
            return np.sqrt(self._l2 * self.dt)
        if inner == "L1_t":
            return self._l1 * self.dt
        raise GridUsageError(f"unknown inner time norm {inner!r} (use one of {_INNER_TAGS})")

    def norm(self, outer, inner):
        """Space-outer norm ("Linf_x" or ("lorentz", p, q)) of an inner time profile.

        A float, or for the rows of K trajectories a list of K floats.
        """
        profile = self.profile(inner)
        if profile.ndim > 1:
            return [self._outer(outer, p) for p in profile]
        return self._outer(outer, profile)

    def _outer(self, outer, profile):
        if outer == "Linf_x":
            return float(np.max(np.abs(profile)))
        if isinstance(outer, tuple) and outer[0] == "lorentz":
            full = np.zeros(self.grid.n)
            full[self.inside] = profile
            return lorentz_norm(self.grid.field(full), outer[1], outer[2], radius=self.radius)
        raise GridUsageError(f"unknown outer norm {outer!r}")


def mixed_norm(u, outer, inner, radius=None):
    """Space-outer, time-inner mixed norm of a trajectory.

    outer: ("lorentz", p, q) or "Linf_x"; inner: "Linf_t" | "L2_t" | "L1_t".
    The inner norm is computed per spatial node, then the outer norm is
    taken of the resulting radial profile inside B_{R_obs} by default.
    Only the nodes inside that ball are read.
    """
    return TimeProfiles.of(u, radius).norm(outer, inner)


def energy(psi, psi_t):
    """E = 1/2 Int |grad psi|^2 + psi_t^2 - 1/6 Int psi^6."""
    grad2 = h1_seminorm(psi) ** 2
    kin = inner_product(psi_t, psi_t)
    # a product, not **: libm pow is slow on the tiny far-field values
    v = psi.values
    cube = psi.grid.field(v * v * v)
    pot = inner_product(cube, cube)
    return 0.5 * (grad2 + kin) - pot / 6.0
