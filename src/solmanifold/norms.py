"""Discrete Lorentz, mixed space-time, Kato, and energy functionals.

Rearrangements are computed against the exact discrete volume measure
(cell volumes 4 pi r^2 dr), not node counts: the radial measure is wildly
non-uniform and Lorentz norms are measure-theoretic objects.  Sup-type
norms are taken over the observation ball B_{R_obs} so the causality budget
keeps the truncation boundary out of every reported number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import FOUR_PI, GridUsageError, cumulative_trapezoid, h1_seminorm, inner_product

__all__ = [
    "NormReport",
    "lorentz_norm",
    "lp_norm_cells",
    "mixed_norm",
    "spacetime_l8",
    "kato_norm",
    "newton_potential",
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

    def to_json(self):
        return json.dumps(
            {
                "kind": self.kind,
                "value": self.value,
                "R": self.R,
                "R_obs": self.R_obs,
                "n": self.n,
                "dt": self.dt,
                "T": self.T,
            }
        )


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


_INNER_TAGS = ("Linf_t", "L2_t", "L1_t")


def _inner_time_profile(samples, dt, inner):
    if inner == "Linf_t":
        return np.max(np.abs(samples), axis=0)
    if inner == "L2_t":
        return np.sqrt(np.sum(samples**2, axis=0) * dt)
    if inner == "L1_t":
        return np.sum(np.abs(samples), axis=0) * dt
    raise GridUsageError(f"unknown inner time norm {inner!r} (use one of {_INNER_TAGS})")


def mixed_norm(u, outer, inner, radius=None):
    """Space-outer, time-inner mixed norm of a trajectory.

    outer: ("lorentz", p, q) or "Linf_x"; inner: "Linf_t" | "L2_t" | "L1_t".
    The inner norm is computed per spatial node, then the outer norm is
    taken of the resulting radial profile inside B_{R_obs} by default.
    Only the nodes inside that ball are read.
    """
    grid = u.grid
    if radius is None:
        radius = grid.R_obs
    inside = grid.obs_slice(radius)
    profile = np.zeros(grid.n)
    profile[inside] = _inner_time_profile(u.samples[:, inside], u.dt, inner)
    if outer == "Linf_x":
        return float(np.max(np.abs(profile[inside])))
    if isinstance(outer, tuple) and outer[0] == "lorentz":
        return lorentz_norm(grid.field(profile), outer[1], outer[2], radius=radius)
    raise GridUsageError(f"unknown outer norm {outer!r}")


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


def energy(psi, psi_t):
    """E = 1/2 Int |grad psi|^2 + psi_t^2 - 1/6 Int psi^6."""
    grad2 = h1_seminorm(psi) ** 2
    kin = inner_product(psi_t, psi_t)
    # a product, not **: libm pow is slow on the tiny far-field values
    v = psi.values
    cube = psi.grid.field(v * v * v)
    pot = inner_product(cube, cube)
    return 0.5 * (grad2 + kin) - pot / 6.0
