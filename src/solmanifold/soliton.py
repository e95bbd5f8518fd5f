"""Closed-form soliton family, its scale derivative, and the linearization potential.

All profiles are evaluated analytically (never by differencing samples) so the
spectral and modulation modules carry no avoidable discretization error.
The centre of a construction is SpectralData.a; both windows are multiples of it.
"""

from __future__ import annotations

import numpy as np

# static evaluations accept any a > 0; modulation runs guard the tighter window
MODULATION_WINDOW = (0.5, 1.5)
DEFECT_WINDOW = (0.0, 2.0)


def check_scale(a):
    """A scale as a float, or an array of scales as a float array; all must be > 0.

    An array of scales (e.g. shape (M+1, 1) against r of shape (n,))
    broadcasts every profile below over a whole scale history.
    """
    if np.ndim(a) == 0:
        if not a > 0:
            raise ValueError(f"soliton scale must be positive, got {a}")
        return float(a)
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0):
        raise ValueError(f"soliton scales must be positive, got {a[~(a > 0)]}")
    return a


def _scale_pow(a, e):
    """a**e with Python's float pow, also entrywise for an array of scales.

    numpy's vectorised pow can differ from the scalar pow in the last bit;
    evaluating the scale factors the scalar way keeps a broadcast profile
    bit-identical to its per-scale evaluation.
    """
    if isinstance(a, float):
        return a**e
    return np.frompyfunc(pow, 2, 1)(a, e).astype(float)


def phi(r, a=1.0):
    """Soliton profile (3a)^(1/4) (1 + a r^2)^(-1/2); positive, decreasing."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    return _scale_pow(3.0 * a, 0.25) / np.sqrt(1.0 + a * r * r)


def dphi_da(r, a=1.0):
    """Scale derivative of phi: the zero resonance (bounded, not square integrable)."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    s = 1.0 + a * r * r
    return 3.0**0.25 * _scale_pow(a, -0.75) * (0.25 / np.sqrt(s) - 0.5 * a * r * r * s**-1.5)


def potential(r, a=1.0):
    """Linearization potential -5 phi^4; negative with an O(r^-4) tail."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    return -5.0 * 3.0 * a / (1.0 + a * r * r) ** 2


def resonance_weight(r, a=1.0):
    """V(a) dphi_da(a): the weight every resonance pairing is taken against."""
    return potential(r, a) * dphi_da(r, a)


def resonance_defect_profile(r, a, centre):
    """Difference dphi_da(r, a) - (a/centre)^(-5/4) dphi_da(r, centre).

    Vanishes at a = centre and decays like <r>^-3 with an O(|a/centre - 1|)
    amplitude, which is what lets the modulation equations treat the
    rescaled resonance as a fixed profile plus a small defect; a in centre * DEFECT_WINDOW.
    """
    a = check_scale(a)
    inside = (centre * DEFECT_WINDOW[0] < a) & (a <= centre * DEFECT_WINDOW[1])
    if not np.all(inside):
        bad = a if np.ndim(a) == 0 else a[~inside]
        raise ValueError(f"defect profile defined for a in {centre} * {DEFECT_WINDOW}, got {bad}")
    return dphi_da(r, a) - _scale_pow(a / centre, -1.25) * dphi_da(r, centre)


def phi_field(grid, a=1.0):
    return grid.field(phi(grid.r, a))


def dphi_da_field(grid, a=1.0):
    return grid.field(dphi_da(grid.r, a))
