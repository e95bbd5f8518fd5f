"""Closed-form soliton family, its scale derivative, and the linearization potential.

All profiles are evaluated analytically (never by differencing samples) so the
spectral and modulation modules carry no avoidable discretization error.
"""

from __future__ import annotations

import numpy as np

# static evaluations accept any a > 0; modulation runs guard the tighter window
MODULATION_WINDOW = (0.5, 1.5)
DEFECT_WINDOW = (0.0, 2.0)


def check_scale(a):
    if not a > 0:
        raise ValueError(f"soliton scale must be positive, got {a}")
    return float(a)


def phi(r, a=1.0):
    """Soliton profile (3a)^(1/4) (1 + a r^2)^(-1/2); positive, decreasing."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    return (3.0 * a) ** 0.25 / np.sqrt(1.0 + a * r * r)


def dphi_da(r, a=1.0):
    """Scale derivative of phi: the zero resonance (bounded, not square integrable)."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    s = 1.0 + a * r * r
    return 3.0**0.25 * a**-0.75 * (0.25 / np.sqrt(s) - 0.5 * a * r * r * s**-1.5)


def potential(r, a=1.0):
    """Linearization potential -5 phi^4; negative with an O(r^-4) tail."""
    a = check_scale(a)
    r = np.asarray(r, dtype=float)
    return -5.0 * 3.0 * a / (1.0 + a * r * r) ** 2


def resonance_defect_profile(r, a):
    """Difference dphi_da(r, a) - a^(-5/4) dphi_da(r, 1).

    Vanishes at a = 1 and decays like <r>^-3 with an O(|a-1|) amplitude,
    which is what lets the modulation equations treat the rescaled
    resonance as a fixed profile plus a small localized defect.
    """
    a = check_scale(a)
    if not (DEFECT_WINDOW[0] < a <= DEFECT_WINDOW[1]):
        raise ValueError(f"defect profile defined for a in {DEFECT_WINDOW}, got {a}")
    return dphi_da(r, a) - a**-1.25 * dphi_da(r, 1.0)


def phi_field(grid, a=1.0):
    return grid.field(phi(grid.r, a))


def dphi_da_field(grid, a=1.0):
    return grid.field(dphi_da(grid.r, a))
