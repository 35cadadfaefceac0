"""Small shared numerics: low-discrepancy sampling, bump functions, local interpolation."""

from __future__ import annotations

import numpy as np

# Plastic-ratio (R2) low-discrepancy sequence constants.
_PLASTIC = 1.3247179572447460  # real root of x^3 = x + 1
_R2_ALPHA = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


def r2_points(n, lows, highs):
    """n quasi-uniform points in the box [lows, highs] (2D), deterministic."""
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    frac = (0.5 + idx * _R2_ALPHA[None, :]) % 1.0
    return lows + frac * (highs - lows)


def smoothstep(t):
    """C^4 monotone ramp: 0 for t<=0, 1 for t>=1 (degree-9 polynomial)."""
    t = np.clip(t, 0.0, 1.0)
    t4 = t * t * t * t
    return t4 * t * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))


def bump(x, inner, outer):
    """C^4 plateau cutoff: 1 on |x|<=inner, 0 on |x|>=outer."""
    if outer <= inner:
        raise ValueError("bump needs outer > inner")
    return smoothstep((outer - np.abs(x)) / (outer - inner))


def lagrange_value_and_derivs(x, f, x0, nderiv=3, npts=6):
    """Value and derivatives 1..nderiv at x0 of the local Lagrange polynomial
    through the npts nodes of the samples f(x) nearest x0."""
    x = np.asarray(x)
    f = np.asarray(f)
    if len(x) < npts:
        raise ValueError("grid too short for interpolation stencil")
    i = int(np.searchsorted(x, x0))
    lo = min(max(i - npts // 2, 0), len(x) - npts)
    xs = x[lo:lo + npts] - x0
    V = np.vander(xs, npts, increasing=True)
    c = np.linalg.solve(V, f[lo:lo + npts])  # c_k = p^(k)(x0) / k!
    fact = 1.0
    out = [c[0]]
    for k in range(1, nderiv + 1):
        fact *= k
        out.append(c[k] * fact if k < len(c) else 0.0)
    return np.array(out)
