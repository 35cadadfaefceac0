"""Stable self-similar Burgers blow-up profile and its certified calculus.

The 1D profile solves the implicit relation  -W - W^3 = y  (equivalently the
stationary self-similar Burgers equation); the 2D profile is the anisotropic
lift  W(y1, y2) = <y2> * W1d(<y2>^-3 y1)  with <a> = sqrt(1 + a^2).  All
partial derivatives up to total order 4 are produced by explicit implicit
differentiation so tests can cross-check an independent finite-difference
path.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .util import r2_points

# Switch point below which the cube-root closed form loses digits to
# cancellation; a Newton solve of W + W^3 = -y takes over there.
_NEWTON_CUTOVER = 1e-3

# sup over y of |d^g W| * eta^(g1/2 + g2/6 - 1/6), measured by
# `sphereshock profile calibrate` (calibrate_deriv_bounds: 2e6 points of
# [-1e3, 1e3]^2 plus axis, near-origin and |y1| ~ <y2>^3 ridge samples),
# frozen with at most 4.4% headroom.  The pure-y2 axis suprema converge to
# the exact values 2, 6, 48, 24; |gamma| <= 1 entries are the sharp
# analytic constants.
DERIV_BOUND_C = {
    (0, 0): 1.0,
    (1, 0): 1.0,
    (0, 1): 0.5774,
    (2, 0): 0.99,
    (1, 1): 2.06,
    (0, 2): 0.82,
    (3, 0): 6.01,
    (2, 1): 5.52,
    (1, 2): 6.18,
    (0, 3): 2.89,
    (4, 0): 31.9,
    (3, 1): 49.5,
    (2, 2): 36.8,
    (1, 3): 24.8,
    (0, 4): 17.6,
}


def _require_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError("profile evaluation requires finite input")


def w1d(y):
    """1D profile: the unique real root W of  -W - W^3 = y.

    Odd, strictly decreasing; exact to floating tolerance (Newton-polished).
    """
    y = np.asarray(y, dtype=float)
    _require_finite(y)
    ya = np.abs(y)

    # Stable closed form for y >= 0:  -y/2 + r = (1/27)/(r + y/2).
    r = np.sqrt(1.0 / 27.0 + 0.25 * ya * ya)
    a = np.cbrt((1.0 / 27.0) / (r + 0.5 * ya))
    b = np.cbrt(0.5 * ya + r)
    w = a - b

    # Newton polish; near zero the closed form cancels, so restart from -y.
    w = np.where(ya < _NEWTON_CUTOVER, -ya, w)
    for _ in range(3):
        w = w - (w + w * w * w + ya) / (1.0 + 3.0 * w * w)

    return np.where(y < 0, -w, w)


def _w1d_derivs(w, upto=4):
    """Derivatives d^k W1d / dy^k, k = 1..upto, as functions of W = W1d(y);
    the higher ones, whose powers of d dominate the cost, only when asked."""
    d = 1.0 + 3.0 * w * w
    out = [-1.0 / d, -6.0 * w / d**3]
    if upto >= 3:
        out.append(6.0 / d**4 - 108.0 * w * w / d**5)
    if upto >= 4:
        out.append(360.0 * w / d**6 - 3240.0 * w**3 / d**7)
    return out[:upto]


def w1d_jet(y, upto=2):
    """[W1d, W1d', ..., W1d^(upto)] sharing a single profile solve."""
    if not 0 <= upto <= 4:
        raise ValueError("w1d_jet supports orders 0..4")
    w = w1d(y)
    return [w, *_w1d_derivs(w, upto)]


def w2d_jet(y1, y2):
    """All partials T[j][k] = d1^j d2^k W of the 2D profile for j + k <= 4.

    Entries with j + k > 4 are left as None.  Built from the pure-d1
    derivatives plus the recursion  d2 W = y2 * d1(W^2), which closes the
    mixed partials over products of lower-order entries.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    _require_finite(y1, y2)
    y1, y2 = np.broadcast_arrays(y1, y2)

    b = np.sqrt(1.0 + y2 * y2)
    t = y1 / b**3
    f0 = w1d(t)
    f1, f2, f3, f4 = _w1d_derivs(f0)

    T = [[None] * 5 for _ in range(5)]
    for j, fj in enumerate((f0, f1, f2, f3, f4)):
        T[j][0] = b ** (1 - 3 * j) * fj

    def sq(p, q):
        # d1^p d2^q (W^2) by the Leibniz rule over available entries.
        acc = 0.0
        for a_ in range(p + 1):
            for b_ in range(q + 1):
                acc = acc + comb(p, a_) * comb(q, b_) * T[a_][b_] * T[p - a_][q - b_]
        return acc

    for k in range(1, 5):
        for j in range(0, 5 - k):
            val = y2 * sq(j + 1, k - 1)
            if k >= 2:
                val = val + (k - 1) * sq(j + 1, k - 2)
            T[j][k] = val
    return T


def eta(y1, y2, p=1.0):
    """Anisotropic weight (1 + y1^2 + y2^6)^p matching the 3:1 blow-up scaling."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    _require_finite(y1, y2)
    return (1.0 + y1 * y1 + y2**6) ** p


def selfsimilar_burgers_residual(y1, y2):
    """Residual of the 2D self-similar Burgers equation at (y1, y2).

    Uses the analytic derivatives; vanishes identically, so anything above
    rounding level flags a defect in the profile calculus.
    """
    T = w2d_jet(y1, y2)
    w, d1, d2 = T[0][0], T[1][0], T[0][1]
    return (-0.5 * w + (1.5 * np.asarray(y1, dtype=float) + w) * d1
            + 0.5 * np.asarray(y2, dtype=float) * d2)


def bound_margins(y1, y2):
    """Margins of the first-order profile bounds (nonnegative means satisfied).

    Returns (eta^{1/6} - |W|, eta^{-1/3} - |d1 W|, 3^{-1/2} - |d2 W|).
    """
    T = w2d_jet(y1, y2)
    e = eta(y1, y2, 1.0)
    return (e ** (1.0 / 6.0) - np.abs(T[0][0]),
            e ** (-1.0 / 3.0) - np.abs(T[1][0]),
            np.sqrt(3.0) / 3.0 - np.abs(T[0][1]))


def deriv_bound_exponent(gamma):
    """The power 1/6 - g1/2 - g2/6 of eta in the bound on |d^gamma W|."""
    return 1.0 / 6.0 - int(gamma[0]) / 2.0 - int(gamma[1]) / 6.0


def deriv_bound_margin(y1, y2, gamma):
    """Margin of |d^gamma W| <= C_gamma eta^{1/6 - g1/2 - g2/6} (frozen C)."""
    g1, g2 = int(gamma[0]), int(gamma[1])
    c = DERIV_BOUND_C[(g1, g2)]
    return (c * eta(y1, y2, deriv_bound_exponent(gamma))
            - np.abs(w2d_jet(y1, y2)[g1][g2]))


def calibrate_deriv_bounds():
    """{gamma: (C_gamma, y1, y2)} for |gamma| <= 4: the smallest C_gamma
    with |d^gamma W| <= C_gamma eta^{1/6 - g1/2 - g2/6} on the calibration
    sample, and the point attaining it.  DERIV_BOUND_C freezes these values
    rounded up.

    The sample is 2e6 quasi-random points of [-1e3, 1e3]^2, both axes, a
    [-3, 3]^2 refinement near the origin and five |y1| ~ <y2>^3 ridges.
    """
    pts = [r2_points(2_000_000, (-1e3, -1e3), (1e3, 1e3)),
           np.column_stack([np.linspace(-1e3, 1e3, 40001), np.zeros(40001)]),
           np.column_stack([np.zeros(40001), np.linspace(-1e3, 1e3, 40001)]),
           r2_points(200001, (-3.0, -3.0), (3.0, 3.0))]
    t = np.linspace(-10, 10, 20001)
    r = np.linspace(-31, 31, 20001)
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        pts.append(np.column_stack([c * np.sign(t) * (1 + r * r) ** 1.5, r]))
    y1, y2 = np.vstack(pts).T

    # a running max over chunks of 2^17 points: the jet of the whole sample
    # would take about 0.5 GB; a later chunk wins only a strictly larger
    # value, so a tie keeps the first maximum, as argmax over the whole
    # sample does
    out, chunk = {}, 1 << 17
    for lo in range(0, y1.size, chunk):
        c1, c2 = y1[lo:lo + chunk], y2[lo:lo + chunk]
        T = w2d_jet(c1, c2)
        for total in range(5):
            for g1 in range(total, -1, -1):
                g = (g1, total - g1)
                vals = np.abs(T[g[0]][g[1]]) * eta(c1, c2, -deriv_bound_exponent(g))
                i = int(np.argmax(vals))
                if g not in out or vals[i] > out[g][0]:
                    out[g] = (float(vals[i]), float(c1[i]), float(c2[i]))
    return out
