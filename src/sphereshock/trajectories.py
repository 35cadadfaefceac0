"""Lagrangian trajectories of self-similar transport fields, with growth
certificates and weighted path integrals for the trajectory lemmas.

Fields come in as callables V(s, y); FrozenTransportField wraps frozen
simulation snapshots into such callables, forming their transport offsets
from the zoom-frame state each snapshot holds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .equivariant import transport_speeds


@dataclass
class TrajectoryPath:
    """Dense-output trajectory: cubic Hermite between accepted steps."""

    s: np.ndarray
    y: np.ndarray
    f: np.ndarray            # field values at the nodes
    s1: float
    y0: float

    def __post_init__(self):
        if len(self.s) < 2 or np.any(np.diff(self.s) <= 0):
            raise ValueError("trajectory samples must increase strictly in s")

    @property
    def s_end(self):
        return float(self.s[-1])

    def __call__(self, s_query):
        """Cubic Hermite interpolation of the path (vectorized)."""
        sq = np.atleast_1d(np.asarray(s_query, dtype=float))
        if np.any(sq < self.s[0] - 1e-12) or np.any(sq > self.s[-1] + 1e-12):
            raise ValueError("query outside the integrated span")
        sq = np.clip(sq, self.s[0], self.s[-1])
        idx = np.clip(np.searchsorted(self.s, sq, side="right") - 1, 0, len(self.s) - 2)
        h = self.s[idx + 1] - self.s[idx]
        t = (sq - self.s[idx]) / h
        y0, y1 = self.y[idx], self.y[idx + 1]
        f0, f1 = self.f[idx] * h, self.f[idx + 1] * h
        t2, t3 = t * t, t * t * t
        out = ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * f0
               + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * f1)
        return out if np.ndim(s_query) else float(out[0])


_RKF_A = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_B = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_C4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
MAX_STEPS = 200000


def integrate_trajectory(V, s1, y0, s_end, tol=1e-10) -> TrajectoryPath:
    """Adaptive RKF45 integration of dPhi/ds = V(s, Phi) from (s1, y0).

    Local error is controlled to tol per step.  A step whose error estimate
    is not finite is refused: no step size would be accepted there.
    """
    if not s_end > s1:
        raise ValueError("s_end must exceed s1")
    y0 = float(y0)
    a0, a1, a2, a3, a4, a5 = _RKF_A
    (b10,), (b20, b21), (b30, b31, b32), (b40, b41, b42, b43), \
        (b50, b51, b52, b53, b54) = _RKF_B[1:]
    c0, c1, c2, c3, c4, c5 = _RKF_C5
    d0, d1, d2, d3, d4, d5 = _RKF_C4
    ss, ys, fs = [s1], [y0], [float(V(s1, y0))]
    h = min(1e-2, s_end - s1)
    s, y = s1, y0
    for _ in range(MAX_STEPS):
        if s >= s_end - 1e-14:
            break
        h = min(h, s_end - s)
        # each stage sum starts from the integer 0, as sum() over the
        # tableau row does: 0 + (-0.0) is +0.0, and the empty first row
        # makes the first stage's argument y + h * 0
        k0 = float(V(s + a0 * h, y + h * 0))
        k1 = float(V(s + a1 * h, y + h * (0 + b10 * k0)))
        k2 = float(V(s + a2 * h, y + h * (0 + b20 * k0 + b21 * k1)))
        k3 = float(V(s + a3 * h, y + h * (0 + b30 * k0 + b31 * k1 + b32 * k2)))
        k4 = float(V(s + a4 * h, y + h * (0 + b40 * k0 + b41 * k1 + b42 * k2
                                          + b43 * k3)))
        k5 = float(V(s + a5 * h, y + h * (0 + b50 * k0 + b51 * k1 + b52 * k2
                                          + b53 * k3 + b54 * k4)))
        y5 = y + h * (0 + c0 * k0 + c1 * k1 + c2 * k2 + c3 * k3 + c4 * k4
                      + c5 * k5)
        y4 = y + h * (0 + d0 * k0 + d1 * k1 + d2 * k2 + d3 * k3 + d4 * k4
                      + d5 * k5)
        err = abs(y5 - y4)
        if not math.isfinite(err):
            raise ValueError(f"non-finite error estimate {err!r} in the step "
                             f"from s = {s!r}, y = {y!r}")
        scale = tol * max(1.0, abs(y), abs(y5))
        if err <= scale or h <= 1e-12:
            s += h
            y = y5
            ss.append(s)
            ys.append(y)
            fs.append(float(V(s, y)))
        ratio = (scale / err) ** 0.2 if err > 0 else 2.0
        h = max(1e-12, h * min(2.0, max(0.2, 0.9 * ratio)))
    else:
        raise RuntimeError("trajectory integration exceeded MAX_STEPS")
    return TrajectoryPath(s=np.array(ss), y=np.array(ys), f=np.array(fs),
                          s1=s1, y0=y0)


def growth_certificate(path: TrajectoryPath, rate):
    """Signed margin of |Phi(s)| >= |y0| e^{rate (s - s1)} at 800 evenly
    spaced s after s1.

    Nonnegative certifies the exponential lower bound; quantitative slack
    is the margin itself.
    """
    s = np.linspace(path.s1, path.s_end, 801)[1:]
    phi = np.abs(path(s))
    bound = abs(path.y0) * np.exp(rate * (s - path.s1))
    return float(np.min(phi - bound))


def weighted_integral(path: TrajectoryPath, p):
    """Integral of <Phi(s')>^-p along the path by Simpson's rule, doubling
    from 64 intervals until two estimates agree to 1e-10 relative (at most
    18 doublings)."""
    if not 0.1 < p < 10.0:
        raise ValueError("p must lie in (1/10, 10)")

    def quad(n):
        s = np.linspace(path.s1, path.s_end, n + 1)
        g = (1.0 + path(s) ** 2) ** (-0.5 * p)
        h = (path.s_end - path.s1) / n
        return h / 3.0 * (g[0] + g[-1] + 4 * np.sum(g[1:-1:2]) + 2 * np.sum(g[2:-2:2]))

    n = 64
    prev = quad(n)
    for _ in range(18):
        n *= 2
        cur = quad(n)
        if abs(cur - prev) <= 1e-10 * max(1.0, abs(cur)):
            return float(cur)
        prev = cur
    return float(prev)


def z_drift_certificate(V_Z, path: TrajectoryPath, beta3, kappa0):
    """Margin of the leftward-drift property of the Z-transport field.

    Wherever Phi(s) <= beta3 kappa0 e^{s/2}, the drift must satisfy
    dPhi/ds <= -(1/2) beta3 kappa0 e^{s/2}; returns the minimum of
    (-(1/2) beta3 kappa0 e^{s/2} - V_Z) over the qualifying ones of 400
    evenly spaced samples (None if the region is never entered).
    """
    s = np.linspace(path.s1, path.s_end, 400)
    phi = path(s)
    gate = beta3 * kappa0 * np.exp(0.5 * s)
    mask = phi <= gate
    if not np.any(mask):
        return None
    drifts = np.array([float(np.asarray(V_Z(si, pi))) for si, pi in
                       zip(s[mask], phi[mask])])
    return float(np.min(-0.5 * beta3 * kappa0 * np.exp(0.5 * s[mask]) - drifts))


def _interp(x, xp, fp):
    """np.interp(x, xp, fp) for one float x on Python lists, written out as
    numpy computes it, NaN fallbacks included."""
    if x != x:
        return x
    if x > xp[-1]:
        return fp[-1]
    if x < xp[0]:
        return fp[0]
    j = bisect_right(xp, x) - 1
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    out = slope * (x - xp[j]) + fp[j]
    if out != out:
        out = slope * (x - xp[j + 1]) + fp[j + 1]
        if out != out and fp[j] == fp[j + 1]:
            out = fp[j]
    return out


@dataclass
class FrozenTransportField:
    """Time-sliced interpolant of g_R snapshots: V(s, y) = 3/2 y + g_R(s, y).

    Built from two or more run snapshots; linear in s between slices, linear
    in y along each slice, constant-extrapolated outside.  A scalar call runs
    in plain Python on list copies of the slices, bit for bit the vectorised g.
    """

    s_slices: np.ndarray
    y_slices: list
    g_slices: list
    _lists: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.s_slices) < 2:
            raise ValueError("a transport field needs at least two snapshot "
                             f"slices, got {len(self.s_slices)}")
        self._lists = ([float(t) for t in self.s_slices],
                       [np.asarray(y, dtype=float).tolist() for y in self.y_slices],
                       [np.asarray(g, dtype=float).tolist() for g in self.g_slices])

    @classmethod
    def from_snapshots(cls, snapshots, key="g_w"):
        """The field of the transport offset `key` of two or more snapshots:
        g_w = bt W + bt e^{s/2} c_w or g_z = b2 bt W + bt e^{s/2} c_z, with
        bt = beta_tau, b2 = beta2 and (c_w, c_z) the transport speeds of
        (kappa, Z).  The speeds take the sample's instantaneous modulation
        drift xi_dot, so the origin term carries the small ODE correction,
        not the constant-frame offset."""
        if key not in ("g_w", "g_z"):
            raise KeyError(key)
        snaps = sorted(snapshots, key=lambda r: r["s"])
        g_slices = []
        for r in snaps:
            bt, es2 = r["beta_tau"], math.exp(0.5 * r["s"])
            cw, cz = transport_speeds(r["kappa"], r["Z"], r["beta2"],
                                      r["xi_dot"])
            g_slices.append(bt * r["W"] + bt * es2 * cw if key == "g_w"
                            else r["beta2"] * bt * r["W"] + bt * es2 * cz)
        return cls(s_slices=np.array([r["s"] for r in snaps]),
                   y_slices=[np.asarray(r["y"]) for r in snaps],
                   g_slices=g_slices)

    def g(self, s, y):
        i = int(np.clip(np.searchsorted(self.s_slices, s) - 1, 0,
                        len(self.s_slices) - 2))
        s0, s1 = self.s_slices[i], self.s_slices[i + 1]
        frac = 0.0 if s1 == s0 else np.clip((s - s0) / (s1 - s0), 0.0, 1.0)
        g0 = np.interp(y, self.y_slices[i], self.g_slices[i])
        g1 = np.interp(y, self.y_slices[i + 1], self.g_slices[i + 1])
        return (1.0 - frac) * g0 + frac * g1

    def __call__(self, s, y):
        if not (isinstance(y, float) and isinstance(s, (float, int))) or s != s:
            return 1.5 * y + self.g(s, y)
        # g written out for one point: bisect_left is np.searchsorted, the
        # clamps are np.clip's (NaN and -0.0 pass through)
        y = float(y)
        ts, yl, gl = self._lists
        i = min(max(bisect_left(ts, s) - 1, 0), len(ts) - 2)
        s0, s1 = ts[i], ts[i + 1]
        if s1 == s0:
            frac = 0.0
        else:
            frac = (s - s0) / (s1 - s0)
            if frac < 0.0:
                frac = 0.0
            elif frac > 1.0:
                frac = 1.0
        g0 = _interp(y, yl[i], gl[i])
        g1 = _interp(y, yl[i + 1], gl[i + 1])
        return 1.5 * y + ((1.0 - frac) * g0 + frac * g1)

    @property
    def s_span(self):
        return float(self.s_slices[0]), float(self.s_slices[-1])
