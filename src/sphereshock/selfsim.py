"""Self-similar variables: rescaling of physical runs into the zoom frame,
bootstrap inequality monitors, and weighted distance to the blow-up profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import profile
from .modulation import ModulationState
from .util import lagrange_value_and_derivs
from .weno import DERIVS_C4


class PastBlowupError(ValueError):
    pass


@dataclass
class BootstrapConstants:
    """Desk-scale calibration of the monitor constants.

    M dominates the initial data and universal constants; tau0 is the
    initial timescale; l = (ln M)^-5 and L = tau0^(-1/10) unless overridden.
    The inner region |y| <= l is read at fixed points, so the profile there
    and the inner-family bounds are built once, with the constants.
    """

    M: float = 100.0
    tau0: float = 1e-2
    sigma_inf: float = 1.0
    l: float = None
    L: float = None
    inner_y: np.ndarray = field(init=False, repr=False, compare=False)
    inner_wbar: list = field(init=False, repr=False, compare=False)
    inner_bounds: list = field(init=False, repr=False, compare=False)
    distance_y: np.ndarray = field(init=False, repr=False, compare=False)
    distance_wbar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.l is None:
            self.l = float(np.log(self.M)) ** -5
        if self.L is None:
            self.L = self.tau0 ** -0.1
        # ba_wt_inner_k, k = 0..4: 9 points, the profile jet and the bounds
        ys = np.linspace(-self.l, self.l, 9)
        M, t0 = self.M, self.tau0
        self.inner_y = ys
        self.inner_wbar = profile.w1d_jet(ys, upto=4)
        self.inner_bounds = []
        for k in range(0, 5):
            bound = 10.0 * M**2 * np.sqrt(t0) * np.abs(ys) ** (4 - k)
            if k <= 3:
                bound = bound + t0 ** 0.6 * np.abs(ys) ** (3 - k)
            self.inner_bounds.append(bound)
        # profile_distance's inner sup: 17 points and the profile
        self.distance_y = np.linspace(-self.l, self.l, 17)
        self.distance_wbar = profile.w1d(self.distance_y)


@dataclass
class SelfSimField:
    s: float
    y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    dW: dict = field(default_factory=dict)  # k -> d^k_y W
    dZ: dict = field(default_factory=dict)
    kappa: float = 0.0
    tau: float = 0.0
    xi: float = 0.0
    t_tilde: float = 0.0
    origin_jet: np.ndarray = None  # d^k_y W at y = 0, k = 0..7


def to_selfsimilar(grid_abs, w, z, mod: ModulationState) -> SelfSimField:
    """Map physical fields on an absolute-theta grid into the zoom frame.

    y = (theta - xi) e^{3s/2}, W = e^{s/2}(w - kappa), Z = z.  Derivative
    arrays are produced by differencing in theta and rescaling by powers of
    e^{3s/2}, never by differencing the stretched y-grid.  The origin jet is
    the one 8-node interpolant of W at y = 0 that every origin monitor reads.
    """
    if not mod.tau > mod.t_tilde:
        raise PastBlowupError("self-similar frame undefined at or past blow-up")
    grid_abs = np.asarray(grid_abs)
    w = np.asarray(w)
    z = np.asarray(z)
    s = mod.s
    e32 = np.exp(1.5 * s)
    e12 = np.exp(0.5 * s)
    fld = SelfSimField(s=float(s), y=(grid_abs - mod.xi) * e32,
                       W=e12 * (w - mod.kappa), Z=z.copy(),
                       kappa=mod.kappa, tau=mod.tau, xi=mod.xi,
                       t_tilde=mod.t_tilde)
    dx = grid_abs[1] - grid_abs[0]
    for k, dke in enumerate(DERIVS_C4, start=1):
        fld.dW[k] = e12 * e32 ** -k * dke(w, dx)
        fld.dZ[k] = e32 ** -k * dke(z, dx)
    fld.origin_jet = lagrange_value_and_derivs(fld.y, fld.W, 0.0, nderiv=7,
                                               npts=8)
    return fld


def _taylor(jet, y):
    """Taylor polynomial at y of the derivatives `jet` taken at 0."""
    out = 0.0
    for k in range(len(jet) - 1, -1, -1):
        out = jet[k] + out * y / (k + 1)
    return out


def compared_window(y, L):
    """Slice of the nodes compared with the profile: |y| <= L, without the
    outer three nodes, whose stencils are edge-padded."""
    lo = max(3, int(np.searchsorted(y, -L, side="left")))
    hi = min(len(y) - 3, int(np.searchsorted(y, L, side="right")))
    return slice(lo, max(lo, hi))


@dataclass
class BootstrapReport:
    margins: dict
    worst: dict

    @property
    def passed(self):
        return all(m >= 0.0 for m in self.margins.values())

    def family(self, prefix):
        return {k: v for k, v in self.margins.items() if k.startswith(prefix)}

    def family_passed(self, prefix):
        return all(v >= 0.0 for v in self.family(prefix).values())


def _min_margin(bound, quantity, y):
    margin = bound - np.abs(quantity)
    i = int(np.argmin(margin))
    return float(margin[i]), float(y[i])


def window_profile(fld: SelfSimField, consts: BootstrapConstants):
    """[Wbar, Wbar', Wbar''] on the compared window |y| <= L, the profile
    that bootstrap_report and profile_distance compare W with."""
    return profile.w1d_jet(fld.y[compared_window(fld.y, consts.L)], upto=2)


def bootstrap_report(fld: SelfSimField, consts: BootstrapConstants,
                     wbar) -> BootstrapReport:
    """Pointwise margins of the bootstrap inequalities on the zoom frame.

    Families: ba_w_* (profile-scale bounds on W), ba_wt_* (deviation from
    the profile on the compared window |y| <= L, and on |y| <= l and at the
    origin through the origin jet), ba_z_* (sound speed deviation).
    Failures are reported, never raised.  The outer three nodes carry
    edge-padded stencils and are excluded; the inner family is
    interpolation-limited once its bounds fall below grid precision.
    `wbar` is the window_profile of fld.
    """
    trim = slice(3, -3)
    y = fld.y[trim]
    yb = np.sqrt(1.0 + y * y)
    M, t0 = consts.M, consts.tau0
    e32 = np.exp(-1.5 * fld.s)

    margins, worst = {}, {}

    def put(name, bound, quantity, yy=y):
        if len(yy):
            margins[name], worst[name] = _min_margin(bound, quantity, yy)

    yb23 = yb ** (-2.0 / 3.0)
    put("ba_w_0", (1.0 + t0 ** (1.0 / 23.0)) * yb ** (1.0 / 3.0), fld.W[trim])
    put("ba_w_1", 15.0 * yb23, fld.dW[1][trim])
    put("ba_w_2", M ** (1.0 / 6.0) * yb23, fld.dW[2][trim])
    put("ba_w_3", M ** 0.5, fld.dW[3][trim])
    put("ba_w_4", float(M), fld.dW[4][trim])

    win = compared_window(fld.y, consts.L)
    yw = fld.y[win]
    ybw = np.sqrt(1.0 + yw * yw)
    ybw23 = ybw ** (-2.0 / 3.0)
    put("ba_wt_0", t0 ** (1.0 / 3.0) * ybw ** (1.0 / 3.0), fld.W[win] - wbar[0], yw)
    put("ba_wt_1", t0 ** 0.25 * ybw23, fld.dW[1][win] - wbar[1], yw)
    put("ba_wt_2", t0 ** 0.2 * ybw23, fld.dW[2][win] - wbar[2], yw)

    jet = fld.origin_jet
    margins["ba_wt_3_origin"] = float(t0 ** 0.8 - abs(jet[3] - 6.0))
    worst["ba_wt_3_origin"] = 0.0

    # inner region |y| <= l sits below the grid scale: read the origin jet
    ys = consts.inner_y
    for k in range(0, 5):
        wt_k = _taylor(jet[k:], ys) - consts.inner_wbar[k]
        put(f"ba_wt_inner_{k}", consts.inner_bounds[k], wt_k, ys)

    put("ba_z_0", M * t0, fld.Z[trim] + consts.sigma_inf)
    for k, power in ((1, 1.0), (2, 4.0 / 3.0), (3, 6.0), (4, 7.0)):
        put(f"ba_z_{k}", M**power * e32, fld.dZ[k][trim])

    return BootstrapReport(margins=margins, worst=worst)


def profile_distance(fld: SelfSimField, consts: BootstrapConstants, wbar):
    """Weighted sup distances between W and the blow-up profile.

    Returns {inner_sup, weighted_sup, weighted_grad_sup}: the |y| <= l sup of
    |W - Wbar| through the origin jet, and the <y>^(-1/3)- and
    <y>^(2/3)-weighted sups on the compared window |y| <= L.  `wbar` is the
    window_profile of fld.
    """
    win = compared_window(fld.y, consts.L)
    y = fld.y[win]
    yb = np.sqrt(1.0 + y * y)

    inner = float(np.max(np.abs(_taylor(fld.origin_jet, consts.distance_y)
                                - consts.distance_wbar)))
    return {
        "inner_sup": inner,
        "weighted_sup": float(np.max(yb ** (-1.0 / 3.0)
                                     * np.abs(fld.W[win] - wbar[0]))),
        "weighted_grad_sup": float(np.max(yb ** (2.0 / 3.0)
                                          * np.abs(fld.dW[1][win] - wbar[1]))),
    }


def normalization_check(fld: SelfSimField):
    """Residuals of the origin pinning W(s, 0) = 0, dW(s, 0) = -1."""
    jet = fld.origin_jet
    return float(abs(jet[0])), float(abs(jet[1] + 1.0))
