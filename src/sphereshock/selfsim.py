"""Self-similar variables: rescaling of physical runs into the zoom frame,
bootstrap inequality monitors, and the distance to the blow-up profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import profile
from .modulation import ModulationState
from .util import lagrange_value_and_derivs
from .weno import derivs_c4


@dataclass
class BootstrapConstants:
    """Desk-scale calibration of the monitor constants.

    M dominates the initial data and universal constants; tau0 is the
    initial timescale; l = (ln M)^-5 and L = tau0^(-1/10) follow from them.
    profile_distance reads the inner region |y| <= l at fixed points, so the
    profile there is built once, with the constants.
    """

    M: float = 100.0
    tau0: float = 1e-2
    sigma_inf: float = 1.0
    l: float = field(init=False)
    L: float = field(init=False)
    distance_y: np.ndarray = field(init=False, repr=False, compare=False)
    distance_wbar: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.l = float(np.log(self.M)) ** -5
        self.L = self.tau0 ** -0.1
        # profile_distance's inner sup: 17 points and the profile
        self.distance_y = np.linspace(-self.l, self.l, 17)
        self.distance_wbar = profile.w1d(self.distance_y)


@dataclass
class SelfSimField:
    s: float
    y: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    win: slice          # the compared window |y| <= L
    yb: np.ndarray      # <y> = sqrt(1 + y^2) on every node
    wbar: list          # [Wbar, Wbar', Wbar''] on y[win]
    dW: dict = field(default_factory=dict)  # k -> d^k_y W
    dZ: dict = field(default_factory=dict)
    origin_jet: np.ndarray = None  # d^k_y W at y = 0, k = 0..7


def to_selfsimilar(grid, xi_hat, w, z, mod: ModulationState,
                   L) -> SelfSimField:
    """Map physical fields on the uniform grid the solver steps into the zoom
    frame centred at the shock location xi_hat on that grid.

    y = (grid - xi_hat) e^{3s/2}, W = e^{s/2}(w - kappa), Z = z.  Derivative
    arrays are produced by differencing with the grid's one dx and rescaling
    by powers of e^{3s/2}, never by differencing the stretched y-grid.  The
    compared window |y| <= L, <y> and the profile jet on that window are
    formed here, once per sample, as is the origin jet: the one 8-node
    interpolant of W at y = 0 that every origin monitor reads.  mod, a
    ModulationState, has tau > t_tilde, so the frame is defined.
    """
    grid = np.asarray(grid)
    w = np.asarray(w)
    z = np.asarray(z)
    s = mod.s
    e32 = np.exp(1.5 * s)
    e12 = np.exp(0.5 * s)
    y = zoom_coordinate(grid, xi_hat, s)
    win = compared_window(y, L)
    fld = SelfSimField(s=float(s), y=y, W=e12 * (w - mod.kappa), Z=z.copy(),
                       win=win, yb=np.sqrt(1.0 + y * y),
                       wbar=profile.w1d_jet(y[win], upto=2))
    dx = grid[1] - grid[0]
    for k, (dw, dz) in enumerate(zip(derivs_c4(w, dx), derivs_c4(z, dx)),
                                 start=1):
        dw *= e12 * e32 ** -k
        dz *= e32 ** -k
        fld.dW[k], fld.dZ[k] = dw, dz
    fld.origin_jet = lagrange_value_and_derivs(fld.y, fld.W, 0.0, nderiv=7,
                                               npts=8)
    return fld


def zoom_coordinate(grid, xi_hat, s):
    """y = (grid - xi_hat) e^{3s/2} of the co-moving nodes grid."""
    return (grid - xi_hat) * np.exp(1.5 * s)


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

    def family_passed(self, prefix):
        return all(v >= 0.0 for k, v in self.margins.items()
                   if k.startswith(prefix))


def _min_margin(bound, quantity, y):
    margin = bound - np.abs(quantity)
    i = int(np.argmin(margin))
    return float(margin[i]), float(y[i])


def _max_margin(bound, quantity, y):
    """_min_margin for a constant bound: bound - max|q| is min(bound - |q|),
    since rounding is monotone, and its y is that of the first max of |q|."""
    aq = np.abs(quantity)
    i = int(np.argmax(aq))
    return float(bound - aq[i]), float(y[i])


def bootstrap_report(fld: SelfSimField,
                     consts: BootstrapConstants) -> BootstrapReport:
    """Pointwise margins of the bootstrap inequalities on the zoom frame.

    Families: ba_w_* (profile-scale bounds on W), ba_wt_* (deviation from
    the profile on the compared window |y| <= L, and of W'''(0) through the
    origin jet), ba_z_* (sound speed deviation).  Failures are reported,
    never raised.  The outer three nodes carry edge-padded stencils and are
    excluded.
    """
    trim = slice(3, -3)
    y = fld.y[trim]
    yb = fld.yb[trim]
    M, t0 = consts.M, consts.tau0
    e32 = np.exp(-1.5 * fld.s)

    margins, worst = {}, {}

    def put(name, bound, quantity, yy=y, margin=_min_margin):
        if len(yy):
            margins[name], worst[name] = margin(bound, quantity, yy)

    yb23 = yb ** (-2.0 / 3.0)
    put("ba_w_0", (1.0 + t0 ** (1.0 / 23.0)) * yb ** (1.0 / 3.0), fld.W[trim])
    put("ba_w_1", 15.0 * yb23, fld.dW[1][trim])
    put("ba_w_2", M ** (1.0 / 6.0) * yb23, fld.dW[2][trim])
    put("ba_w_3", M ** 0.5, fld.dW[3][trim], margin=_max_margin)
    put("ba_w_4", float(M), fld.dW[4][trim], margin=_max_margin)

    win, wbar = fld.win, fld.wbar
    yw = fld.y[win]
    ybw = fld.yb[win]
    ybw23 = ybw ** (-2.0 / 3.0)
    put("ba_wt_0", t0 ** (1.0 / 3.0) * ybw ** (1.0 / 3.0), fld.W[win] - wbar[0], yw)
    put("ba_wt_1", t0 ** 0.25 * ybw23, fld.dW[1][win] - wbar[1], yw)
    put("ba_wt_2", t0 ** 0.2 * ybw23, fld.dW[2][win] - wbar[2], yw)

    jet = fld.origin_jet
    margins["ba_wt_3_origin"] = float(t0 ** 0.8 - abs(jet[3] - 6.0))
    worst["ba_wt_3_origin"] = 0.0

    put("ba_z_0", M * t0, fld.Z[trim] + consts.sigma_inf, margin=_max_margin)
    for k, power in ((1, 1.0), (2, 4.0 / 3.0), (3, 6.0), (4, 7.0)):
        put(f"ba_z_{k}", M**power * e32, fld.dZ[k][trim], margin=_max_margin)

    return BootstrapReport(margins=margins, worst=worst)


def profile_distance(fld: SelfSimField, consts: BootstrapConstants):
    """The |y| <= l sup of |W - Wbar|, W through the origin jet.  On the
    compared window |y| <= L, ba_wt_0 and ba_wt_1 bound the distance."""
    return float(np.max(np.abs(_taylor(fld.origin_jet, consts.distance_y)
                               - consts.distance_wbar)))


def normalization_check(fld: SelfSimField):
    """Residuals of the origin pinning W(s, 0) = 0, dW(s, 0) = -1."""
    jet = fld.origin_jet
    return float(abs(jet[0])), float(abs(jet[1] + 1.0))
