"""Modulation-variable tracking: the shock location, amplitude, and predicted
blow-up time, by direct extremal tracking of the field and by the origin ODE
right-hand sides, plus cross-validation between the two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import location_report
from .riemann import BetaConstants
from .util import lagrange_value_and_derivs
from .weno import deriv1_c4


class MarginError(ValueError):
    """Interpolation point too close to the grid boundary."""


class DegenerateRhsError(RuntimeError):
    """Third y-derivative of W at the origin too small for the xi ODE, or a
    tau rate with no positive beta_tau = 1/(1 - dtau)."""


class AmbiguousExtremumWarning(UserWarning):
    pass


@dataclass
class ModulationState:
    kappa: float
    tau: float
    xi: float
    t_tilde: float
    xi_dot: float = 0.0

    def __post_init__(self):
        if not self.tau > self.t_tilde:
            raise ValueError("modulation state requires tau > t_tilde")

    @property
    def s(self):
        return -np.log(self.tau - self.t_tilde)


def constraints_from_field(grid, w, xi):
    """Local-polynomial third theta-derivative of w at grid coordinate xi,
    the one origin value the ODE monitor reads."""
    grid = np.asarray(grid)
    dx = grid[1] - grid[0]
    if xi < grid[0] + 4 * dx or xi > grid[-1] - 4 * dx:
        raise MarginError(f"xi={xi} within 4 cells of the grid boundary")
    return float(lagrange_value_and_derivs(grid, np.asarray(w), xi, nderiv=3,
                                           npts=8)[3])


def track_extremal(grid, w, t_tilde, slope=None):
    """Locate the steepest descent of w and read off (xi, kappa, tau).

    xi is the parabolic refinement of argmin d(theta) w (leftmost on ties:
    separate minima within 1e-12 max(1, |min slope|) of the least slope),
    kappa = w(xi), tau = t_tilde + 1/|dw(xi)|.  Returns
    (xi, kappa, tau, slope_at_xi).
    """
    grid = np.asarray(grid)
    w = np.asarray(w)
    dx = grid[1] - grid[0]
    if slope is None:
        slope = deriv1_c4(w, dx)
    i = int(np.argmin(slope))
    ties = np.flatnonzero(slope <= slope[i] + 1e-12 * max(1.0, abs(slope[i])))
    if len(ties) > 1 and np.any(np.diff(ties) > 1):
        warnings.warn("non-unique steepest point; taking the leftmost",
                      AmbiguousExtremumWarning)
        i = int(ties[0])
    if 0 < i < len(grid) - 1:
        sm, s0, sp = slope[i - 1], slope[i], slope[i + 1]
        denom = sm - 2 * s0 + sp
        if denom > 0:
            delta = 0.5 * (sm - sp) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
            xi = grid[i] + delta * dx
            s_min = s0 - 0.125 * (sm - sp) ** 2 / denom
        else:
            xi, s_min = grid[i], s0
    else:
        xi, s_min = grid[i], slope[i]
    kappa = float(lagrange_value_and_derivs(grid, w, xi, nderiv=0)[0])
    tau = t_tilde + 1.0 / abs(s_min)
    return float(xi), kappa, float(tau), float(s_min)


def ode_rhs(d3w, mod: ModulationState, bc: BetaConstants,
            sigma_inf, Z0, dZ0, d2Z0, flat_mode=False):
    """Origin-ODE right-hand sides (dkappa, dtau, dxi) / dt_tilde.

    Normalization W(0) = 0, dW(0) = -1, d2W(0) = 0 is assumed enforced by
    the tracker; d3w is the third theta-derivative of w at xi.
    Z-quantities are y-derivatives of Z at the origin.  The leading drift
    kappa + beta2*Z0 reduces to 2*beta3*sigma_inf at the background state.
    The forcing terms carry beta_tau, which every rate divides back out, so
    none is formed.  dtau >= 1 or NaN, where no positive
    beta_tau = 1/(1 - dtau) exists, raises DegenerateRhsError.
    """
    s, kappa, xi = mod.s, mod.kappa, mod.xi
    es2 = np.exp(0.5 * s)
    d3W0 = np.exp(-4.0 * s) * d3w
    if abs(d3W0) < 0.1:
        raise DegenerateRhsError(f"d3W at origin = {d3W0}; extremal tracking must drive")

    if flat_mode:
        tan_xi = 0.0
        sec2_xi = 0.0
    else:
        tan_xi = np.tan(xi)
        sec2_xi = 1.0 + tan_xi * tan_xi

    ksq = (kappa - Z0) * ((kappa - sigma_inf) + (Z0 + sigma_inf))  # kappa^2 - Z0^2
    pref = 0.5 * bc.beta3 / es2
    F0 = pref * tan_xi * ksq
    dF0 = pref * (sec2_xi * ksq / es2**3 + tan_xi * (-2 * kappa / es2 - 2 * Z0 * dZ0))
    d2F0 = pref * (2 * tan_xi * sec2_xi * ksq / es2**6
                   + 2 * sec2_xi / es2**3 * (-2 * kappa / es2 - 2 * Z0 * dZ0)
                   + tan_xi * (2 / es2**2 - 2 * (dZ0 * dZ0 + Z0 * d2Z0)))

    dG0 = es2 * bc.beta2 * dZ0
    d2G0 = es2 * bc.beta2 * d2Z0
    G0 = (d2F0 + d2G0) / d3W0

    dkappa = es2 * (F0 + G0)
    dtau = dF0 + dG0
    if not dtau < 1.0:
        raise DegenerateRhsError(f"dtau = {dtau}; beta_tau = 1/(1 - dtau) is not positive")
    dxi = kappa + bc.beta2 * Z0 - G0 / es2
    return float(dkappa), float(dtau), float(dxi)


def cross_validate(record):
    """Compare extremal-tracked modulation against the integrated ODE monitor.

    Returns max deviations between the trackers and the bootstrap-style
    modulation margins (nonnegative margin = bound satisfied), with the
    constants of the record's solver config.
    """
    solver = record.config["solver"]
    M, tau0, kappa0 = solver["monitor_M"], solver["tau0"], solver["sigma_inf"]
    t = record.series("t_tilde")
    kap, tau = record.series("kappa"), record.series("tau")
    report = {}
    # integrate over the samples that carry the monitor, at their own times
    ode = [r for r in record.samples if r.get("ode_dkappa") is not None]
    t_ode = np.array([r["t_tilde"] for r in ode])
    for name, start in (("kappa", kappa0), ("tau", tau0),
                        ("xi", solver["xi0"])):
        rate = np.array([r[f"ode_d{name}"] for r in ode])
        integral = start + np.concatenate([[0.0], np.cumsum(
            0.5 * (rate[1:] + rate[:-1]) * np.diff(t_ode))])
        tracked = np.array([r[name] for r in ode])
        report[f"max_dev_{name}"] = float(np.max(np.abs(tracked - integral)))

    s = record.series("s")
    dtau_fd = np.gradient(tau, t) if len(t) > 2 else np.zeros_like(t)
    report["ba_m_margins"] = {
        "kappa_dev": float(M * tau0 - np.max(np.abs(kap - kappa0))),
        "xi_drift": float(M**2 * tau0**2 - location_report(record)["max_drift"]),
        "tau_dev": float(2 * M * tau0**2 - np.max(np.abs(tau - tau0))),
        "dtau": float(np.min(2 * M * np.exp(-s) - np.abs(dtau_fd))),
    }
    report["pass"] = all(v >= 0.0 for v in report["ba_m_margins"].values())
    return report
