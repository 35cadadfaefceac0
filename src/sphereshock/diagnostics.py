"""Post-run verification of the blow-up phenomenology: blow-up time, rate
exponent, location drift, Hölder regularity, and vacuum absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .riemann import betas


class DiagnosticUndefinedError(ValueError):
    """Not enough usable samples for the requested fit."""


# the grid and denominators of the last holder_seminorm call
_holder_last = (np.empty(0), ())


def _holder_denominators(x):
    """(sep, good, |x[i+sep] - x[i]|^(1/3) at good) for the dyadic
    separations sep = 1, 2, 4, ... < len(x) with any distinct pair, good
    None when every pair is distinct.  A run samples one fixed grid, so the
    terms of the last grid are kept, keyed on its content."""
    global _holder_last
    last_x, terms = _holder_last
    if last_x.shape == x.shape and np.array_equal(last_x, x):
        return terms
    terms = []
    sep = 1
    while sep < len(x):
        den = np.abs(x[sep:] - x[:-sep]) ** (1.0 / 3.0)
        good = den > 0
        if np.all(good):
            terms.append((sep, None, den))
        elif np.any(good):
            terms.append((sep, good, den[good]))
        sep *= 2
    _holder_last = (x.copy(), terms)
    return terms


def holder_seminorm(x, f):
    """Stratified-pair estimate of the C^{1/3} seminorm
    sup |f(a)-f(b)| / |a-b|^(1/3).

    Uses all adjacent pairs plus dyadic separations (O(N log N) pairs); the
    dense all-pairs oracle validates this at small N.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if len(x) < 3:
        raise DiagnosticUndefinedError("holder_seminorm needs at least 3 samples")
    best = 0.0
    for sep, good, den in _holder_denominators(x):
        num = np.abs(f[sep:] - f[:-sep])
        if good is not None:
            num = num[good]
        best = max(best, float(np.max(num / den)))
    return best


def _growth_window(t, slope, clip_frac=0.02):
    """Indices of the final decade of slope growth, excluding the last
    clip_frac of samples before the stop (scheme-diffusion zone)."""
    n = len(t)
    if n < 10:
        raise DiagnosticUndefinedError("need at least 10 samples")
    keep = max(10, int(np.floor(n * (1.0 - clip_frac))))
    peak = slope[keep - 1]
    lo = peak / 10.0
    idx = np.flatnonzero(slope[:keep] >= lo)
    if len(idx) < 10:
        raise DiagnosticUndefinedError("fewer than 10 samples in the fit window")
    return idx


def blowup_time(record, clip_frac=0.02):
    """Extrapolated blow-up time from the slope history.

    Fits 1/max-slope against t over the final decade of growth and returns
    (T_star, tau_tracker_end, fit_residual).  For exact Burgers dynamics the
    fit is affine and exact.
    """
    if record.status != "blew_up":
        raise DiagnosticUndefinedError(f"run ended with status {record.status!r}")
    t = record.series("t_tilde")
    slope = record.series("max_slope")
    idx = _growth_window(t, slope, clip_frac)
    y = 1.0 / slope[idx]
    A = np.vstack([t[idx], np.ones_like(y)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    a, b = coef
    if a >= 0:
        raise DiagnosticUndefinedError("inverse slope not decreasing; no blow-up trend")
    T_star = -b / a
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    tau_end = float(record.series("tau")[-1])
    return float(T_star), tau_end, resid


def resolution_window(tau0, dx):
    """Largest max-slope at which the stencil bias in the tracked tau, which
    grows like ~150 dx^4 s^5, stays below 2% of tau0^2."""
    return (0.02 * tau0**2 / (150.0 * dx**4)) ** 0.2


def blowup_time_refined(record):
    """Sharper T* from the tracker: fit tau = T* + a (tau - t)^2.

    The predicted-time series tau(t) approaches T* quadratically in the
    remaining time (exactly affinely for flat Burgers), so a two-parameter
    linear fit over a resolution-limited slope window removes the physical
    curvature; the window keeps the s^5-growing late-time stencil bias out.
    """
    t = record.series("t_tilde")
    tau = record.series("tau")
    slope = record.series("max_slope")
    solver = record.config["solver"]
    tau0 = solver["tau0"]
    slope_lo = 1.5 / tau0
    dx = (solver["theta_max"] - solver["theta_min"]) / (solver["n_cells"] - 1)
    slope_hi = min(resolution_window(tau0, dx), 0.35 * dx ** (-2.0 / 3.0))
    slope_hi = max(slope_hi, 2.2 * slope_lo)
    sel = (slope >= slope_lo) & (slope <= slope_hi)
    if np.count_nonzero(sel) < 10:
        raise DiagnosticUndefinedError("fewer than 10 samples in the tau-fit window")
    rem = tau[sel] - t[sel]
    A = np.vstack([np.ones_like(rem), rem**2]).T
    coef, *_ = np.linalg.lstsq(A, tau[sel], rcond=None)
    return float(coef[0])


def rate_fit(record, T_star=None, clip_frac=0.02):
    """Least-squares exponent of max-slope ~ (T* - t)^p; expect p = -1.

    Requires the recorded slope history to span at least a decade of growth;
    the fit itself uses the final decade, excluding the stop zone.
    """
    t = record.series("t_tilde")
    slope = record.series("max_slope")
    span = float(np.max(slope) / slope[0])
    if span < 10.0 * (1.0 - 1e-9):
        raise DiagnosticUndefinedError(f"slope growth spans {span:.2f}x < one decade")
    if T_star is None:
        T_star, _, _ = blowup_time(record, clip_frac)
    idx = _growth_window(t, slope, clip_frac)
    idx = idx[T_star - t[idx] > 0]
    X = np.log(T_star - t[idx])
    Y = np.log(slope[idx])
    p = np.polyfit(X, Y, 1)[0]
    return float(p), span


def location_report(record, xi0, kappa0, beta3, M, tau0):
    """Drift of the tracked shock location and exterior gradient bounds."""
    t = record.series("t_tilde")
    xi = record.series("xi")
    drift = np.abs(xi - xi0 - 2.0 * beta3 * kappa0 * t)
    out = {
        "max_drift": float(np.max(drift)),
        "drift_budget": float(M ** 1.75 * tau0**2),
        "ext_grad": {},
    }
    for key in record.samples[0]:
        if key.startswith("ext_grad_"):
            delta = float(key.split("_")[-1])
            sup = float(np.max(record.series(key)))
            bound = M + 2.0 * delta ** (-2.0 / 3.0)
            out["ext_grad"][key] = {"delta": delta, "sup": sup, "bound": bound,
                                    "pass": sup <= bound}
    out["pass"] = (out["max_drift"] <= out["drift_budget"]
                   and all(v["pass"] for v in out["ext_grad"].values()))
    return out


def edge_contact_time(record):
    """First sample t_tilde whose deviation support lies within the WENO5
    stencil reach (3 nodes) of either grid end, else None.  Past it the
    edge-replicated ghosts are no longer exact."""
    solver = record.config["solver"]
    grid = np.linspace(solver["theta_min"], solver["theta_max"],
                       solver["n_cells"])
    for s in record.samples:
        lo, hi = s.get("support_lo"), s.get("support_hi")
        if lo is not None and (lo <= grid[3] or hi >= grid[-4]):
            return s["t_tilde"]
    return None


def vacuum_check(record, sigma_inf):
    """Global minimum of sigma over the run; pass iff >= sigma_inf / 2."""
    min_sigma = float(np.min(record.series("min_sigma")))
    return {"min_sigma": min_sigma, "bound": 0.5 * sigma_inf,
            "pass": min_sigma >= 0.5 * sigma_inf}


@dataclass
class BlowupReport:
    T_star: float
    tau_tracker: float
    rate_exponent: float
    rate_span: float
    xi_star: float
    holder_seminorm_max: float
    min_sigma: float
    flags: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(self.flags.values())


def blowup_report(record, holder_cap, rate_tol=0.05,
                  clip_frac=0.02) -> BlowupReport:
    """Assemble the full verdict for a completed blow-up run; clip_frac is
    passed on to the T* and rate fits.  T* must lie within the 2 M tau0^2
    time budget of tau0."""
    solver = record.config["solver"]
    sigma_inf = solver["sigma_inf"]
    tau0 = solver["tau0"]
    beta3 = betas(solver["gamma"]).beta3
    M = solver["monitor_M"]
    xi0 = solver["xi0"]
    kappa0 = sigma_inf

    T_star, tau_end, _ = blowup_time(record, clip_frac)
    rate, span = rate_fit(record, T_star, clip_frac)
    loc = location_report(record, xi0, kappa0, beta3, M, tau0)
    vac = vacuum_check(record, sigma_inf)
    holder_max = float(np.max(record.series("holder_w")))

    flags = {
        "blow_up_time": abs(T_star - tau0) <= 2.0 * M * tau0**2,
        "rate": abs(rate + 1.0) <= rate_tol,
        "rate_span_decade": span >= 10.0,
        "location": loc["pass"],
        "vacuum": vac["pass"],
        "holder": holder_max <= holder_cap,
    }
    return BlowupReport(T_star=T_star, tau_tracker=tau_end, rate_exponent=rate,
                        rate_span=span, xi_star=float(record.series("xi")[-1]),
                        holder_seminorm_max=holder_max, min_sigma=vac["min_sigma"],
                        flags=flags)
