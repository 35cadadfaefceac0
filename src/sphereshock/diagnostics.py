"""Post-run verification of the blow-up phenomenology: blow-up time, rate
exponent, location drift, Hölder regularity, and vacuum absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .riemann import betas
from .util import comoving_grid


class DiagnosticUndefinedError(ValueError):
    """Not enough usable samples for the requested fit."""


def holder_seminorm(f, dx):
    """Stratified-pair estimate of the C^{1/3} seminorm
    sup |f(a)-f(b)| / |a-b|^(1/3) of f sampled on a uniform grid of spacing
    dx.

    Uses all adjacent pairs plus dyadic separations sep = 1, 2, 4, ...
    (O(N log N) pairs): the max |f[i+sep] - f[i]| of each, divided by
    (sep dx)^(1/3).  The dense all-pairs oracle validates this at small N.
    A field with a NaN has no seminorm: NaN.
    """
    f = np.asarray(f, dtype=float)
    best = 0.0
    sep = 1
    while sep < len(f):
        diff = float(np.max(np.abs(f[sep:] - f[:-sep])))
        if np.isnan(diff):  # max(best, nan) would keep best
            return np.nan
        best = max(best, diff / (sep * dx) ** (1.0 / 3.0))
        sep *= 2
    return float(best)


def resolution_window(tau0, dx):
    """Largest max-slope at which the stencil bias in the tracked tau, which
    grows like ~150 dx^4 s^5, stays below 2% of tau0^2."""
    return (0.02 * tau0**2 / (150.0 * dx**4)) ** 0.2


def _grid(record):
    """initial_data's grid of the record's solver config, and its dx."""
    solver = record.config["solver"]
    grid = comoving_grid(solver["theta_min"], solver["theta_max"],
                         solver["n_cells"])
    return grid, float(grid[1] - grid[0])


def fit_bounds(record):
    """(rw/10, rw) with rw = resolution_window(tau0, dx) of the record's
    grid: the max_slope bounds of fit_window."""
    hi = resolution_window(record.config["solver"]["tau0"], _grid(record)[1])
    return hi / 10.0, hi


def fit_window(record):
    """Indices of the samples whose max_slope lies in fit_bounds(record):
    the one window that every slope fit reads."""
    lo, hi = fit_bounds(record)
    slope = record.series("max_slope")
    idx = np.flatnonzero((slope >= lo) & (slope <= hi))
    if len(idx) < 10:
        raise DiagnosticUndefinedError(
            f"{len(idx)} < 10 samples with max_slope in the resolution "
            f"window [{lo:.4g}, {hi:.4g}]")
    return idx


def fit_window_span(record):
    """max / min of the max_slope samples in fit_window(record): the growth
    that the fits of T* and the rate exponent read."""
    slope = record.series("max_slope")[fit_window(record)]
    return float(slope.max() / slope.min())


def blowup_time(record):
    """Blow-up time T* where the tracked tau meets t: fit
    tau = T* + a (tau - t)^2 over fit_window(record).

    The predicted-time series tau(t) approaches T* quadratically in the
    remaining time (exactly affinely for flat Burgers), so a two-parameter
    linear fit removes the physical curvature; the window keeps the
    s^5-growing late-time stencil bias out.  Returns (T_star,
    tau_tracker_end, fit_residual), the last the rms residual in tau.
    """
    if record.status != "blew_up":
        raise DiagnosticUndefinedError(f"run ended with status {record.status!r}")
    idx = fit_window(record)
    tau = record.series("tau")
    y = tau[idx]
    rem = y - record.series("t_tilde")[idx]
    A = np.vstack([np.ones_like(rem), rem**2]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[0]), float(tau[-1]), resid


def background_blowup_time(cfg):
    """T* of the paper's tau equation at the background, in closed form.

    With kappa = sigma_inf, Z = -sigma_inf and dZ = 0 the tau equation
    reduces to u' = -b3 kappa0 tan(xi) u - 1 for u = tau - t, with
    xi = xi0 + drift t and drift = 2 b3 kappa0, cfg.frame_drift().  It is
    linear in u, so tau meets t at the root T of
    int_0^T (cos xi0 / cos(xi0 + drift t))^(1/2) dt = tau0, found here by
    Newton's method on a 16-point Gauss-Legendre rule.  To leading
    order T = tau0 - (1/2) b3 kappa0 tan(xi0) tau0^2.  cfg is a
    SolverConfig; in flat mode, which has no curvature, T is tau0.
    """
    if cfg.flat_mode:
        return cfg.tau0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    drift = cfg.frame_drift()

    def factor(t):  # the integrating factor of the u equation
        return np.sqrt(np.cos(cfg.xi0) / np.cos(cfg.xi0 + drift * t))

    T = cfg.tau0
    for _ in range(8):
        half = 0.5 * T
        integral = half * float(np.dot(weights, factor(half * (nodes + 1.0))))
        T -= (integral - cfg.tau0) / float(factor(T))
    return float(T)


def blowup_time_refined(record):
    """blowup_time(record)[0], under the name the benchmark still reads."""
    return blowup_time(record)[0]


def rate_fit(record, T_star=None):
    """Least-squares exponent of max-slope ~ (T* - t)^p; expect p = -1.

    Requires the recorded slope history to span at least a decade of growth;
    the fit itself reads fit_window(record).
    """
    t = record.series("t_tilde")
    slope = record.series("max_slope")
    span = float(np.max(slope) / slope[0])
    if span < 10.0 * (1.0 - 1e-9):
        raise DiagnosticUndefinedError(f"slope growth spans {span:.2f}x < one decade")
    if T_star is None:
        T_star, _, _ = blowup_time(record)
    idx = fit_window(record)
    idx = idx[T_star - t[idx] > 0]
    X = np.log(T_star - t[idx])
    Y = np.log(slope[idx])
    p = np.polyfit(X, Y, 1)[0]
    return float(p), span


def location_report(record):
    """Drift of the tracked shock location from xi0 + 2 b3 kappa0 t and
    exterior gradient bounds, with the record's solver constants."""
    solver = record.config["solver"]
    M, beta3 = solver["monitor_M"], betas(solver["gamma"]).beta3
    t = record.series("t_tilde")
    drift = np.abs(record.series("xi") - solver["xi0"]
                   - 2.0 * beta3 * solver["sigma_inf"] * t)
    out = {
        "max_drift": float(np.max(drift)),
        "drift_budget": float(M ** 1.75 * solver["tau0"]**2),
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
    grid = _grid(record)[0]
    for s in record.samples:
        lo, hi = s.get("support_lo"), s.get("support_hi")
        if lo is not None and (lo <= grid[3] or hi >= grid[-4]):
            return s["t_tilde"]
    return None


def tightest_margin(record):
    """The run's smallest bootstrap margin, {name, margin, y, t_tilde}: of
    the samples' own smallest members (ba_tightest at ba_tightest_y), the
    smallest, the first on a tie.  None for a run with no sample."""
    if not record.samples:
        return None
    s = min(record.samples, key=lambda s: s["ba_margins"][s["ba_tightest"]])
    name = s["ba_tightest"]
    return {"name": name, "margin": s["ba_margins"][name],
            "y": s["ba_tightest_y"], "t_tilde": s["t_tilde"]}


def profile_convergence(record):
    """Criterion 7, with dy = dx e^{3s/2}: once s - s0 >= 0.5, prof_inner
    stays under max(its envelope up to then, 0.05 dy^4 + 1e-10), a floor
    where the tracked-kappa offset enters the zoom frame at the
    interpolation level e^{s/2} O(dtheta^4 curvature) ~ dy^4; the last
    prof_inner is at most tau0^(1/3); and w0_resid and dw0_resid stay
    within 10 dy^2."""
    s = record.series("s")
    dy = _grid(record)[1] * np.exp(1.5 * s)
    inner = record.series("prof_inner")
    post = s - s[0] >= 0.5
    envelope = max(np.max(inner[:int(np.argmax(post)) + 1]), 1e-10)
    out = {"monotone": bool(np.all(inner[post] <= np.maximum(
               envelope, 0.05 * dy[post] ** 4 + 1e-10))),
           "inner_end": float(inner[-1]),
           "cap": record.config["solver"]["tau0"] ** (1.0 / 3.0),
           "normalization": all(bool(np.all(record.series(k) <= 10.0 * dy**2))
                                for k in ("w0_resid", "dw0_resid"))}
    out["pass"] = (out["monotone"] and out["inner_end"] <= out["cap"]
                   and out["normalization"])
    return out


def bootstrap_families(record):
    """Criterion 10: for each family, ba_w and ba_z, whether its ba_*_pass
    holds on every sample, and its smallest margin over the run as
    {name, margin, t_tilde}, the first on a tie."""
    out = {fam: {"pass": all(s[fam + "_pass"] for s in record.samples),
                 "worst": min(({"name": name, "margin": m,
                                "t_tilde": s["t_tilde"]}
                               for s in record.samples
                               for name, m in s["ba_margins"].items()
                               if name.startswith(fam + "_")),
                              key=lambda w: w["margin"])}
           for fam in ("ba_w", "ba_z")}
    out["pass"] = out["ba_w"]["pass"] and out["ba_z"]["pass"]
    return out


def vacuum_check(record, sigma_inf):
    """Global minimum of sigma over the run; pass iff >= sigma_inf / 2."""
    min_sigma = float(np.min(record.series("min_sigma")))
    return {"min_sigma": min_sigma, "bound": 0.5 * sigma_inf,
            "pass": min_sigma >= 0.5 * sigma_inf}


@dataclass
class BlowupReport:
    T_star: float
    tau_tracker: float
    rate_exponent: float | None  # None, with rate_note, where undefined
    rate_span: float | None
    xi_star: float
    holder_seminorm_max: float
    min_sigma: float
    profile: dict    # profile_convergence(record)
    bootstrap: dict  # bootstrap_families(record)
    flags: dict = field(default_factory=dict)
    rate_note: str | None = None

    @property
    def passed(self):
        return all(self.flags.values())


def blowup_report(record, holder_cap, rate_tol=0.05) -> BlowupReport:
    """Assemble the full verdict for a completed blow-up run.  T* must lie
    within the 2 M tau0^2 time budget of tau0.  An undefined T* raises
    DiagnosticUndefinedError; an undefined rate fails the rate flags."""
    solver = record.config["solver"]
    sigma_inf = solver["sigma_inf"]
    tau0 = solver["tau0"]
    M = solver["monitor_M"]

    T_star, tau_end, _ = blowup_time(record)
    rate = span = note = None
    try:
        rate, span = rate_fit(record, T_star)
    except DiagnosticUndefinedError as err:
        note = str(err)
    loc = location_report(record)
    vac = vacuum_check(record, sigma_inf)
    holder_max = float(np.max(record.series("holder_w")))
    prof = profile_convergence(record)
    ba = bootstrap_families(record)

    flags = {
        "blow_up_time": abs(T_star - tau0) <= 2.0 * M * tau0**2,
        "rate": rate is not None and abs(rate + 1.0) <= rate_tol,
        "rate_span_decade": span is not None and span >= 10.0,
        "location": loc["pass"],
        "vacuum": vac["pass"],
        "holder": holder_max <= holder_cap,
        "profile_convergence": prof["pass"],
        "bootstrap": ba["pass"],
    }
    return BlowupReport(T_star=T_star, tau_tracker=tau_end, rate_exponent=rate,
                        rate_span=span, xi_star=float(record.series("xi")[-1]),
                        holder_seminorm_max=holder_max, min_sigma=vac["min_sigma"],
                        profile=prof, bootstrap=ba, flags=flags, rate_note=note)
