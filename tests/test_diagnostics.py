import math

import numpy as np
import pytest

from sphereshock import diagnostics as dg
from sphereshock import equivariant as eq
from sphereshock.records import RunRecord
from sphereshock.riemann import betas


def synthetic_burgers_record(tau0=1e-2, n=400, slope0=100.0, slope_end=2000.0,
                             kappa=1.2, xi0=0.26, drift=1.2, curvature=0.0):
    """Exact Burgers bookkeeping: max_slope = 1/(tau - t), with the tracked
    tau = tau0 + curvature (tau - t)^2 (tau = tau0 when curvature is 0)."""
    rec = RunRecord(config={"solver": {"tau0": tau0, "sigma_inf": 1.2,
                                       "gamma": 3.0, "xi0": xi0,
                                       "n_cells": 8192, "theta_min": -2e-2,
                                       "theta_max": 2e-2, "monitor_M": 100.0}})
    t_end = tau0 - 1.0 / slope_end
    t0 = tau0 - 1.0 / slope0
    for t in np.linspace(t0, t_end, n):
        # the root rem -> tau0 - t of rem = tau0 - t + curvature rem^2
        left = tau0 - t
        rem = 2.0 * left / (1.0 + np.sqrt(1.0 - 4.0 * curvature * left))
        slope = 1.0 / rem
        row = {"t_tilde": t, "s": -np.log(tau0 - t), "kappa": kappa,
               "tau": tau0 + curvature * rem**2, "xi": xi0 + drift * t,
               "max_slope": slope,
               "min_sigma": 1.2, "holder_w": 1.5, "dt": 1e-6,
               "ext_grad_0.01": 0.0}
        rec.add_sample(**row)
    rec.status = "blew_up"
    return rec


def test_blowup_time_exact_for_burgers():
    rec = synthetic_burgers_record()
    T, tau_end, resid = dg.blowup_time(rec)
    assert T == pytest.approx(1e-2, abs=1e-12)
    assert resid < 1e-14


def test_blowup_time_fits_a_curved_tau_history():
    # tau - T* = a (tau - t)^2 with a != 0: an affine fit of 1/max_slope
    # against t misses T* by 3.7e-4 here, the tau fit recovers it
    rec = synthetic_burgers_record(curvature=10.0)
    rem = rec.series("tau") - rec.series("t_tilde")
    assert np.ptp(rec.series("tau")) > 1e-4
    assert np.allclose(rec.series("max_slope"), 1.0 / rem, rtol=1e-12)
    T, tau_end, resid = dg.blowup_time(rec)
    assert abs(T - 1e-2) <= 1e-12
    assert tau_end == rec.samples[-1]["tau"] and resid < 1e-14


def test_blowup_time_requires_blowup_status():
    rec = synthetic_burgers_record()
    rec.status = "max_time"
    with pytest.raises(dg.DiagnosticUndefinedError):
        dg.blowup_time(rec)


def test_blowup_time_insufficient_samples():
    rec = synthetic_burgers_record(n=5)
    with pytest.raises(dg.DiagnosticUndefinedError):
        dg.blowup_time(rec)


def test_rate_fit_exact_burgers():
    rec = synthetic_burgers_record()
    rate, span = dg.rate_fit(rec)
    assert rate == pytest.approx(-1.0, abs=1e-6)
    assert span >= 10.0


def test_rate_fit_rejects_no_growth():
    rec = synthetic_burgers_record(slope_end=300.0)
    with pytest.raises(dg.DiagnosticUndefinedError):
        dg.rate_fit(rec)


def test_blowup_time_refined_burgers():
    # the old name is the one T*, bit for bit
    for curvature in (0.0, 10.0):
        rec = synthetic_burgers_record(curvature=curvature)
        T = dg.blowup_time_refined(rec)
        assert T == dg.blowup_time(rec)[0]
        assert T == pytest.approx(1e-2, abs=1e-12)


def test_every_fit_reads_the_resolution_window_alone():
    # samples outside [rw/10, rw] may change freely; one inside moves each fit
    def fits(rec):
        T, _, resid = dg.blowup_time(rec)
        return T, resid, dg.rate_fit(rec)[0]

    def scaled(which, factor):
        rec = synthetic_burgers_record()
        for i in np.flatnonzero(which):
            rec.samples[i]["max_slope"] *= factor
            rec.samples[i]["tau"] *= factor
        return rec

    base = synthetic_burgers_record()
    rw = dg.fit_bounds(base)[1]
    slope = base.series("max_slope")
    inside = (slope >= rw / 10.0) & (slope <= rw)
    assert 10 <= np.count_nonzero(inside) < len(slope)
    assert fits(scaled(~inside, 2.0)) == fits(base)
    one = np.zeros_like(inside)
    one[np.flatnonzero(inside)[len(np.flatnonzero(inside)) // 2]] = True
    assert all(a != b for a, b in zip(fits(scaled(one, 1.01)), fits(base)))


def test_blowup_time_sampling_cadence_invariance():
    rec_full = synthetic_burgers_record(n=800)
    rec_half = RunRecord(config=rec_full.config,
                         samples=rec_full.samples[::2], status="blew_up")
    T1, _, _ = dg.blowup_time(rec_full)
    T2, _, _ = dg.blowup_time(rec_half)
    assert abs(T1 - T2) <= 2e-6  # 2 dt at the stop cadence


def holder_seminorm_dense(x, f):
    """All-pairs oracle (O(N^2)); for validating the stratified estimator."""
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    dx = np.abs(x[:, None] - x[None, :])
    df = np.abs(f[:, None] - f[None, :])
    mask = dx > 0
    return float(np.max(df[mask] / dx[mask] ** (1.0 / 3.0)))


def holder_seminorm_pairwise(x, f):
    """The stratified estimator with each pair's own |x[i+sep] - x[i]|."""
    best = 0.0
    sep = 1
    while sep < len(x):
        num = np.abs(f[sep:] - f[:-sep])
        den = np.abs(x[sep:] - x[:-sep]) ** (1.0 / 3.0)
        good = den > 0
        if np.any(good):
            best = max(best, float(np.max(num[good] / den[good])))
        sep *= 2
    return best


def test_holder_seminorm_cube_root():
    x = np.linspace(-1.0, 1.0, 20001)
    f = np.cbrt(x)
    val = dg.holder_seminorm(f, x[1] - x[0])
    assert val == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-3)


def test_holder_seminorm_constant_zero():
    x = np.linspace(0.0, 1.0, 100)
    assert dg.holder_seminorm(np.ones_like(x), x[1] - x[0]) == 0.0


def test_holder_seminorm_of_a_field_with_a_nan_is_nan():
    # each separation's max was NaN, which max(best, nan) skipped: 0.0
    x = np.linspace(0.0, 1.0, 64)
    f = x.copy()
    f[20] = np.nan
    assert np.isnan(dg.holder_seminorm(f, x[1] - x[0]))


def test_holder_estimator_vs_dense_oracle():
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 257)
    f = np.cumsum(rng.normal(size=257)) * 0.01
    est = dg.holder_seminorm(f, x[1] - x[0])
    dense = holder_seminorm_dense(x, f)
    assert est <= dense + 1e-12
    assert est >= 0.5 * dense  # stratified pairs capture the bulk


def test_holder_monotone_under_refinement():
    x = np.linspace(-1.0, 1.0, 101)
    f = np.cbrt(x)
    v1 = dg.holder_seminorm(f, x[1] - x[0])
    v2 = holder_seminorm_dense(x, f)
    assert v1 <= v2 + 1e-12


def test_holder_seminorm_reads_one_dx():
    # one (sep dx)^(1/3) per separation gives, to rounding, the estimator
    # that divides each pair by its own node distance on the same grid
    rng = np.random.default_rng(11)
    n = 301
    for lo, hi in ((0.0, 1.0), (-2e-2, 2e-2), (0.2, 0.3)):
        x = np.linspace(lo, hi, n)
        for _ in range(4):
            f = np.cbrt(x - 0.3 * (lo + hi)) + 0.01 * rng.standard_normal(n)
            val = dg.holder_seminorm(f, x[1] - x[0])
            assert val == pytest.approx(holder_seminorm_pairwise(x, f),
                                        rel=1e-12)
            assert val <= holder_seminorm_dense(x, f) * (1.0 + 1e-12)


def test_location_report_zero_drift():
    # the record's xi0 = 0.26, kappa0 = 1.2 and gamma = 3, so beta3 = 1/2
    rec = synthetic_burgers_record(drift=2 * 0.5 * 1.2)
    rep = dg.location_report(rec)
    assert rep["max_drift"] < 1e-12
    # the exterior gradient is read by the name the record's domain gives
    # it, and bounded with the exact delta
    assert rep["ext_grad"] == {"delta": 0.01, "sup": 0.0,
                               "bound": 100.0 + 2.0 * 0.01 ** (-2.0 / 3.0)}
    assert rep["pass"]


def test_location_report_flags_excess_drift():
    rec = synthetic_burgers_record(drift=10.0)
    rec.config["solver"]["monitor_M"] = 10.0  # the budget reads the record's M
    rep = dg.location_report(rec)
    assert rep["max_drift"] > rep["drift_budget"]
    assert not rep["pass"]


def test_vacuum_check():
    rec = synthetic_burgers_record()
    out = dg.vacuum_check(rec, sigma_inf=1.2)
    assert out["pass"] and out["min_sigma"] == 1.2
    bad = dg.vacuum_check(rec, sigma_inf=3.0)
    assert not bad["pass"]


def _rk4_background_blowup_time(cfg, n=2000):
    """The root of u = tau - t in u' = -b3 kappa0 tan(xi0 + drift t) u - 1,
    u(0) = tau0, by classical RK4 on its inverse t(u): dt/du = 1/u', from
    u = tau0 down to u = 0, where t is the blow-up time."""
    a = 0.5 * cfg.frame_drift()

    def dt_du(u, t):
        return 1.0 / (-a * math.tan(cfg.xi0 + 2.0 * a * t) * u - 1.0)

    h = -cfg.tau0 / n
    u, t = cfg.tau0, 0.0
    for _ in range(n):
        k1 = dt_du(u, t)
        k2 = dt_du(u + 0.5 * h, t + 0.5 * h * k1)
        k3 = dt_du(u + 0.5 * h, t + 0.5 * h * k2)
        k4 = dt_du(u + h, t + h * k3)
        u, t = u + h, t + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return t


@pytest.mark.parametrize("gamma, xi0, tau0", [
    (3.0, math.pi / 12, 1e-2), (3.0, math.pi / 12, 5e-3),
    (3.0, math.pi / 8, 1e-2), (2.0, math.pi / 16, 1e-2)])
def test_background_blowup_time_solves_the_tau_equation(gamma, xi0, tau0):
    cfg = eq.SolverConfig(gamma=gamma, xi0=xi0, tau0=tau0, n_cells=256)
    T = dg.background_blowup_time(cfg)
    assert abs(T - _rk4_background_blowup_time(cfg)) <= 1e-12 * tau0
    # the expansion of the root in tau0: the sphere's curvature brings the
    # shock forward by (1/2) b3 kappa0 tan(xi0) tau0^2, and the next term
    # is -(b3 kappa0)^2 tau0^3 / 3
    a = betas(gamma).beta3 * cfg.kappa0
    leading = tau0 - 0.5 * a * math.tan(xi0) * tau0**2
    assert abs(T - leading) <= 0.5 * a**2 * tau0**3
    assert abs(T - leading + a**2 * tau0**3 / 3.0) <= 0.05 * tau0**4
    if (gamma, xi0, tau0) == (3.0, math.pi / 12, 1e-2):
        assert (T - tau0) / tau0**2 == pytest.approx(-0.08158, abs=1e-5)


def test_background_blowup_time_is_tau0_in_flat_mode():
    cfg = eq.SolverConfig(flat_mode=True, n_cells=256, tau0=7e-3)
    assert dg.background_blowup_time(cfg) == 7e-3


@pytest.mark.parametrize("tau0, bound", [(1e-2, 3e-3), (5e-3, 6e-3)])
def test_fit_blowup_time_meets_the_closed_form(tau0, bound):
    # a criterion-6 row at 2048 cells: the fit of the tracked tau reads T*
    # late by 2.69e-3 tau0^2 at tau0 = 1e-2 and 5.53e-3 tau0^2 at 5e-3
    # (8192 cells: 6.2e-4 and 8.2e-4); at gamma = 3 the z term of the tau
    # equation is 0, so the background's root is the reference
    n = 2048
    cap = 1.35 * dg.resolution_window(tau0, 3.0 * tau0 / (n - 1))
    cfg = eq.SolverConfig(n_cells=n, tau0=tau0, t_max=1.6 * tau0,
                          theta_min=-1.5 * tau0, theta_max=1.5 * tau0,
                          blowup_slope_cap=cap)
    rec = eq.run_until_blowup(cfg)
    gap = (dg.blowup_time(rec)[0] - dg.background_blowup_time(cfg)) / tau0**2
    assert 0.0 < gap <= bound
