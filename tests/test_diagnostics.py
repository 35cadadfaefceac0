import numpy as np
import pytest

from sphereshock import diagnostics as dg
from sphereshock.records import RunRecord


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
    solver = base.config["solver"]
    rw = dg.resolution_window(solver["tau0"], (solver["theta_max"]
                              - solver["theta_min"]) / (solver["n_cells"] - 1))
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
    beta3, kappa0 = 0.5, 1.2
    rec = synthetic_burgers_record(drift=2 * beta3 * kappa0)
    rep = dg.location_report(rec, xi0=0.26, kappa0=kappa0, beta3=beta3,
                             M=100.0, tau0=1e-2)
    assert rep["max_drift"] < 1e-12
    assert rep["pass"]


def test_location_report_flags_excess_drift():
    rec = synthetic_burgers_record(drift=10.0)
    rep = dg.location_report(rec, xi0=0.26, kappa0=1.2, beta3=0.5,
                             M=10.0, tau0=1e-2)
    assert rep["max_drift"] > rep["drift_budget"]
    assert not rep["pass"]


def test_vacuum_check():
    rec = synthetic_burgers_record()
    out = dg.vacuum_check(rec, sigma_inf=1.2)
    assert out["pass"] and out["min_sigma"] == 1.2
    bad = dg.vacuum_check(rec, sigma_inf=3.0)
    assert not bad["pass"]
