"""Acceptance suite: every certification criterion as a gated test, each
printing one PASS/FAIL line.  Heavy blow-up runs are shared session
fixtures, run together in a process pool.  Run with:
pytest tests/test_acceptance.py -v -s
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from sphereshock import diagnostics as dg
from sphereshock import equivariant as eq
from sphereshock import geometry as geo
from sphereshock import profile as pf
from sphereshock import riemann as rm
from sphereshock import trajectories as tr
from sphereshock.config import ExperimentConfig
from sphereshock.modulation import ModulationState
from sphereshock.riemann import betas
from sphereshock.selfsim import BootstrapConstants
from sphereshock.util import r2_points

MONITOR_M = 100.0
HOLDER_CAP = 2.5          # frozen time-uniform C^{1/3} bound
SIGMA_INF = 1.2
XI0 = math.pi / 12.0
TAU0 = 1e-2
SWEEP_TAU0 = (1e-2, 5e-3, 2.5e-3)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _sweep_config(tau0):
    slope_hi = dg.resolution_window(tau0, 3.0 * tau0 / 8191)
    return eq.SolverConfig(n_cells=8192, tau0=tau0, sigma_inf=SIGMA_INF,
                           xi0=XI0, record_every=4, t_max=1.6 * tau0,
                           theta_min=-1.5 * tau0, theta_max=1.5 * tau0,
                           blowup_slope_cap=1.35 * slope_hi,
                           monitor_M=MONITOR_M)


def _timed_run(cfg):
    """One blow-up run in a pool worker, with the worker's time for it."""
    t0 = time.perf_counter()
    rec = eq.run_until_blowup(cfg)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pooled_runs(request):
    """The criterion-6 rows and the criterion-5 run that the selected tests
    use, as jobs in a fork pool of nproc workers, submitted together."""
    used = set()
    for item in request.session.items:
        used.update(item.fixturenames)
    jobs = {}
    if "sweep_runs" in used:
        jobs.update((tau0, _sweep_config(tau0)) for tau0 in SWEEP_TAU0)
    if "crit5_run" in used:  # the shipped reference run
        jobs["crit5"] = ExperimentConfig.load(CONFIGS / "theorem_a1.json").solver
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futs = {key: pool.submit(_timed_run, cfg) for key, cfg in jobs.items()}
        yield {key: (jobs[key], fut) for key, fut in futs.items()}


@pytest.fixture(scope="session")
def crit5_run(pooled_runs):
    # the wall of criterion 5 is the run's own time inside its worker
    cfg, fut = pooled_runs["crit5"]
    rec, wall = fut.result()
    rec.summary["wall_seconds"] = wall
    return cfg, rec


@pytest.fixture(scope="session")
def sweep_runs(pooled_runs):
    # the wall of criterion 6 is the sum of its rows' run times, not the
    # pool's elapsed time
    out, wall = {}, 0.0
    for tau0 in SWEEP_TAU0:
        cfg, fut = pooled_runs[tau0]
        rec, row_wall = fut.result()
        out[tau0] = (cfg, rec)
        wall += row_wall
    return out, wall


def test_criterion_1_profile_certification():
    t0 = time.perf_counter()
    pts = r2_points(10**5, (-1e3, -1e3), (1e3, 1e3))
    y1, y2 = pts[:, 0], pts[:, 1]
    res_max = float(np.max(np.abs(pf.selfsimilar_burgers_residual(y1, y2))))
    m0, m1, m2 = pf.bound_margins(y1, y2)
    violations = int(np.sum(m0 < 0) + np.sum(m1 < 0) + np.sum(m2 < 0))
    derivs = np.array(pf.w1d_jet(0.0, 3)[1:])
    deriv_err = float(np.max(np.abs(derivs - np.array([-1.0, 0.0, 6.0]))))
    wall = time.perf_counter() - t0
    ok = (res_max <= 1e-10 and violations == 0 and deriv_err <= 1e-10
          and wall <= 5.0)
    assert _report(1, "profile certification", ok,
                   f"residual={res_max:.2e} violations={violations} "
                   f"deriv_err={deriv_err:.2e} wall={wall:.2f}s")


def test_criterion_2_geometry_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240708)
    fails = 0
    for _ in range(100):
        psi = rng.uniform(-3.0, 3.0)
        q = rng.uniform(-1.0, 1.0, 3)
        Q = np.array([[0.0, q[0], q[1]],
                      [-q[0], 0.0, q[2]],
                      [-q[1], -q[2], 0.0]])
        r0 = rng.uniform(1.0 / 3.0, 3.0)
        try:
            geo.origin_derivative_table(psi, Q, r0, tol=1e-6)
        except geo.DerivationMismatchError:
            fails += 1
    wall = time.perf_counter() - t0
    ok = fails == 0 and wall <= 5.0
    assert _report(2, "geometry origin table", ok,
                   f"fails={fails}/100 wall={wall:.2f}s")


def test_criterion_3_diagonalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_sim = 0.0
    worst_eig = 0.0
    for _ in range(1000):
        psi = rng.uniform(-3, 3)
        q = rng.uniform(-1, 1, 3)
        Q = np.array([[0.0, q[0], q[1]], [-q[0], 0.0, q[2]],
                      [-q[1], -q[2], 0.0]])
        frame = geo.frame_at(rng.uniform(-1, 1, 2), psi, Q,
                             rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        bc = betas(rng.uniform(1.05, 4.0))
        P = rm.PhysVars(rng.uniform(-2, 2), rng.uniform(-2, 2),
                        rng.uniform(0.1, 3.0))
        m = rm.assemble_matrices(P, frame, bc)
        worst_sim = max(worst_sim, max(rm.similarity_defects(m)))
        ev = np.sort(np.linalg.eigvals(m.A_P_u1t).real)
        worst_eig = max(worst_eig, float(np.max(np.abs(
            ev - np.sort(np.diag(m.A_R_u1t))))))
    wall = time.perf_counter() - t0
    ok = worst_sim <= 1e-10 and worst_eig <= 1e-8 and wall <= 2.0
    assert _report(3, "diagonalization similarity", ok,
                   f"similarity={worst_sim:.2e} eigen={worst_eig:.2e} "
                   f"wall={wall:.2f}s")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = eq.SolverConfig(n_cells=4096, tau0=TAU0, flat_mode=True, gamma=3.0,
                          sigma_inf=SIGMA_INF, xi0=XI0, record_every=2,
                          blowup_slope_cap=480.0)
    st0 = eq.initial_data(cfg)
    oracle = eq.characteristics_oracle(st0.grid, st0.w)
    rec = eq.run_until_blowup(cfg)
    T_star, _, _ = dg.blowup_time(rec)
    t_rel = abs(T_star - oracle.crossing_time) / oracle.crossing_time

    errs = []
    grids = (512, 1024, 2048, 4096)
    for n in grids:
        c = eq.SolverConfig(n_cells=n, tau0=TAU0, flat_mode=True, gamma=3.0,
                            sigma_inf=SIGMA_INF, xi0=XI0, t_max=0.5 * TAU0)
        st = eq.initial_data(c)
        orc = eq.characteristics_oracle(st.grid, st.w)
        bc = betas(3.0)
        mod = ModulationState(c.kappa0, c.tau0, c.xi0, 0.0, xi_dot=0.0)
        while st.t_tilde < c.t_max - 1e-15:
            vmax = eq.max_transport_speed(st, mod, bc)
            dt = min(c.cfl * st.dx / vmax, c.t_max - st.t_tilde)
            st = eq.step(st, mod, dt, bc, c, check_support=False)
        errs.append(np.max(np.abs(st.w - orc(st.grid, st.t_tilde))))
    order = np.polyfit(np.log([1.0 / n for n in grids]), np.log(errs), 1)[0]
    wall = time.perf_counter() - t0
    ok = t_rel <= 0.01 and order >= 2.0 and wall <= 120.0
    assert _report(4, "flat-mode oracle equivalence", ok,
                   f"T*_rel_err={t_rel:.4%} order={order:.2f} wall={wall:.1f}s")


def test_criterion_5_blowup_rate(crit5_run):
    _, rec = crit5_run
    assert rec.status == "blew_up"
    rep = dg.blowup_report(rec, HOLDER_CAP, 0.05)
    wall = rec.summary["wall_seconds"]
    ok = rep.flags["rate"] and rep.flags["rate_span_decade"] and wall <= 300.0
    assert _report(5, "blow-up rate exponent", ok,
                   f"rate={rep.rate_exponent:+.4f} span={rep.rate_span:.1f}x "
                   f"wall={wall:.0f}s")


def test_criterion_6_blowup_time_scaling(sweep_runs):
    runs, wall = sweep_runs
    devs = []
    for tau0 in SWEEP_TAU0:
        _, rec = runs[tau0]
        assert rec.status == "blew_up"
        T, _, _ = dg.blowup_time(rec)
        devs.append(abs(T - tau0))
    slope = np.polyfit(np.log(SWEEP_TAU0), np.log(devs), 1)[0]
    ok = abs(slope - 2.0) <= 0.2 and wall <= 900.0
    assert _report(6, "blow-up time tau0^2 scaling", ok,
                   f"slope={slope:.3f} devs={['%.2e' % d for d in devs]} "
                   f"wall={wall:.0f}s")


def test_criterion_7_profile_convergence(crit5_run):
    _, rec = crit5_run
    prof = dg.profile_convergence(rec)
    assert _report(7, "profile convergence + normalization", prof["pass"],
                   f"inner_end={prof['inner_end']:.2e} (cap {prof['cap']:.2e}) "
                   f"mono={prof['monotone']} norm={prof['normalization']}")


def test_criterion_8_physical_conclusions(crit5_run, sweep_runs):
    runs, _ = sweep_runs
    reports = [dg.blowup_report(rec, HOLDER_CAP, 0.05)
               for _, rec in [crit5_run] + [runs[t] for t in SWEEP_TAU0]]
    vac_ok, holder_ok, loc_ok = (all(r.flags[k] for r in reports)
                                 for k in ("vacuum", "holder", "location"))
    holder_max = max(r.holder_seminorm_max for r in reports)
    ok = vac_ok and holder_ok and loc_ok
    assert _report(8, "vacuum/holder/location", ok,
                   f"vacuum={vac_ok} holder_max={holder_max:.3f} "
                   f"(cap {HOLDER_CAP}) drift={loc_ok}")


def test_criterion_9_trajectory_lemmas(crit5_run):
    t0 = time.perf_counter()
    _, rec = crit5_run
    field = tr.FrozenTransportField.from_snapshots(rec.snapshots, key="g_w")
    s_lo, s_hi = field.s_span
    consts = BootstrapConstants(M=MONITOR_M, tau0=TAU0, sigma_inf=SIGMA_INF)
    l = consts.l

    mags = np.geomspace(l, 2.0, 25)
    seeds = np.concatenate([mags, -mags])
    min_margin = math.inf
    wint_max = {0.5: 0.0, 1.0: 0.0, 2.0: 0.0}
    for y0 in seeds:
        path = tr.integrate_trajectory(field, s_lo, y0, s_hi, tol=1e-9)
        min_margin = min(min_margin, tr.growth_certificate(path, 1.0 / 3.0))
        for p in wint_max:
            wint_max[p] = max(wint_max[p], tr.weighted_integral(path, p))
    bound = -4.0 * math.log(l)
    wall = time.perf_counter() - t0
    ok = (min_margin >= 0.0 and all(v <= bound for v in wint_max.values())
          and wall <= 60.0)
    assert _report(9, "trajectory growth + weighted integrals", ok,
                   f"min_margin={min_margin:.2e} wint_max={max(wint_max.values()):.2f} "
                   f"(bound {bound:.1f}) wall={wall:.1f}s")


def test_criterion_10_bootstrap_monitor(crit5_run):
    _, rec = crit5_run
    ba = dg.bootstrap_families(rec)
    assert _report(10, "bootstrap inequalities along the run", ba["pass"],
                   f"min BA-W margin={ba['ba_w']['worst']['margin']:.3f} "
                   f"min BA-Z margin={ba['ba_z']['worst']['margin']:.3f}")


def test_z_field_drift_property(crit5_run):
    # leftward drift of the Z-transport field wherever Phi <= b3 k0 e^{s/2}
    cfg, rec = crit5_run
    field_z = tr.FrozenTransportField.from_snapshots(rec.snapshots, key="g_z")
    s_lo, s_hi = field_z.s_span
    beta3 = betas(cfg.gamma).beta3
    # every path enters the gated region, so each gives a margin
    for y0 in (-1.0, 0.0, 1.0, 5.0):
        path = tr.integrate_trajectory(field_z, s_lo, y0, s_hi, tol=1e-9)
        m = tr.z_drift_certificate(field_z, path, beta3, cfg.kappa0)
        assert m is not None and m >= 0.0, (y0, m)
