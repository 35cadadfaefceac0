import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from sphereshock import diagnostics as dg
from sphereshock import equivariant as eq
from sphereshock import geometry as geo
from sphereshock import riemann as rm
from sphereshock import weno
from sphereshock.config import ExperimentConfig
from sphereshock.modulation import ModulationState
from sphereshock.riemann import betas
from sphereshock.selfsim import BootstrapConstants
from sphereshock.weno import deriv1_c4


def make_mod(cfg, xi_dot=None):
    return ModulationState(cfg.kappa0, cfg.tau0, cfg.xi0, 0.0,
                           xi_dot=cfg.frame_drift() if xi_dot is None else xi_dot)


def test_config_validation():
    with pytest.raises(eq.ConfigError):
        eq.SolverConfig(gamma=1.0)
    with pytest.raises(eq.ConfigError):
        eq.SolverConfig(xi0=0.1)  # below pi/16 with regime enforcement
    with pytest.raises(eq.ConfigError):
        eq.SolverConfig(sigma_inf=0.3)  # below the kappa0 floor
    for bad in (dict(record_every=0), dict(monitor_M=1.0),
                dict(monitor_M=math.inf), dict(emit_selfsim_ds=0.0),
                dict(blowup_slope_cap=0), dict(t_max=0),
                # once accepted, and the run ended numerical_failure with
                # no sample
                dict(sigma_inf=math.inf),
                # once accepted: a float n_cells crashed in np.linspace, a
                # float record_every sampled every 5th step at 2.5, and a
                # truthy string ran in flat mode
                dict(n_cells=1024.0), dict(n_cells=True),
                dict(record_every=2.5), dict(record_every=True),
                dict(flat_mode="no"), dict(flat_mode=1),
                # once accepted: the first ended in an _ArrayMemoryError, the
                # second in a PoleProximityError at the first step; the
                # third reaches the pole margin only by t_max
                dict(n_cells=100_000_000_000), dict(n_cells=eq.MAX_CELLS + 1),
                dict(theta_max=1.3, n_cells=8192), dict(theta_max=1.1),
                # the bounds of cfl and n_cells, and a domain without the
                # tracked point theta_hat = 0
                dict(cfl=0.0), dict(cfl=1.0), dict(n_cells=63),
                dict(theta_min=1e-3, theta_max=4e-2)):
        with pytest.raises(eq.ConfigError):
            eq.SolverConfig(**bad)
    # once a TypeError from the comparison that validates them (a string,
    # a None where the default is a number) or accepted (a bool)
    numbers = ("gamma", "sigma_inf", "xi0", "tau0", "cfl", "monitor_M",
               "t_max", "theta_min", "theta_max", "blowup_slope_cap",
               "emit_selfsim_ds")
    defaults = eq.SolverConfig()
    for name in numbers:
        bad = ["3", True, False]
        if name in ("gamma", "sigma_inf", "xi0", "tau0", "cfl", "monitor_M"):
            bad.append(None)
        for value in bad:
            with pytest.raises(eq.ConfigError, match=name):
                eq.SolverConfig(**{name: value})
        # an int is a number, and a float of the default's value is kept
        value = getattr(defaults, name)
        assert getattr(eq.SolverConfig(**{name: value}), name) == value
    assert eq.SolverConfig(gamma=3).gamma == 3


def test_default_slope_cap_follows_the_grid():
    # half the max slope (2 L / dx)^(2/3) at which the compared window can
    # empty; a cap that is set is kept
    cfg = eq.SolverConfig(theta_min=-0.05, theta_max=0.05)
    L = BootstrapConstants(M=cfg.monitor_M, tau0=cfg.tau0).L
    dx = 0.1 / (cfg.n_cells - 1)
    assert cfg.blowup_slope_cap == pytest.approx(0.5 * (2 * L / dx) ** (2 / 3))
    assert eq.SolverConfig(blowup_slope_cap=1e6).blowup_slope_cap == 1e6
    # above the initial slope of every grid that leaves it unset
    for flat in (False, True):
        for n in (64, 128, 512, 4096):
            eq.initial_data(eq.SolverConfig(n_cells=n, flat_mode=flat))


def test_default_slope_cap_is_reached():
    # 1e4 / tau0, the cap before, left the default run unresolved
    rec = eq.run_until_blowup(eq.SolverConfig(n_cells=1024))
    assert rec.status == "blew_up"


def test_replace_rederives_unset_fields():
    base = eq.SolverConfig(tau0=1e-2, t_max=0.03)
    row = base.replace(tau0=5e-3)
    fresh = eq.SolverConfig(tau0=5e-3)
    assert (row.theta_min, row.theta_max, row.blowup_slope_cap) == \
        (fresh.theta_min, fresh.theta_max, fresh.blowup_slope_cap)
    assert row.t_max == 0.03  # set by the user, so kept
    assert base.replace() == base


@settings(max_examples=30, deadline=None)
@given(record_every=hs.integers(-1, 8), monitor_M=hs.floats(0.0, 1e4),
       emit_selfsim_ds=hs.none() | hs.floats(-0.1, 1.0))
def test_accepted_cadences_complete_a_step(record_every, monitor_M,
                                          emit_selfsim_ds):
    try:
        cfg = eq.SolverConfig(n_cells=128, t_max=1e-12, record_every=record_every,
                              monitor_M=monitor_M, emit_selfsim_ds=emit_selfsim_ds)
    except eq.ConfigError:
        return
    BootstrapConstants(M=cfg.monitor_M, tau0=cfg.tau0, sigma_inf=cfg.sigma_inf)
    rec = eq.run_until_blowup(cfg)
    # one step reaches t_max = 1e-12
    assert (rec.status, rec.summary["steps"]) == ("max_time", 1)


def test_initial_data_shape():
    cfg = eq.SolverConfig(n_cells=4096, tau0=1e-2)
    st = eq.initial_data(cfg)
    i0 = int(np.argmin(np.abs(st.grid)))
    assert st.w[i0] == pytest.approx(cfg.kappa0, abs=2e-3)
    assert np.all(st.z == -cfg.sigma_inf)
    slope = deriv1_c4(st.w, st.dx)
    assert slope.min() == pytest.approx(-1.0 / cfg.tau0, rel=2e-3)
    lo, hi = eq.support_bounds(st, cfg.sigma_inf)
    assert lo >= -cfg.xi0 / 10 and hi <= cfg.xi0 / 10


def test_initial_support_must_fit():
    # refused at construction, as initial_data would refuse it
    with pytest.raises(eq.ConfigError, match="does not fit inside the grid"):
        eq.SolverConfig(n_cells=256, tau0=1e-2, theta_min=-5e-3,
                        theta_max=5e-3)
    with pytest.raises(eq.ConfigError, match="exceeds the xi0/10 window"):
        eq.SolverConfig(n_cells=256, tau0=5e-2)


def test_steady_state_is_exact():
    cfg = eq.SolverConfig(n_cells=512)
    st = eq.initial_data(cfg)
    st.w[:] = cfg.sigma_inf
    st.z[:] = -cfg.sigma_inf
    bc = betas(cfg.gamma)
    mod = make_mod(cfg, xi_dot=0.37)  # arbitrary drift still kills the rhs
    dw, dz = eq.rhs(st, mod, bc, cfg)
    assert np.max(np.abs(dw)) == 0.0
    assert np.max(np.abs(dz)) == 0.0
    st2 = eq.step(st, mod, 1e-5, bc, cfg)
    assert np.max(np.abs(st2.w - cfg.sigma_inf)) < 1e-14


def test_forcing_sign():
    # w=2, z=0, beta3=1/2, tan=1 -> forcing contribution = +1 on dw/dt;
    # the grid sits about latitude pi/4, outside the regime a config accepts
    cfg = eq.SolverConfig(n_cells=512, theta_min=-1e-4, theta_max=1e-4,
                          tau0=1e-6)
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    grid += math.pi / 4 - cfg.xi0
    st = eq.EquivariantState(grid=grid, w=np.full_like(grid, 2.0),
                             z=np.zeros_like(grid), t_tilde=0.0)
    bc = betas(3.0)
    mod = make_mod(cfg, xi_dot=0.0)
    dw, dz = eq.rhs(st, mod, bc, cfg)
    i0 = int(np.argmin(np.abs(st.grid + cfg.xi0 - math.pi / 4)))
    assert dw[i0] == pytest.approx(1.0, rel=1e-3)
    assert dz[i0] == pytest.approx(-1.0, rel=1e-3)


def test_flat_mode_is_exact_burgers():
    # with linear data the upwind derivative is exact, so the flat-mode rhs
    # must equal -w w_x literally (beta2 = 0, no forcing, no drift); z is a
    # Riemann invariant, and its dz/dt is None
    cfg = eq.SolverConfig(n_cells=512, tau0=1e-2, flat_mode=True, gamma=3.0)
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    b = 17.0
    st = eq.EquivariantState(grid=grid, w=1.3 + b * grid,
                             z=np.full_like(grid, -1.2), t_tilde=0.0)
    bc = betas(3.0)
    mod = make_mod(cfg, xi_dot=0.0)
    dw, dz = eq.rhs(st, mod, bc, cfg)
    interior = slice(4, -4)
    assert np.allclose(dw[interior], (-(1.3 + b * grid) * b)[interior],
                       rtol=1e-12, atol=1e-12)
    assert dz is None


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _rhs_states():
    """A curved and a flat pulse, the steady state (every derivative a signed
    zero) and a curved state with w = -z and zero speeds on some nodes."""
    curved = eq.SolverConfig(n_cells=512)
    flat = eq.SolverConfig(n_cells=512, flat_mode=True)
    out = [(eq.initial_data(c), c) for c in (curved, flat)]
    st = eq.initial_data(curved)
    st.w[:], st.z[:] = curved.sigma_inf, -curved.sigma_inf
    out.append((st, curved))
    st = eq.initial_data(curved)
    st.z[::7] = -st.w[::7]
    st.w[::5] = -0.0
    st.z[::5] = curved.frame_drift()
    out.append((st, curved))
    return out


@pytest.mark.parametrize("case", range(4))
def test_rhs_keeps_the_bits_of_the_textbook_combination(case):
    st, cfg = _rhs_states()[case]
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    cw, cz = eq.transport_speeds(st.w, st.z, bc.beta2, mod.xi_dot)
    dwx, dzx = weno.weno5_upwind_derivative((st.w, st.z), st.dx, (cw, cz))
    force = 0.0
    if not cfg.flat_mode:
        force = (0.5 * bc.beta3 * (st.w - st.z) * (st.w + st.z)
                 * np.tan(st.grid + cfg.xi0 + mod.xi_dot * st.t_tilde))
    dw, dz = eq.rhs(st, mod, bc, cfg)
    # a flat rhs differences w alone: the bits of differencing it beside z
    assert np.array_equal(_bits(dw), _bits(-cw * dwx + force))
    if cfg.flat_mode:
        assert dz is None
    else:
        assert np.array_equal(_bits(dz), _bits(-cz * dzx - force))


def _textbook_flat_step(w, z, dx, dt, bc, xi_dot):
    """Classical RK4 on (w, z) with both fields differenced and stepped and
    no forcing: the flat system as written, z included."""
    def f(w, z):
        cw, cz = eq.transport_speeds(w, z, bc.beta2, xi_dot)
        dwx, dzx = weno.weno5_upwind_derivative((w, z), dx, (cw, cz))
        return -cw * dwx + 0.0, -cz * dzx - 0.0

    k1w, k1z = f(w, z)
    k2w, k2z = f(w + 0.5 * dt * k1w, z + 0.5 * dt * k1z)
    k3w, k3z = f(w + 0.5 * dt * k2w, z + 0.5 * dt * k2z)
    k4w, k4z = f(w + dt * k3w, z + dt * k3z)
    return (w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w),
            z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z))


def test_flat_z_carry_equals_stepping_z(monkeypatch):
    # a flat step differences w alone and hands on the state's own z; over
    # 200 steps that gives the bits of the textbook step that moves z too
    cfg = eq.SolverConfig(n_cells=1024, tau0=1e-2, flat_mode=True)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg, xi_dot=0.0)
    st0 = eq.initial_data(cfg)
    fields = []
    kernel = eq.weno5_upwind_derivative

    def counting_kernel(f, dx, c):
        fields.append(len(f))
        return kernel(f, dx, c)

    monkeypatch.setattr(eq, "weno5_upwind_derivative", counting_kernel)
    st, w, z = st0, st0.w, st0.z
    for i in range(200):
        lim = eq.step_limit(st, mod, bc, cfg)
        new = eq.step(st, mod, lim.dt, bc, cfg, check_support=False, limit=lim)
        assert new.z is st.z
        w, z = _textbook_flat_step(w, z, st.dx, lim.dt, bc, mod.xi_dot)
        assert np.array_equal(_bits(new.w), _bits(w)), i
        assert np.array_equal(_bits(new.z), _bits(z)), i
        st = new
    assert fields == [1] * 800
    assert st.z is st0.z and np.all(st0.z == -cfg.sigma_inf)


def test_flat_step_whose_w_overflows_keeps_z(monkeypatch):
    # a stage speed leaves the finite numbers: w takes the overflow, z stays
    # the background, and the run loop's finiteness check stops the run
    cfg = eq.SolverConfig(n_cells=256, tau0=1e-2, flat_mode=True)
    st = eq.initial_data(cfg)
    st.w[100] = 1e308
    bc = betas(cfg.gamma)
    mod = make_mod(cfg, xi_dot=0.0)
    dt = 0.5 * cfg.cfl * st.dx
    with np.errstate(all="ignore"):
        # the 1e308 speed would refuse any dt of this size
        limit = dataclasses.replace(eq.step_limit(st, mod, bc, cfg), dt=dt)
        got = eq.step(st, mod, dt, bc, cfg, check_support=False, limit=limit)
    assert not np.all(np.isfinite(got.w))
    assert got.z is st.z and np.all(got.z == -cfg.sigma_inf)

    kernel = eq.weno5_upwind_derivative

    def overflowing_kernel(f, dx, c):
        return tuple(np.full_like(d, np.inf) for d in kernel(f, dx, c))

    monkeypatch.setattr(eq, "weno5_upwind_derivative", overflowing_kernel)
    with np.errstate(all="ignore"):
        rec = eq.run_until_blowup(cfg)
    assert rec.status == "numerical_failure"
    assert rec.summary["steps"] == 1
    assert not np.all(np.isfinite(rec.final_state.w))
    assert np.all(rec.final_state.z == -cfg.sigma_inf)


def test_curved_step_forms_three_range_tans(monkeypatch):
    # tan(theta) at t, t + dt/2 and t + dt, each on the stepped range alone,
    # and the bits of a state built from the fields alone
    cfg = eq.SolverConfig(n_cells=512)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    sizes = []
    tan_theta = eq._tan_theta

    def counting_tan(st, m, c, t, r):
        tan = tan_theta(st, m, c, t, r)
        sizes.append(tan.size)
        return tan

    monkeypatch.setattr(eq, "_tan_theta", counting_tan)
    states, ranges = [eq.initial_data(cfg)], []
    for _ in range(30):
        r = eq.stepped_range(states[-1], cfg.sigma_inf)
        ranges.append(r.stop - r.start)
        lim = eq.step_limit(states[-1], mod, bc, cfg)
        states.append(eq.step(states[-1], mod, lim.dt, bc, cfg, limit=lim))
    assert sizes == [n for n in ranges for _ in range(3)]
    assert max(ranges) < cfg.n_cells
    for a, b in zip(states, states[1:]):
        fresh = eq.EquivariantState(a.grid, a.w, a.z, a.t_tilde)
        lim = eq.step_limit(fresh, mod, bc, cfg)
        fresh = eq.step(fresh, mod, lim.dt, bc, cfg, limit=lim)
        assert np.array_equal(_bits(fresh.w), _bits(b.w))
        assert np.array_equal(_bits(fresh.z), _bits(b.z))


def _whole_grid_step(st, mod, dt, bc, cfg):
    """Classical RK4 with rhs on every node of the grid: the reference that
    the stepped range must reproduce bit for bit."""
    t = st.t_tilde

    def f(t, w, z):
        return eq.rhs(st, mod, bc, cfg, t, w, z)

    def stage_z(k, h):
        return st.z if k is None else st.z + h * k

    k1w, k1z = f(t, st.w, st.z)
    k2w, k2z = f(t + 0.5 * dt, st.w + 0.5 * dt * k1w, stage_z(k1z, 0.5 * dt))
    k3w, k3z = f(t + 0.5 * dt, st.w + 0.5 * dt * k2w, stage_z(k2z, 0.5 * dt))
    k4w, k4z = f(t + dt, st.w + dt * k3w, stage_z(k3z, dt))
    w = st.w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    z = st.z if k1z is None else st.z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    return w, z


def _sharp_z_state(cfg):
    """The background with z raised by 0.01 on nodes [200, 300): a step's
    deviation then spreads the full stencil reach, 4 x 3 nodes in the
    direction z travels (left), without rounding away."""
    st = eq.initial_data(cfg)
    st.w[:] = cfg.sigma_inf
    st.z[:] = -cfg.sigma_inf
    st.z[200:300] += 0.01
    return eq.EquivariantState(st.grid, st.w, st.z, 0.0)


# (flat mode, gamma, n_cells, steps, initial state): the initial data, a
# late curved run whose window reaches the left grid end, a state built
# from fields alone, and a sharp z step
WINDOW_CASES = {
    "flat_gamma3": (True, 3.0, 1024, 40, "initial"),
    "flat_gamma2": (True, 2.0, 1024, 40, "initial"),
    "curved_gamma3": (False, 3.0, 1024, 40, "initial"),
    "curved_gamma2": (False, 2.0, 1024, 40, "initial"),
    "curved_left_end": (False, 3.0, 512, 140, "initial"),
    "from_fields": (False, 3.0, 512, 20, "fields"),
    "sharp_z": (False, 3.0, 512, 1, "sharp"),
}


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_windowed_step_matches_the_whole_grid_step(case):
    # every node of w and z keeps the whole-grid step's bits, and the
    # window holds every node that left the background; the ghosts of the
    # range are exact, and its stages difference with the whole grid's dx
    flat, gamma, n_cells, steps, start = WINDOW_CASES[case]
    cfg = eq.SolverConfig(n_cells=n_cells, gamma=gamma, flat_mode=flat)
    bc = betas(gamma)
    mod = make_mod(cfg)
    st = eq.initial_data(cfg)
    if start == "fields":
        for _ in range(60):
            lim = eq.step_limit(st, mod, bc, cfg)
            st = eq.step(st, mod, lim.dt, bc, cfg, limit=lim)
        st = eq.EquivariantState(st.grid, st.w.copy(), st.z.copy(), st.t_tilde)
    elif start == "sharp":
        st = _sharp_z_state(cfg)
    ranges = []
    for _ in range(steps):
        lim = eq.step_limit(st, mod, bc, cfg)
        r = eq.stepped_range(st, cfg.sigma_inf)
        ranges.append(r)
        w, z = _whole_grid_step(st, mod, lim.dt, bc, cfg)
        st = eq.step(st, mod, lim.dt, bc, cfg, check_support=True, limit=lim)
        assert np.array_equal(_bits(st.w), _bits(w))
        assert np.array_equal(_bits(st.z), _bits(z))
        lo, hi = st.window
        assert r.start <= lo <= hi <= r.stop
        assert np.all(st.w[:lo] == cfg.sigma_inf) and np.all(st.w[hi:] == cfg.sigma_inf)
        assert np.all(st.z[:lo] == -cfg.sigma_inf) and np.all(st.z[hi:] == -cfg.sigma_inf)
    assert all(r.stop - r.start < n_cells for r in ranges)
    if case == "curved_left_end":
        assert ranges[0].start > 0 and ranges[-1].start == 0 == st.window[0]
    if case == "sharp_z":
        # the deviation reached 12 nodes left of the window, 3 inside the
        # range
        assert st.window[0] == 200 - 12 == ranges[0].start + 3


def test_the_window_margin_is_checked(monkeypatch):
    # one node less than the stencil reach plus 3 leaves the sharp step's
    # deviation within 3 nodes of the range's end, and step refuses it
    cfg = eq.SolverConfig(n_cells=512)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    assert eq.WINDOW_MARGIN == 4 * 3 + 3
    monkeypatch.setattr(eq, "WINDOW_MARGIN", 4 * 3 + 2)
    st = _sharp_z_state(cfg)
    lim = eq.step_limit(st, mod, bc, cfg)
    with pytest.raises(eq.SupportGrowthError, match="last 3 nodes"):
        eq.step(st, mod, lim.dt, bc, cfg, limit=lim)
    # a step that does not check the support takes the margin on trust
    eq.step(st, mod, lim.dt, bc, cfg, check_support=False, limit=lim)


def test_step_cfl_contract():
    cfg = eq.SolverConfig(n_cells=512)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    vmax = eq.max_transport_speed(st, mod, bc)
    with pytest.raises(eq.CFLViolationError):
        eq.step(st, mod, 10 * cfg.cfl * st.dx / vmax, bc, cfg)


def _upwind5_symbol(theta):
    """dx times the symbol of the linear fifth-order upwind derivative at
    positive speed: weno._LINEAR weights the backward differences at node
    offsets -2..2."""
    back = 1.0 - np.exp(-1j * theta)
    return sum(c * back * np.exp(1j * m * theta)
               for m, c in zip(range(-2, 3), weno._LINEAR))


def _rk4_courant_limit():
    """Largest Courant number c with |R(-c dx D(theta))| <= 1 on every
    mode, R(z) = sum_{k<=4} z^k / k! the RK4 stability polynomial."""
    lam = -_upwind5_symbol(np.linspace(0.0, 2.0 * np.pi, 4001))

    def stable(c):
        z = c * lam
        return np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)) <= 1 + 1e-12

    lo, hi = 0.1, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def test_rk4_courant_lies_below_the_stability_limit():
    # the symbol is the kernel's: on the nodes the linear face serves, a
    # positive-speed derivative is the stencil applied to the backward
    # differences
    n = 400
    x = np.linspace(0.0, 1.0, n)
    dx = x[1] - x[0]
    u = np.sin(7.0 * x) + 0.3 * np.cos(23.0 * x) + np.where(x > 0.95, 1.0, 0.0)
    (du,) = weno.weno5_upwind_derivative((u,), dx, (np.ones(n),))
    back = np.diff(u) / dx
    i = np.arange(3, 300)
    ref = sum(c * back[i + m - 1] for m, c in zip(range(-2, 3), weno._LINEAR))
    assert np.allclose(du[i], ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
    limit = _rk4_courant_limit()
    assert limit == pytest.approx(1.732, abs=1e-3)
    assert eq.RK4_COURANT < 0.9 * limit


def test_step_limit_takes_the_smaller_bound():
    cfg = eq.SolverConfig(n_cells=512)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    cw, cz = eq.transport_speeds(st.w, st.z, bc.beta2, mod.xi_dot)
    vmax = eq.max_transport_speed(st, mod, bc)
    stability = eq.RK4_COURANT * st.dx / vmax
    accuracy = cfg.cfl * st.dx / np.max(np.abs(cw))
    lim = eq.step_limit(st, mod, bc, cfg)
    assert lim.dt == min(stability, accuracy) == stability  # z is fastest
    assert lim.vmax == vmax
    # the speeds of the stepped range, which holds the maxima
    r = eq.stepped_range(st, cfg.sigma_inf)
    assert 0 < r.start and r.stop < cfg.n_cells
    assert np.array_equal(lim.cw, cw[r]) and np.array_equal(lim.cz, cz[r])
    # the old single bound stays legal, so callers that step at it still can
    assert cfg.cfl * st.dx / vmax < lim.dt
    eq.step(st, mod, lim.dt, bc, cfg)
    with pytest.raises(eq.CFLViolationError):
        eq.step(st, mod, lim.dt * (1.0 + 1e-6), bc, cfg)
    # flat mode: w is the fastest field and the accuracy bound binds,
    # bit-equal to the single bound on max(|cw|, |cz|)
    flat = eq.SolverConfig(n_cells=512, flat_mode=True)
    st = eq.initial_data(flat)
    mod = make_mod(flat)
    assert eq.step_limit(st, mod, bc, flat).dt == \
        flat.cfl * st.dx / eq.max_transport_speed(st, mod, bc)


def test_curved_run_at_the_step_limit_keeps_its_support():
    cfg = eq.SolverConfig(n_cells=1024)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    for _ in range(200):
        lim = eq.step_limit(st, mod, bc, cfg)
        st = eq.step(st, mod, lim.dt, bc, cfg, check_support=True, limit=lim)
    assert np.all(np.isfinite(st.w)) and np.all(np.isfinite(st.z))


def test_step_matches_rhs_to_first_order():
    cfg = eq.SolverConfig(n_cells=1024)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    dw, dz = eq.rhs(st, mod, bc, cfg)
    dt = 1e-7
    st2 = eq.step(st, mod, dt, bc, cfg)
    # Richardson: RK4 - Euler = O(dt^2)
    assert np.max(np.abs(st2.w - (st.w + dt * dw))) < 1e-3 * dt
    assert np.max(np.abs(st2.z - (st.z + dt * dz))) < 1e-3 * dt


def test_support_growth_bounded():
    cfg = eq.SolverConfig(n_cells=1024)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    for _ in range(20):
        vmax = eq.max_transport_speed(st, mod, bc)
        dt = cfg.cfl * st.dx / vmax
        st = eq.step(st, mod, dt, bc, cfg, check_support=True)  # raises on violation


def test_support_growth_error(monkeypatch):
    # past the RK4 stability limit the scheme amplifies rounding noise ahead
    # of the support until it outruns transport plus the stencil reach
    monkeypatch.setattr(eq, "RK4_COURANT", 2.2)
    cfg = eq.SolverConfig(n_cells=1024)
    st = eq.initial_data(cfg)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg)
    assert issubclass(eq.SupportGrowthError, RuntimeError)
    with pytest.raises(eq.SupportGrowthError):
        for _ in range(50):
            lim = eq.step_limit(st, mod, bc, cfg)
            st = eq.step(st, mod, lim.dt, bc, cfg, limit=lim)


@pytest.mark.parametrize("n_cells, status, steps", [
    (256, "blew_up", 168), (512, "blew_up", 215), (768, "blew_up", 275)])
def test_coarse_flat_run_keeps_its_support(n_cells, status, steps):
    # the first step from the initial data grows the support by up to 9
    # nodes, which the reach of a single stencil application once refused.
    # The characteristics cross at t = 0.0103 < t_max, so every grid reaches
    # the cap: the linear upwind face adds no dissipation that would hold
    # the 256-cell slope under it until t_max
    cfg = eq.SolverConfig(n_cells=n_cells, flat_mode=True,
                          blowup_slope_cap=480.0, record_every=2)
    rec = eq.run_until_blowup(cfg)
    assert (rec.status, rec.summary["steps"]) == (status, steps)


def test_transport_speeds_match_certified_diagonal():
    # A_R_u1t = J diag(w + b2 z, b2 w + z, b1 (w + z)) + shift I, where the
    # shift depends on the frame only: it is the whole matrix at zero state
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.uniform(-1, 1, 3)
        Q = np.array([[0.0, q[0], q[1]], [-q[0], 0.0, q[2]],
                      [-q[1], -q[2], 0.0]])
        frame = geo.frame_at(rng.uniform(-1, 1, 2), rng.uniform(-3, 3), Q,
                             rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        bc = betas(rng.uniform(1.05, 4.0))
        w, z, a = rng.uniform(-3, 3, 3)
        P = rm.to_phys(rm.RiemannVars(w, z, a), frame.lam)
        diag = np.diag(rm.assemble_matrices(P, frame, bc).A_R_u1t)
        shift = rm.assemble_matrices(rm.PhysVars(0.0, 0.0, 0.0), frame,
                                     bc).A_R_u1t[0, 0]
        xi_dot = rng.uniform(-2, 2)
        speeds = eq.transport_speeds(w, z, bc.beta2, xi_dot)
        assert np.allclose(np.add(speeds, xi_dot), (diag[:2] - shift) / frame.J,
                           rtol=1e-10, atol=1e-10)


def test_pole_abort():
    # the grid sits about latitude 1.55, within the pole margin
    cfg = eq.SolverConfig(n_cells=512, theta_min=-1e-3, theta_max=1e-3,
                          tau0=1e-5)
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    grid += 1.55 - cfg.xi0
    st = eq.EquivariantState(grid=grid, w=np.full_like(grid, cfg.sigma_inf),
                             z=np.full_like(grid, -cfg.sigma_inf), t_tilde=0.0)
    bc = betas(cfg.gamma)
    mod = make_mod(cfg, xi_dot=0.0)
    with pytest.raises(eq.PoleProximityError):
        eq.rhs(st, mod, bc, cfg)


def test_mirror_symmetry_flat_mode():
    # reflecting the data and the grid produces the mirrored solution
    cfg = eq.SolverConfig(n_cells=1024, tau0=1e-2, flat_mode=True, gamma=3.0)
    st = eq.initial_data(cfg)
    bc = betas(3.0)
    mod = make_mod(cfg, xi_dot=0.0)

    mirrored = eq.EquivariantState(grid=st.grid.copy(),
                                   w=-st.w[::-1].copy(), z=-st.z[::-1].copy(),
                                   t_tilde=0.0)
    dt = 0.3 * cfg.cfl * st.dx / eq.max_transport_speed(st, mod, bc)
    a, b = st, mirrored
    for _ in range(25):
        a = eq.step(a, mod, dt, bc, cfg, check_support=False)
        b = eq.step(b, mod, dt, bc, cfg, check_support=False)
    assert np.max(np.abs(b.w + a.w[::-1])) < 1e-12


def test_characteristics_oracle_linear_data():
    theta = np.linspace(-1.0, 1.0, 2001)
    tau0 = 0.02
    w0 = -theta / tau0
    oracle = eq.characteristics_oracle(theta, w0)
    assert oracle.crossing_time == pytest.approx(tau0, rel=1e-10)
    # translation invariance
    oracle2 = eq.characteristics_oracle(theta + 0.37, w0)
    assert oracle2.crossing_time == pytest.approx(oracle.crossing_time, rel=1e-12)


def test_characteristics_oracle_domain_error():
    theta = np.linspace(-1.0, 1.0, 101)
    oracle = eq.characteristics_oracle(theta, -theta)
    with pytest.raises(eq.OracleDomainError):
        oracle(theta, 1.5)


def test_characteristics_oracle_constant_data():
    theta = np.linspace(-1.0, 1.0, 101)
    oracle = eq.characteristics_oracle(theta, np.full_like(theta, 0.7))
    assert oracle.crossing_time == math.inf
    assert np.allclose(oracle(theta[10:-10], 0.5), 0.7)


def test_flat_mode_solver_matches_oracle():
    cfg = eq.SolverConfig(n_cells=2048, tau0=1e-2, flat_mode=True, gamma=3.0,
                          t_max=5e-3)
    st = eq.initial_data(cfg)
    oracle = eq.characteristics_oracle(st.grid, st.w)
    bc = betas(3.0)
    mod = make_mod(cfg, xi_dot=0.0)
    while st.t_tilde < cfg.t_max - 1e-15:
        vmax = eq.max_transport_speed(st, mod, bc)
        dt = min(cfg.cfl * st.dx / vmax, cfg.t_max - st.t_tilde)
        st = eq.step(st, mod, dt, bc, cfg, check_support=False)
    assert np.max(np.abs(st.w - oracle(st.grid, st.t_tilde))) < 1e-4


def test_flat_run_front_matches_the_exact_solution():
    # the final state of configs/flat_oracle.json at 2048 cells, at the
    # slope cap, against the characteristics solution: 1.94e-3 with the
    # linear upwind face on every node, 5.61e-3 with the nonlinear WENO5
    # weights near the front
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "flat_oracle.json")
    cfg = ExperimentConfig.load(path).solver.replace(n_cells=2048)
    st0 = eq.initial_data(cfg)
    oracle = eq.characteristics_oracle(st0.grid, st0.w)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "blew_up" and cfg.blowup_slope_cap == 480.0
    st = rec.final_state
    assert np.max(np.abs(st.w - oracle(st.grid, st.t_tilde))) <= 2.5e-3


def test_run_statuses():
    # max_time status on a steady-ish short run
    cfg = eq.SolverConfig(n_cells=256, tau0=1e-2, t_max=1e-4,
                          blowup_slope_cap=1e9, record_every=64)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "max_time"
    assert rec.samples[0]["t_tilde"] == 0.0

    cfg = eq.SolverConfig(n_cells=1024, tau0=1e-2, blowup_slope_cap=300.0,
                          record_every=16)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "blew_up"
    t = rec.series("t_tilde")
    assert np.all(np.diff(t) > 0)
    s = rec.series("s")
    assert np.all(np.diff(s) > 0)


def test_dt_floor_stop_is_stalled(monkeypatch):
    # a zero slope fraction forces dt = 0 at the first step, which once
    # read as a blow-up
    cfg = eq.SolverConfig(n_cells=256, tau0=1e-2)
    monkeypatch.setattr(eq, "SLOPE_DT_FRAC", 0.0)
    rec = eq.run_until_blowup(cfg)
    assert rec.status != "blew_up"
    assert rec.status == "stalled" and rec.summary["steps"] == 0
    monkeypatch.undo()
    monkeypatch.setattr(eq, "DT_FLOOR", 1.0)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "stalled"


def test_slope_cap_the_initial_data_reaches_is_refused():
    # the initial max slope is 99.5 at 512 cells: such a run once reported
    # blew_up after 0 steps
    with pytest.raises(eq.ConfigError, match="reaches blowup_slope_cap"):
        eq.SolverConfig(n_cells=512, blowup_slope_cap=50.0)


def test_empty_compared_window_stops_unresolved():
    # 512 cells never reach a slope of 1e6 before the zoom frame stretches
    # every node out of |y| <= L; this once crashed in profile_distance
    cfg = eq.SolverConfig(n_cells=512, tau0=1e-2, record_every=4,
                          blowup_slope_cap=1e6)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "unresolved"
    assert rec.summary["steps"] > 0
    last = rec.samples[-1]
    assert last["max_slope"] < cfg.blowup_slope_cap
    assert np.isfinite(last["prof_inner"])


def _run_from(monkeypatch, w, z):
    """run_until_blowup from the state (w, z) on the 512-cell grid."""
    cfg = eq.SolverConfig(n_cells=512)
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    state = eq.EquivariantState(grid=grid, w=w(grid, cfg), z=z(grid, cfg),
                                t_tilde=0.0)
    monkeypatch.setattr(eq, "initial_data", lambda c: state)
    return eq.run_until_blowup(cfg)


def test_flat_run_records_beta_tau_one():
    # in flat mode tau' = 0 on every sample, so beta_tau = 1/(1 - tau') = 1
    rec = eq.run_until_blowup(eq.SolverConfig(n_cells=1024, flat_mode=True))
    assert rec.status == "blew_up" and len(rec.samples) > 50
    assert all(r["beta_tau"] == 1.0 for r in rec.samples)


def test_beta_tau_is_the_tau_equation_of_each_sample():
    # beta_tau = 1/(1 - ode_dtau) of the sample's own ODE monitor, and each
    # snapshot carries its sample's value into the transport fields
    rec = eq.run_until_blowup(eq.SolverConfig(n_cells=512, emit_selfsim_ds=0.2))
    assert rec.status == "blew_up" and len(rec.snapshots) >= 5
    for r in rec.samples:
        assert r["ode_dtau"] is not None
        assert _bits(r["beta_tau"]) == _bits(1.0 / (1.0 - r["ode_dtau"]))
        assert 0.99 < r["beta_tau"] < 1.0
    by_t = {r["t_tilde"]: r["beta_tau"] for r in rec.samples}
    for snap in rec.snapshots:
        assert _bits(snap["beta_tau"]) == _bits(by_t[snap["t_tilde"]])


def test_degenerate_sample_records_beta_tau_one(monkeypatch):
    # the background's beta_tau and null rates where the ODE is degenerate;
    # the run goes on as before
    cfg = eq.SolverConfig(n_cells=512)
    want = eq.run_until_blowup(cfg)
    calls = []
    ode_rhs = eq.ode_rhs

    def degenerate_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise eq.DegenerateRhsError("degenerate")
        return ode_rhs(*args, **kwargs)

    monkeypatch.setattr(eq, "ode_rhs", degenerate_once)
    rec = eq.run_until_blowup(cfg)
    assert rec.summary == want.summary and len(rec.samples) == len(want.samples)
    row = rec.samples[2]
    assert row["beta_tau"] == 1.0
    assert row["ode_dkappa"] is row["ode_dtau"] is row["ode_dxi"] is None
    for i, (got, ref) in enumerate(zip(rec.samples, want.samples)):
        if i != 2:
            assert got == ref


def test_run_vacuum_detection(monkeypatch):
    # adversarial data: w pulled below z locally -> vacuum status
    def w(x, c):
        return c.sigma_inf * (1.0 - 2.2 * np.exp(-(x / (0.2 * c.tau0)) ** 2))

    rec = _run_from(monkeypatch, w, lambda x, c: np.full_like(x, -c.sigma_inf))
    assert rec.status == "vacuum"
    assert rec.summary["steps"] == 0 and rec.samples == []


def test_run_numerical_failure_status(monkeypatch):
    def w(x, c):
        out = np.full_like(x, c.sigma_inf)
        out[len(x) // 2] = np.nan
        return out

    rec = _run_from(monkeypatch, w, lambda x, c: np.full_like(x, -c.sigma_inf))
    assert rec.status == "numerical_failure"
    assert rec.summary["steps"] == 0 and rec.samples == []


def test_headline_numbers_do_not_depend_on_the_left_edge():
    # configs/theorem_a1.json at 2048 cells lets its z-deviation reach the
    # left edge; moving that edge 1024 nodes further out at the same dx
    # removes the contact and leaves T*, status and flags
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "theorem_a1.json")
    exp = ExperimentConfig.load(path)
    cfg = exp.solver.replace(n_cells=2048)
    dx = (cfg.theta_max - cfg.theta_min) / (cfg.n_cells - 1)
    wide = cfg.replace(n_cells=cfg.n_cells + 1024,
                       theta_min=cfg.theta_min - 1024 * dx,
                       theta_max=cfg.theta_max)
    runs = [eq.run_until_blowup(c) for c in (cfg, wide)]
    assert dg.edge_contact_time(runs[0]) is not None
    assert dg.edge_contact_time(runs[1]) is None
    assert runs[0].status == runs[1].status == "blew_up"
    (T, _, _), (T_wide, _, _) = (dg.blowup_time(r) for r in runs)
    assert abs(T - T_wide) <= 1e-11 * T_wide
    diag = exp.diagnostics
    flags = [dg.blowup_report(r, diag.holder_cap, diag.rate_tol).flags
             for r in runs]
    assert flags[0] == flags[1]
