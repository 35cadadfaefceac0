import numpy as np
import pytest

from sphereshock import equivariant as eq
from sphereshock import modulation as md
from sphereshock.riemann import betas
from sphereshock.util import lagrange_value_and_derivs


def _origin_jet(grid, w, xi):
    # the 8-node interpolant that constraints_from_field reads d3w from
    return lagrange_value_and_derivs(grid, w, xi, nderiv=3, npts=8)


def test_constraints_polynomial_exact():
    grid = np.linspace(-1.0, 1.0, 201)
    w = 1.0 + 2.0 * grid + 3.0 * grid**2
    w0, dw, d2w, d3w = _origin_jet(grid, w, 0.0)
    assert w0 == pytest.approx(1.0, abs=1e-12)
    assert dw == pytest.approx(2.0, abs=1e-10)
    assert d2w == pytest.approx(6.0, abs=1e-8)
    assert d3w == pytest.approx(0.0, abs=1e-6)
    assert md.constraints_from_field(grid, w, 0.0) == d3w


def test_constraints_constant_field():
    grid = np.linspace(-1.0, 1.0, 101)
    w = np.full_like(grid, 4.2)
    assert tuple(_origin_jet(grid, w, 0.3)) == \
        pytest.approx((4.2, 0.0, 0.0, 0.0), abs=1e-9)
    assert md.constraints_from_field(grid, w, 0.3) == pytest.approx(0.0, abs=1e-9)


def test_constraints_margin_error():
    grid = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(md.MarginError):
        md.constraints_from_field(grid, grid, 0.999)


def test_constraints_refinement_order():
    grid_err = []
    for n in (101, 201, 401):
        grid = np.linspace(-1.0, 1.0, n)
        w = np.sin(3 * grid)
        d2w = _origin_jet(grid, w, 0.1234)[2]
        grid_err.append(abs(d2w - (-9 * np.sin(3 * 0.1234))))
    assert grid_err[0] > 4 * grid_err[1] > 16 * grid_err[2]


def test_track_extremal_smooth_well():
    # steepest point at xi* with slope -1/tau0 there
    grid = np.linspace(-1.0, 1.0, 4001)
    xi_star, kappa0, tau0, delta = 0.2, 1.5, 0.05, 0.04
    w = kappa0 - (delta / tau0) * np.tanh((grid - xi_star) / delta)
    xi, kappa, tau, smin = md.track_extremal(grid, w, t_tilde=0.7)
    assert xi == pytest.approx(xi_star, abs=1e-5)
    assert kappa == pytest.approx(kappa0, abs=1e-6)
    assert tau == pytest.approx(0.7 + tau0, rel=1e-6)
    assert smin == pytest.approx(-1.0 / tau0, rel=1e-6)


def test_track_extremal_keeps_a_node_it_cannot_refine():
    grid = np.linspace(0.0, 1.0, 11)
    w = 2.0 - grid
    # the least slope on an end node, which has no neighbour to refine with
    slope = np.array([-3.0, -2.0, -1.0] + [0.0] * 8)
    xi, kappa, tau, smin = md.track_extremal(grid, w, 0.5, slope=slope)
    assert (xi, tau, smin) == (0.0, 0.5 + 1.0 / 3.0, -3.0)
    assert kappa == pytest.approx(2.0, abs=1e-12)
    # a bottom flat to within the tie tolerance, whose leftmost tie (node 3)
    # lies above its right neighbour: the parabola through the three opens
    # downward, and xi is the node itself
    slope = np.zeros(11)
    slope[[2, 3, 4, 8]] = [-1.0 + 1.1e-12, -1.0 + 0.9e-12, -1.0, -1.0]
    with pytest.warns(md.AmbiguousExtremumWarning):
        xi, kappa, tau, smin = md.track_extremal(grid, w, 0.5, slope=slope)
    assert (xi, smin) == (grid[3], slope[3])


def test_track_extremal_tie_break_leftmost():
    grid = np.linspace(-1.0, 1.0, 2001)
    # two identical wells
    w = -np.exp(-((grid + 0.5) / 0.05) ** 2) - np.exp(-((grid - 0.5) / 0.05) ** 2)
    with pytest.warns(md.AmbiguousExtremumWarning):
        xi, *_ = md.track_extremal(grid, w, 0.0)
    assert xi < 0


def test_track_extremal_burgers_tau_constant():
    # pure Burgers: tau(t) stays fixed at the crossing time
    cfg = eq.SolverConfig(n_cells=4096, tau0=1e-2, flat_mode=True, gamma=3.0,
                          t_max=6e-3)
    st = eq.initial_data(cfg)
    bc = betas(3.0)
    from sphereshock.modulation import ModulationState
    mod = ModulationState(cfg.kappa0, cfg.tau0, cfg.xi0, 0.0, xi_dot=0.0)
    taus = []
    while st.t_tilde < cfg.t_max - 1e-14:
        vmax = eq.max_transport_speed(st, mod, bc)
        dt = min(cfg.cfl * st.dx / vmax, cfg.t_max - st.t_tilde)
        st = eq.step(st, mod, dt, bc, cfg, check_support=False)
        _, _, tau, _ = md.track_extremal(st.grid, st.w, st.t_tilde)
        taus.append(tau)
    taus = np.array(taus)
    assert np.max(np.abs(taus - cfg.tau0)) < 2e-5


def _mod_state(kappa=1.2, tau=1e-2, xi=0.26, t=0.0):
    return md.ModulationState(kappa=kappa, tau=tau, xi=xi, t_tilde=t)


def test_ode_rhs_background_cancellation():
    # kappa = sigma_inf, Z0 = -sigma_inf kills F_W^0 (w^2 - z^2 cancellation):
    # with the G-part suppressed (huge d3W0), dkappa collapses to zero
    bc = betas(3.0)
    sig = 1.2
    d3w = 1e30 * np.exp(4.0 * _mod_state().s)
    dk, dtau, dxi = md.ode_rhs(d3w, _mod_state(kappa=sig), bc, sig,
                               Z0=-sig, dZ0=0.0, d2Z0=0.0)
    assert dk == pytest.approx(0.0, abs=1e-20)
    # the same state with a nonzero forcing imbalance does not cancel
    dk2, _, _ = md.ode_rhs(d3w, _mod_state(kappa=sig + 0.1), bc, sig,
                           Z0=-sig, dZ0=0.0, d2Z0=0.0)
    assert abs(dk2) > 1e-3


def test_ode_rhs_drift_at_background():
    bc = betas(3.0)
    sig = 1.2
    d3w = 6.0 * np.exp(4.0 * _mod_state().s)
    _, dtau, dxi = md.ode_rhs(d3w, _mod_state(kappa=sig), bc, sig,
                              Z0=-sig, dZ0=0.0, d2Z0=0.0, flat_mode=True)
    assert dtau == pytest.approx(0.0, abs=1e-12)
    assert dxi == pytest.approx(2.0 * bc.beta3 * sig, rel=1e-12)


def test_ode_rhs_correctionless_drift_identity():
    # all corrections zero: dxi = kappa + beta2 Z0 = (1 - beta2) sigma = 2 b3 s
    bc = betas(1.8)
    sig = 1.7
    d3w = 6.0 * np.exp(4.0 * _mod_state().s)
    _, dtau, dxi = md.ode_rhs(d3w, _mod_state(kappa=sig), bc, sig,
                              Z0=-sig, dZ0=0.0, d2Z0=0.0, flat_mode=True)
    assert dxi == pytest.approx((1.0 - bc.beta2) * sig, rel=1e-12)
    assert dtau == pytest.approx(0.0, abs=1e-12)


def test_ode_rhs_uniform_z_dtau():
    # uniform Z and vanishing forcing derivatives: dtau = e^{s/2} b2 dZ0 = 0
    bc = betas(2.0)
    d3w = 6.0 * np.exp(4.0 * _mod_state().s)
    _, dtau, _ = md.ode_rhs(d3w, _mod_state(kappa=1.0), bc, 1.0,
                            Z0=-1.0, dZ0=0.0, d2Z0=0.0, flat_mode=True)
    assert dtau == 0.0


def test_ode_rhs_degenerate_guard():
    bc = betas(3.0)
    with pytest.raises(md.DegenerateRhsError):
        md.ode_rhs(0.0, _mod_state(), bc, 1.0, Z0=-1.0, dZ0=0.0, d2Z0=0.0)


def test_ode_rhs_refuses_a_tau_rate_of_one_or_more():
    # flat mode at gamma = 2: dtau = e^{s/2} b2 dZ0, and no positive
    # beta_tau = 1/(1 - dtau) exists from dtau = 1 up
    bc = betas(2.0)
    mod = _mod_state(kappa=1.0)
    d3w = 6.0 * np.exp(4.0 * mod.s)
    unit = 1.0 / (np.exp(0.5 * mod.s) * bc.beta2)
    _, dtau, _ = md.ode_rhs(d3w, mod, bc, 1.0, Z0=-1.0, dZ0=0.5 * unit,
                            d2Z0=0.0, flat_mode=True)
    assert dtau == pytest.approx(0.5, rel=1e-12)
    for dZ0 in (2.0 * unit, 1e3 * unit, np.nan):
        with pytest.raises(md.DegenerateRhsError, match="dtau"):
            md.ode_rhs(d3w, mod, bc, 1.0, Z0=-1.0, dZ0=dZ0, d2Z0=0.0,
                       flat_mode=True)


def test_cross_validate_flat_run():
    cfg = eq.SolverConfig(n_cells=2048, tau0=1e-2, flat_mode=True, gamma=3.0,
                          blowup_slope_cap=300.0, record_every=8)
    rec = eq.run_until_blowup(cfg)
    rep = md.cross_validate(rec)
    # flat mode: kappa and tau are conserved; trackers agree to the
    # late-time interpolation error of the coarse grid
    assert rep["max_dev_kappa"] < 2e-3
    assert rep["max_dev_tau"] < 5e-4
    assert rep["ba_m_margins"]["tau_dev"] >= 0.0
    assert rep["ba_m_margins"]["kappa_dev"] >= 0.0
    # y = 0 lies in the |y| <= l window of prof_inner, and the profile is 0
    # there, so the window sup cannot fall below the origin residual
    assert np.all(rec.series("prof_inner") >= rec.series("w0_resid"))


def test_cross_validate_skips_null_ode_samples():
    # rates linear in t integrate exactly under the trapezoid rule, so the
    # tracked values below match the integrals wherever the rates are paired
    # with their own times; a degenerate sample records no rates
    from sphereshock.records import RunRecord
    rec = RunRecord(config={"solver": {"monitor_M": 100.0, "tau0": 0.02,
                                       "sigma_inf": 1.2, "xi0": 0.3,
                                       "gamma": 3.0, "theta_min": -0.04,
                                       "theta_max": 0.04}})
    t = 0.01 * np.linspace(0.0, 1.0, 12) ** 2
    for i, ti in enumerate(t):
        null = i == 5
        rec.add_sample(t_tilde=ti, s=-np.log(0.02 - ti),
                       kappa=1.2 + 0.5 * ti**2, tau=0.02 + ti**2,
                       xi=0.3 - 1.5 * ti**2, **{"ext_grad_0.02": 0.0},
                       ode_dkappa=None if null else ti,
                       ode_dtau=None if null else 2.0 * ti,
                       ode_dxi=None if null else -3.0 * ti)
    rep = md.cross_validate(rec)
    for name in ("kappa", "tau", "xi"):
        assert rep[f"max_dev_{name}"] < 1e-14


def test_cross_validate_dtau_margin_reads_the_tau_equation():
    # the dtau margin once differenced the tracked tau, whose jitter here
    # (a rise of 0.01 on every third sample) differences to 5.5 and more
    # against a bound of at most 2 M e^{-s} = 4; the tau equation's rate,
    # 0.5, stays inside it
    from sphereshock.records import RunRecord
    M, tau0 = 100.0, 0.02
    rec = RunRecord(config={"solver": {"monitor_M": M, "tau0": tau0,
                                       "sigma_inf": 1.2, "xi0": 0.3,
                                       "gamma": 3.0, "theta_min": -0.04,
                                       "theta_max": 0.04}})
    t = np.linspace(0.0, 0.01, 12)
    s = -np.log(tau0 - t)
    for i, ti in enumerate(t):
        rec.add_sample(t_tilde=ti, s=s[i], kappa=1.2,
                       tau=tau0 + (0.01 if i % 3 == 2 else 0.0),
                       xi=0.3 + 1.2 * ti, ode_dkappa=0.0, ode_dtau=0.5,
                       ode_dxi=1.2, **{"ext_grad_0.02": 0.0})
    assert np.max(np.abs(np.gradient(rec.series("tau"), t))) > 5.0
    rep = md.cross_validate(rec)
    assert rep["ba_m_margins"]["dtau"] == np.min(2 * M * np.exp(-s) - 0.5)
    assert rep["ba_m_margins"]["dtau"] > 1.0


def test_cross_validate_curved_run():
    # the ODE monitor against extremal tracking under the curvature forcing,
    # which the flat run above leaves out
    cfg = eq.SolverConfig(n_cells=2048, tau0=1e-2, blowup_slope_cap=300.0,
                          record_every=8)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "blew_up"
    rep = md.cross_validate(rec)
    assert rep["max_dev_kappa"] < 5e-3
    assert rep["max_dev_xi"] < 5e-3
