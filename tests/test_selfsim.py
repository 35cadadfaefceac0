import numpy as np
import pytest

from sphereshock import profile
from sphereshock import selfsim as ss
from sphereshock.modulation import ModulationState


def make_field(n=4096, tau0=1e-2, kappa=1.2, xi=0.26, t=0.0, perturb=None):
    """Synthetic zoom-frame field: exact profile plus optional perturbation."""
    mod = ModulationState(kappa=kappa, tau=tau0 + t, xi=xi, t_tilde=t)
    s = mod.s
    grid = xi + np.linspace(-2 * tau0, 2 * tau0, n)
    y = (grid - xi) * np.exp(1.5 * s)
    W = profile.w1d(y)
    if perturb is not None:
        W = W + perturb(y)
    w = np.exp(-0.5 * s) * W + kappa
    z = np.full_like(w, -1.2)
    return grid, w, z, mod


def from_selfsimilar(fld):
    """Inverse map back to (theta_abs, w, z)."""
    e32 = np.exp(1.5 * fld.s)
    e12 = np.exp(0.5 * fld.s)
    return fld.y / e32 + fld.xi, fld.W / e12 + fld.kappa, fld.Z.copy()


def bootstrap_report(grid, w, z, mod, consts):
    fld = ss.to_selfsimilar(grid, w, z, mod)
    return ss.bootstrap_report(fld, consts, ss.window_profile(fld, consts))


def profile_distance(grid, w, z, mod, consts):
    fld = ss.to_selfsimilar(grid, w, z, mod)
    return ss.profile_distance(fld, consts, ss.window_profile(fld, consts))


def test_round_trip_identity():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, w, z, mod)
    g2, w2, z2 = from_selfsimilar(fld)
    assert np.max(np.abs(g2 - grid)) < 1e-13
    assert np.max(np.abs(w2 - w)) < 1e-13
    assert np.max(np.abs(z2 - z)) < 1e-13


def test_uniform_w_maps_to_zero():
    grid = np.linspace(0.2, 0.3, 512)
    mod = ModulationState(kappa=0.9, tau=1e-2, xi=0.25, t_tilde=0.0)
    fld = ss.to_selfsimilar(grid, np.full_like(grid, 0.9),
                            np.full_like(grid, -0.9), mod)
    assert np.max(np.abs(fld.W)) == 0.0


def test_past_blowup_rejected():
    grid = np.linspace(0.0, 1.0, 128)
    with pytest.raises(ValueError):
        ModulationState(kappa=1.0, tau=0.5, xi=0.5, t_tilde=0.7)
    mod = ModulationState(kappa=1.0, tau=0.5, xi=0.5, t_tilde=0.4)
    mod.tau = 0.3  # corrupt after construction
    with pytest.raises(ss.PastBlowupError):
        ss.to_selfsimilar(grid, grid, grid, mod)


def test_derivative_chain_rule():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, w, z, mod)
    sel = np.zeros(len(fld.y), dtype=bool)
    sel[3:-3] = True  # edge-padded stencils are invalid on the outer nodes
    for k in (1, 2):
        exact = profile.w1d_deriv(fld.y[sel], k)
        assert np.max(np.abs(fld.dW[k][sel] - exact)) < 1e-5


def test_exact_profile_passes_bootstrap():
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    rep = bootstrap_report(grid, w, z, mod, consts)
    assert rep.family_passed("ba_w_")
    assert rep.family_passed("ba_z_")
    assert rep.margins["ba_wt_0"] >= 0.0
    assert rep.margins["ba_wt_3_origin"] >= 0.0


def test_scaled_profile_fails_w_bound():
    grid, w, z, mod = make_field(perturb=lambda y: 9.0 * profile.w1d(y))
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    rep = bootstrap_report(grid, w, z, mod, consts)
    assert rep.margins["ba_w_0"] < 0.0
    assert not rep.passed


def test_z_bound_violation_detected():
    grid, w, z, mod = make_field()
    z = z + 5.0  # |Z + sigma_inf| = 5 >> M tau0 = 1
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    rep = bootstrap_report(grid, w, z, mod, consts)
    assert rep.margins["ba_z_0"] < 0.0
    assert not rep.family_passed("ba_z_")


def test_profile_distance_zero_on_profile():
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    dist = profile_distance(grid, w, z, mod, consts)
    assert dist["inner_sup"] < 1e-10
    assert dist["weighted_sup"] < 1e-10
    assert dist["weighted_grad_sup"] < 1e-5


def test_profile_distance_scales_linearly():
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)

    def bump(eps):
        return lambda y: eps * np.exp(-0.5 * y * y)

    vals = []
    for eps in (1e-3, 2e-3):
        grid, w, z, mod = make_field(perturb=bump(eps))
        dist = profile_distance(grid, w, z, mod, consts)
        vals.append(dist["weighted_sup"])
    assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-3)


def test_normalization_check_on_profile():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, w, z, mod)
    w0r, dw0r = ss.normalization_check(fld)
    assert w0r < 1e-10
    assert dw0r < 1e-8


def test_bootstrap_constants_defaults():
    c = ss.BootstrapConstants(M=100.0, tau0=1e-2)
    assert c.l == pytest.approx(np.log(100.0) ** -5)
    assert c.L == pytest.approx(1e-2 ** -0.1)


def test_margins_scale_consistency():
    # doubling the grid resolution moves margins only at discretization level
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    reps = []
    for n in (2048, 4096):
        grid, w, z, mod = make_field(n=n)
        reps.append(bootstrap_report(grid, w, z, mod, consts))
    for key in ("ba_w_0", "ba_z_0"):
        assert abs(reps[0].margins[key] - reps[1].margins[key]) < 1e-6
    # derivative margins minimize at the trimmed edge of the decaying bound,
    # so they shift by the 3-cell trim-extent budget
    assert abs(reps[0].margins["ba_w_1"] - reps[1].margins["ba_w_1"]) < 5e-3


def test_origin_jet_reads_a_septic_exactly():
    # the one 8-node origin fit reproduces a degree-7 W and its derivatives
    grid = np.linspace(0.2, 0.3, 512)
    mod = ModulationState(kappa=0.9, tau=1e-2, xi=0.25, t_tilde=0.0)
    e32 = np.exp(1.5 * mod.s)
    c = np.array([0.0, -1.0, 0.5, 3.0, -2.0, 1.0, 0.25, -0.5])
    y = (grid - mod.xi) * e32
    W = np.polynomial.polynomial.polyval(y, c)
    fld = ss.to_selfsimilar(grid, 0.9 + W / np.exp(0.5 * mod.s),
                            np.full_like(grid, -0.9), mod)
    fact = np.cumprod([1.0, 1, 2, 3, 4, 5, 6, 7])
    np.testing.assert_allclose(fld.origin_jet, c * fact, rtol=1e-6, atol=1e-9)
    w0r, dw0r = ss.normalization_check(fld)
    assert w0r < 1e-12 and dw0r < 1e-9


def test_profile_evaluated_on_the_compared_window_only(monkeypatch):
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    fld = ss.to_selfsimilar(grid, w, z, mod)
    win = ss.compared_window(fld.y, consts.L)
    inL = np.zeros(len(fld.y), dtype=bool)
    inL[3:-3] = np.abs(fld.y[3:-3]) <= consts.L
    assert np.array_equal(np.flatnonzero(inL), np.arange(len(fld.y))[win])
    assert 0 < np.count_nonzero(inL) < len(fld.y) // 2

    points = []
    w1d_jet = profile.w1d_jet

    def counting(y, upto=2):
        points.append(np.size(y))
        return w1d_jet(y, upto)

    monkeypatch.setattr(profile, "w1d_jet", counting)
    wbar = ss.window_profile(fld, consts)
    assert sum(points) <= np.count_nonzero(inL)
    points.clear()
    ss.bootstrap_report(fld, consts, wbar)
    ss.profile_distance(fld, consts, wbar)
    assert points == []
