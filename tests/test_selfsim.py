import dataclasses
import os
import re

import numpy as np
import pytest

from sphereshock import profile
from sphereshock import selfsim as ss
from sphereshock import equivariant as eq
from sphereshock.modulation import ModulationState
from sphereshock.weno import derivs_c4

L = ss.BootstrapConstants(M=100.0, tau0=1e-2).L  # for tests that read no margin


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


def from_selfsimilar(fld, mod):
    """Inverse map back to (grid, w, z)."""
    e32 = np.exp(1.5 * fld.s)
    e12 = np.exp(0.5 * fld.s)
    return fld.y / e32 + mod.xi, fld.W / e12 + mod.kappa, fld.Z.copy()


def bootstrap_report(grid, w, z, mod, consts):
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, consts.L)
    return ss.bootstrap_report(fld, consts)


def profile_distance(grid, w, z, mod, consts):
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, consts.L)
    return ss.profile_distance(fld, consts)


def test_round_trip_identity():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, L)
    g2, w2, z2 = from_selfsimilar(fld, mod)
    assert np.max(np.abs(g2 - grid)) < 1e-13
    assert np.max(np.abs(w2 - w)) < 1e-13
    assert np.max(np.abs(z2 - z)) < 1e-13


def test_uniform_w_maps_to_zero():
    grid = np.linspace(0.2, 0.3, 512)
    mod = ModulationState(kappa=0.9, tau=1e-2, xi=0.25, t_tilde=0.0)
    fld = ss.to_selfsimilar(grid, mod.xi, np.full_like(grid, 0.9),
                            np.full_like(grid, -0.9), mod, L)
    assert np.max(np.abs(fld.W)) == 0.0


def test_past_blowup_rejected():
    # the frame is undefined at or past blow-up, tau <= t_tilde: a state
    # there is refused when built, and a built state cannot be moved there
    with pytest.raises(ValueError):
        ModulationState(kappa=1.0, tau=0.5, xi=0.5, t_tilde=0.7)
    mod = ModulationState(kappa=1.0, tau=0.5, xi=0.5, t_tilde=0.4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.tau = 0.3


def test_derivative_chain_rule():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, L)
    sel = np.zeros(len(fld.y), dtype=bool)
    sel[3:-3] = True  # edge-padded stencils are invalid on the outer nodes
    for k in (1, 2):
        exact = profile.w1d_jet(fld.y[sel], 2)[k]
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
    assert not rep.family_passed("ba_w_")


def test_z_bound_violation_detected():
    grid, w, z, mod = make_field()
    z = z + 5.0  # |Z + sigma_inf| = 5 >> M tau0 = 1
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    rep = bootstrap_report(grid, w, z, mod, consts)
    assert rep.margins["ba_z_0"] < 0.0
    assert not rep.family_passed("ba_z_")


def test_formats_names_every_bootstrap_margin():
    # the FORMATS.md table of ba_margins members lists the report's keys
    doc = os.path.join(os.path.dirname(__file__), "..", "FORMATS.md")
    with open(doc) as f:
        text = f.read()
    section = text[text.index("### Bootstrap margins"):]
    section = section[:section.index("\n## ")]
    names = re.findall(r"^\| `(ba_\w+)` \|", section, flags=re.M)
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    assert names == list(bootstrap_report(grid, w, z, mod, consts).margins)


def test_profile_distance_zero_on_profile():
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    assert profile_distance(grid, w, z, mod, consts) < 1e-10


def test_profile_distance_scales_linearly():
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)

    def bump(eps):
        return lambda y: eps * np.exp(-0.5 * y * y)

    vals = []
    for eps in (1e-3, 2e-3):
        grid, w, z, mod = make_field(perturb=bump(eps))
        vals.append(profile_distance(grid, w, z, mod, consts))
    assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-3)


def test_normalization_check_on_profile():
    grid, w, z, mod = make_field()
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, L)
    w0r, dw0r = ss.normalization_check(fld)
    assert w0r < 1e-10
    assert dw0r < 1e-8


def test_bootstrap_constants_defaults():
    c = ss.BootstrapConstants(M=100.0, tau0=1e-2)
    assert c.l == pytest.approx(np.log(100.0) ** -5)
    assert c.L == pytest.approx(1e-2 ** -0.1)
    # l and L follow from M and tau0; no caller overrides them
    for name in ("l", "L"):
        with pytest.raises(TypeError):
            ss.BootstrapConstants(M=100.0, tau0=1e-2, **{name: 1.0})


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
    fld = ss.to_selfsimilar(grid, mod.xi, 0.9 + W / np.exp(0.5 * mod.s),
                            np.full_like(grid, -0.9), mod, L)
    fact = np.cumprod([1.0, 1, 2, 3, 4, 5, 6, 7])
    np.testing.assert_allclose(fld.origin_jet, c * fact, rtol=1e-6, atol=1e-9)
    w0r, dw0r = ss.normalization_check(fld)
    assert w0r < 1e-12 and dw0r < 1e-9


def test_profile_evaluated_on_the_compared_window_only(monkeypatch):
    # the frame evaluates the profile jet once, on |y| <= L; the monitors
    # only read it
    grid, w, z, mod = make_field()
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    points = []
    w1d_jet = profile.w1d_jet

    def counting(y, upto=2):
        points.append(np.size(y))
        return w1d_jet(y, upto)

    monkeypatch.setattr(profile, "w1d_jet", counting)
    fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, consts.L)
    inL = np.zeros(len(fld.y), dtype=bool)
    inL[3:-3] = np.abs(fld.y[3:-3]) <= consts.L
    assert np.array_equal(np.flatnonzero(inL), np.arange(len(fld.y))[fld.win])
    assert 0 < np.count_nonzero(inL) < len(fld.y) // 2
    assert len(points) == 1 and points[0] <= np.count_nonzero(inL)
    assert np.array_equal(fld.yb, np.sqrt(1.0 + fld.y * fld.y))
    points.clear()
    ss.bootstrap_report(fld, consts)
    ss.profile_distance(fld, consts)
    assert points == []


def test_one_compared_window_per_sample(monkeypatch):
    # a curved run forms the compared window once per self-similar frame
    windows, frames = [], []
    compared_window, to_selfsimilar = ss.compared_window, eq.to_selfsimilar

    def counting_window(y, L):
        windows.append(len(frames))
        return compared_window(y, L)

    def counting_frame(*args):
        frames.append(None)
        return to_selfsimilar(*args)

    monkeypatch.setattr(ss, "compared_window", counting_window)
    monkeypatch.setattr(eq, "to_selfsimilar", counting_frame)
    eq.run_until_blowup(eq.SolverConfig(n_cells=512, record_every=8,
                                        blowup_slope_cap=150.0))
    assert len(frames) > 2
    assert windows == list(range(1, len(frames) + 1))


def test_a_run_differences_with_the_solvers_dx(monkeypatch):
    # every sample's y-derivatives are the solver grid's c4 differences,
    # taken with state.dx and rescaled, bit for bit; the frame does not
    # form a grid of its own
    pairs = []
    sample_row = eq._sample_row

    def recording_row(state, xi_hat, fld, *args):
        pairs.append((state, xi_hat, fld))
        return sample_row(state, xi_hat, fld, *args)

    monkeypatch.setattr(eq, "_sample_row", recording_row)
    eq.run_until_blowup(eq.SolverConfig(n_cells=512, record_every=8,
                                        blowup_slope_cap=150.0))
    assert len(pairs) > 2
    for state, xi_hat, fld in pairs:
        e12, e32 = np.exp(0.5 * fld.s), np.exp(1.5 * fld.s)
        dws = derivs_c4(state.w, state.dx)
        dzs = derivs_c4(state.z, state.dx)
        for k in range(1, 5):
            want_w = dws[k - 1] * (e12 * e32 ** -k)
            assert np.array_equal(fld.dW[k], want_w, equal_nan=True), k
            assert np.array_equal(fld.dZ[k], dzs[k - 1] * e32 ** -k), k
        assert np.array_equal(fld.y, (state.grid - xi_hat) * e32)


CONSTANT_BOUNDS = ("ba_w_3", "ba_w_4", "ba_z_0", "ba_z_1", "ba_z_2", "ba_z_3",
                   "ba_z_4")


def reference_bootstrap(fld, consts):
    """bootstrap_report written member by member, _min_margin on every
    member, from its own window, <y> and profile jet; also each member's
    quantity and points."""
    trim = slice(3, -3)
    y = fld.y[trim]
    yb = np.sqrt(1.0 + y * y)
    M, t0 = consts.M, consts.tau0
    e32 = np.exp(-1.5 * fld.s)
    margins, worst, quantities = {}, {}, {}

    def put(name, bound, quantity, yy=y):
        margins[name], worst[name] = ss._min_margin(bound, quantity, yy)
        quantities[name] = (quantity, yy)

    yb23 = yb ** (-2.0 / 3.0)
    put("ba_w_0", (1.0 + t0 ** (1.0 / 23.0)) * yb ** (1.0 / 3.0), fld.W[trim])
    put("ba_w_1", 15.0 * yb23, fld.dW[1][trim])
    put("ba_w_2", M ** (1.0 / 6.0) * yb23, fld.dW[2][trim])
    put("ba_w_3", M ** 0.5, fld.dW[3][trim])
    put("ba_w_4", float(M), fld.dW[4][trim])
    win = ss.compared_window(fld.y, consts.L)
    yw = fld.y[win]
    wbar = profile.w1d_jet(yw, upto=2)
    ybw = np.sqrt(1.0 + yw * yw)
    ybw23 = ybw ** (-2.0 / 3.0)
    put("ba_wt_0", t0 ** (1.0 / 3.0) * ybw ** (1.0 / 3.0), fld.W[win] - wbar[0], yw)
    put("ba_wt_1", t0 ** 0.25 * ybw23, fld.dW[1][win] - wbar[1], yw)
    put("ba_wt_2", t0 ** 0.2 * ybw23, fld.dW[2][win] - wbar[2], yw)
    jet = fld.origin_jet
    margins["ba_wt_3_origin"] = float(t0 ** 0.8 - abs(jet[3] - 6.0))
    worst["ba_wt_3_origin"] = 0.0
    put("ba_z_0", M * t0, fld.Z[trim] + consts.sigma_inf)
    for k, power in ((1, 1.0), (2, 4.0 / 3.0), (3, 6.0), (4, 7.0)):
        put(f"ba_z_{k}", M**power * e32, fld.dZ[k][trim])
    return margins, worst, quantities


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _random_fields():
    rng = np.random.default_rng(11)
    consts = ss.BootstrapConstants(M=100.0, tau0=1e-2, sigma_inf=1.2)
    for case in range(60):
        amp = 10.0 ** rng.uniform(-9, -1)
        c, width = rng.uniform(-3, 3), 10.0 ** rng.uniform(-1, 1)
        grid, w, z, mod = make_field(
            n=int(rng.integers(64, 1025)), t=float(rng.uniform(0, 9e-3)),
            perturb=lambda y: amp * np.exp(-((y - c) / width) ** 2))
        z = z + 10.0 ** rng.uniform(-12, -1) * rng.standard_normal(len(z))
        if case == 5:
            w[len(w) // 2 + 3] = np.nan      # a NaN in W, dW and the jet
        fld = ss.to_selfsimilar(grid, mod.xi, w, z, mod, consts.L)
        if case == 7:
            fld.origin_jet = fld.origin_jet.copy()
            fld.origin_jet[3] = np.nan
        yield fld, consts


def test_bootstrap_report_keeps_the_per_member_bits():
    """The seven constant bounds: bound - max|q| against min(bound - |q|),
    equal since rounding is monotone.  A constant-bound member's worst y is
    that of the first max of |q|."""
    nan_seen = 0
    for fld, consts in _random_fields():
        rep = ss.bootstrap_report(fld, consts)
        margins, worst, quantities = reference_bootstrap(fld, consts)
        assert list(rep.margins) == list(margins) == list(rep.worst)
        for name, m in margins.items():
            assert _bits(rep.margins[name]) == _bits(m), name
            if name in CONSTANT_BOUNDS:
                q, yy = quantities[name]
                assert rep.worst[name] == yy[np.argmax(np.abs(q))], name
            else:
                assert rep.worst[name] == worst[name], name
        nan_seen += any(np.isnan(m) for m in margins.values())
    assert nan_seen >= 2
