from pathlib import Path

import numpy as np
import pytest

from sphereshock import equivariant as eq
from sphereshock import trajectories as tr
from sphereshock.config import ExperimentConfig
from sphereshock.selfsim import BootstrapConstants

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_linear_field_exact_exponential():
    p = tr.integrate_trajectory(lambda s, y: 1.5 * y, 0.0, 0.3, 2.0, tol=1e-11)
    s = np.linspace(0.0, 2.0, 11)
    assert np.max(np.abs(p(s) - 0.3 * np.exp(1.5 * s))) < 1e-8


def test_non_finite_field_is_refused_at_once():
    # past y = 0.5 the error estimate is NaN, and no step size would ever
    # be accepted: the first such step raises instead of growing h forever
    calls = []

    def V(s, y):
        calls.append(s)
        return np.inf if y > 0.5 else 1.0

    with pytest.raises(ValueError, match=r"non-finite error estimate nan in "
                       r"the step from s = 0\.4\d*, y = 0\.4\d*"):
        tr.integrate_trajectory(V, 0.0, 0.0, 2.0)
    assert len(calls) < 1000


def test_zero_field_constant_path():
    p = tr.integrate_trajectory(lambda s, y: 0.0, 0.5, -0.7, 3.0)
    assert p(1.9) == pytest.approx(-0.7, abs=1e-14)


def test_step_halving_reference():
    # nonautonomous field vs a tiny-step RK4 reference integration
    def V(s, y):
        return 1.5 * y + 0.3 * np.sin(2.0 * s) - 0.1 * y**2 / (1 + y * y)

    tol = 1e-10
    p = tr.integrate_trajectory(V, 0.0, 0.2, 2.5, tol=tol)

    y, s, h = 0.2, 0.0, 2.5 / 60000
    for _ in range(60000):
        k1 = V(s, y)
        k2 = V(s + h / 2, y + h / 2 * k1)
        k3 = V(s + h / 2, y + h / 2 * k2)
        k4 = V(s + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s += h
    assert p(2.5) == pytest.approx(y, abs=5e-8)


def test_rejects_reversed_span():
    with pytest.raises(ValueError):
        tr.integrate_trajectory(lambda s, y: 0.0, 1.0, 0.0, 0.5)


def test_growth_certificate_positive_for_linear_field():
    p = tr.integrate_trajectory(lambda s, y: 1.5 * y, 0.0, 0.1, 3.0)
    assert tr.growth_certificate(p, 1.0 / 3.0) > 0.0


def test_growth_certificate_detects_inward_field():
    p = tr.integrate_trajectory(lambda s, y: -y, 0.0, 0.5, 3.0)
    assert tr.growth_certificate(p, 1.0 / 3.0) < 0.0


def test_semigroup_property():
    V = lambda s, y: 1.5 * y + 0.2 * np.cos(s)
    p = tr.integrate_trajectory(V, 0.0, 0.4, 2.0, tol=1e-11)
    q = tr.integrate_trajectory(V, 1.0, p(1.0), 2.0, tol=1e-11)
    assert q(2.0) == pytest.approx(p(2.0), abs=1e-7)


def test_weighted_integral_constant_origin_path():
    p = tr.integrate_trajectory(lambda s, y: 0.0, 0.0, 0.0, 1.0)
    assert tr.weighted_integral(p, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_weighted_integral_p_range_contract():
    p = tr.integrate_trajectory(lambda s, y: 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        tr.weighted_integral(p, 0.05)
    with pytest.raises(ValueError):
        tr.weighted_integral(p, 11.0)


def test_weighted_integral_against_dense_trapezoid():
    p = tr.integrate_trajectory(lambda s, y: 1.5 * y, 0.0, 0.3, 2.0, tol=1e-12)
    for pw in (0.5, 1.0, 2.0):
        s = np.linspace(0.0, 2.0, 400001)
        ref = np.trapezoid((1.0 + p(s) ** 2) ** (-0.5 * pw), s)
        assert tr.weighted_integral(p, pw) == pytest.approx(ref, abs=1e-8)


def test_weighted_integral_majorant_for_growing_path():
    # |Phi| >= l e^{(s-s1)/3} makes the integral <= -4 ln l
    l = np.log(100.0) ** -5
    p = tr.integrate_trajectory(lambda s, y: y / 3.0, 0.0, l, 40.0)
    for pw in (0.5, 1.0, 2.0):
        assert tr.weighted_integral(p, pw) <= -4.0 * np.log(l)


def test_z_drift_certificate_sign():
    beta3, kappa0 = 0.5, 1.2

    def V_good(s, y):
        return -0.9 * beta3 * kappa0 * np.exp(0.5 * s)

    p = tr.integrate_trajectory(V_good, 0.0, 0.0, 2.0)
    margin = tr.z_drift_certificate(V_good, p, beta3, kappa0)
    assert margin is not None and margin > 0.0

    def V_bad(s, y):
        return 0.0

    p2 = tr.integrate_trajectory(V_bad, 0.0, 0.0, 2.0)
    assert tr.z_drift_certificate(V_bad, p2, beta3, kappa0) < 0.0


def test_frozen_field_interpolation():
    ss = np.array([4.0, 4.5, 5.0])
    y = np.linspace(-10, 10, 201)
    f = tr.FrozenTransportField(ss, [y] * 3, [np.sin(y) * s for s in ss])
    assert f.s_span == (4.0, 5.0)
    # midway in s, halfway interpolation
    got = f.g(4.25, 0.5)
    expect = 0.5 * (np.sin(0.5) * 4.0 + np.sin(0.5) * 4.5)
    assert got == pytest.approx(expect, abs=1e-12)
    assert f(4.25, 0.5) == pytest.approx(1.5 * 0.5 + expect, abs=1e-12)


def test_frozen_field_forms_the_transport_offsets():
    # g_w = bt W + bt e^{s/2} c_w and g_z = b2 bt W + bt e^{s/2} c_z with the
    # speeds (c_w, c_z) = (kappa + b2 Z - xi_dot, b2 kappa + Z - xi_dot)
    y = np.linspace(-2.0, 2.0, 9)
    snaps = [dict(s=s, y=y, W=np.sin(y) + s, Z=np.cos(y) - s, kappa=1.2,
                  beta_tau=1.1, xi_dot=0.3, beta2=1.0 / 3.0)
             for s in (5.0, 4.0)]
    es2 = np.exp(0.5 * np.array([4.0, 5.0]))
    gw = [1.1 * r["W"] + 1.1 * e * (1.2 + r["Z"] / 3.0 - 0.3)
          for r, e in zip(snaps[::-1], es2)]
    gz = [1.1 * r["W"] / 3.0 + 1.1 * e * (0.4 + r["Z"] - 0.3)
          for r, e in zip(snaps[::-1], es2)]
    for key, want in (("g_w", gw), ("g_z", gz)):
        f = tr.FrozenTransportField.from_snapshots(snaps, key=key)
        assert f.s_span == (4.0, 5.0)
        for got, g in zip(f.g_slices, want):
            np.testing.assert_allclose(got, g, rtol=1e-14, atol=1e-14)
    with pytest.raises(KeyError):
        tr.FrozenTransportField.from_snapshots(snaps, key="W")


@pytest.mark.parametrize("n", [0, 1])
def test_frozen_field_needs_two_slices(n):
    with pytest.raises(ValueError, match=f"two snapshot slices, got {n}"):
        tr.FrozenTransportField(4.0 + np.arange(n),
                                [np.linspace(-1.0, 1.0, 5)] * n,
                                [np.zeros(5)] * n)


def test_criterion_9_paths_stay_on_the_frozen_field():
    # criterion 9's g_w paths, from l <= |y0| <= 2, on the theorem_a1 run at
    # 1024 cells (4096 cells holds as well): every node lies inside the
    # y-range of the two slices that bracket it in s, where the field
    # interpolates snapshot data instead of extrapolating it as a constant
    cfg = ExperimentConfig.load(CONFIGS / "theorem_a1.json").solver.replace(
        n_cells=1024)
    rec = eq.run_until_blowup(cfg)
    assert rec.status == "blew_up"
    field = tr.FrozenTransportField.from_snapshots(rec.snapshots, key="g_w")
    s_lo, s_hi = field.s_span
    lo = np.array([y[0] for y in field.y_slices])
    hi = np.array([y[-1] for y in field.y_slices])
    mags = np.geomspace(BootstrapConstants(M=cfg.monitor_M).l, 2.0, 25)
    for y0 in np.concatenate([mags, -mags]):
        path = tr.integrate_trajectory(field, s_lo, y0, s_hi, tol=1e-9)
        i = np.clip(np.searchsorted(field.s_slices, path.s) - 1, 0,
                    len(field.s_slices) - 2)
        for j in (i, i + 1):
            assert np.all((lo[j] <= path.y) & (path.y <= hi[j])), y0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _two_grid_field():
    """Four slices on two y grids, two of them at equal s."""
    y_a = np.linspace(-3.0, 3.0, 61)
    y_b = np.linspace(-2.5, 3.5, 41) ** 3 / 9.0
    slices = ((4.0, y_a), (4.5, y_b), (4.5, y_a), (5.25, y_b))
    return tr.FrozenTransportField(
        np.array([s for s, _ in slices]), [y for _, y in slices],
        [np.sin(y * (1.0 + s)) * s - 0.1 * y for s, y in slices])


def test_scalar_field_call_is_the_vectorised_formula():
    f = _two_grid_field()
    ys = np.unique(np.concatenate(f.y_slices))  # every node of both grids
    mid = 0.5 * (ys[1:] + ys[:-1])  # between nodes
    beyond = np.array([-1e3, -3.0 - 1e-9, 3.5 + 1e-9, 1e3, -0.0, 0.0])
    points = np.concatenate([ys, mid, beyond])
    times = [3.0, 4.0, 4.2, 4.5, 4.5 + 1e-12, 4.9, 5.25, 6.0]
    for s in times:
        for y in points:
            want = 1.5 * y + f.g(s, y)
            for yy, ss in ((float(y), float(s)), (np.float64(y), np.float64(s))):
                got = f(ss, yy)
                assert isinstance(got, float)
                assert _bits(got) == _bits(want), (s, y)
    arr = np.array([-1.0, 0.25, 2.0])
    got = f(4.2, arr)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(_bits(got), _bits(1.5 * arr + f.g(4.2, arr)))


def test_scalar_field_call_keeps_signed_zeros():
    # a slice at s = 0 queried at s = -0.0: np.clip keeps the fraction -0.0
    f = tr.FrozenTransportField(
        np.array([0.0, 1.0]), [np.array([-1.0, 0.0, 1.0])] * 2,
        [np.array([1.0, -0.0, 1.0]), np.array([2.0, 3.0, 2.0])])
    for s in (-0.0, 0.0, 1.0):
        for y in (-0.0, 0.0):
            assert _bits(f(s, y)) == _bits(1.5 * y + f.g(s, y)), (s, y)
    assert np.signbit(f(-0.0, -0.0))


def test_scalar_interp_keeps_numpy_nan_fallbacks():
    xp = [0.0, 1.0, 2.0]
    for fp in ([np.inf, np.inf, 1.0], [-np.inf, np.inf, 0.0],
               [1.0, np.nan, 2.0], [0.0, 1e308, -1e308]):
        for x in (0.25, 0.5, 1.0, 1.5, np.nan, -np.inf, np.inf):
            want = np.interp(x, xp, fp)
            got = tr._interp(x, xp, fp)
            assert _bits(got) == _bits(want) or (np.isnan(got) and np.isnan(want))


def _reference_integrate(V, s1, y0, s_end, tol=1e-10, max_steps=200000):
    """The generator-sum RKF45 loop that integrate_trajectory unrolls."""
    y0 = float(y0)
    ss, ys, fs = [s1], [y0], [float(np.asarray(V(s1, y0)))]
    h = min(1e-2, s_end - s1)
    s, y = s1, y0
    for _ in range(max_steps):
        if s >= s_end - 1e-14:
            break
        h = min(h, s_end - s)
        k = []
        for stage in range(6):
            ys_stage = y + h * sum(b * kk for b, kk in zip(tr._RKF_B[stage], k))
            k.append(float(np.asarray(V(s + tr._RKF_A[stage] * h, ys_stage))))
        y5 = y + h * sum(c * kk for c, kk in zip(tr._RKF_C5, k))
        y4 = y + h * sum(c * kk for c, kk in zip(tr._RKF_C4, k))
        err = abs(y5 - y4)
        scale = tol * max(1.0, abs(y), abs(y5))
        if err <= scale or h <= 1e-12:
            s += h
            y = y5
            ss.append(s)
            ys.append(y)
            fs.append(float(np.asarray(V(s, y))))
        ratio = (scale / err) ** 0.2 if err > 0 else 2.0
        h = max(1e-12, h * min(2.0, max(0.2, 0.9 * ratio)))
    return np.array(ss), np.array(ys), np.array(fs)


def _nonlinear(s, y):
    return 1.5 * y + 0.3 * np.sin(2.0 * s) * y - 0.1 * y ** 3


_CASES = {
    "y0 +0": (_nonlinear, 0.0, 0.0, 2.0, {}),
    "y0 -0": (lambda s, y: 1.5 * y - 0.2 * y * y, 0.0, -0.0, 1.0, {}),
    "V -0": (lambda s, y: -0.0 * (1.0 + y * y), 0.5, -0.0, 1.5, {}),
    "sign-aware V at y0 -0": (
        lambda s, y: 7.0 if np.signbit(y) else -0.0, 0.0, -0.0, 0.5, {}),
    "h floor": (lambda s, y: 1e6 * np.sin(1e13 * s) + y, 0.0, 0.3, 4e-11, {}),
    "frozen": (_two_grid_field(), 4.0, 0.7, 5.25, {"tol": 1e-9}),
    "frozen past the span": (_two_grid_field(), 3.5, -0.4, 6.0, {}),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_unrolled_stages_match_the_generator_sums(case):
    V, s1, y0, s_end, kw = _CASES[case]
    p = tr.integrate_trajectory(V, s1, y0, s_end, **kw)
    s, y, f = _reference_integrate(V, s1, y0, s_end, **kw)
    for got, want in ((p.s, s), (p.y, y), (p.f, f)):
        assert np.array_equal(_bits(got), _bits(want))
    if case == "h floor":
        assert np.max(np.diff(p.s)) < 1.001e-12 and len(p.s) > 20
    if case in ("y0 -0", "V -0"):
        assert np.signbit(p.f[0])
