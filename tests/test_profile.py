import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereshock import profile as pf
from sphereshock.util import r2_points

finite_y = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_w1d_pinned_values():
    assert pf.w1d(0.0) == pytest.approx(0.0, abs=1e-14)
    assert pf.w1d(2.0) == pytest.approx(-1.0, abs=1e-13)
    assert pf.w1d(-2.0) == pytest.approx(1.0, abs=1e-13)


def test_w1d_implicit_relation_and_monotonicity():
    y = np.linspace(-1e3, 1e3, 10001)
    w = pf.w1d(y)
    assert np.max(np.abs((-w - w**3) - y) / (1.0 + np.abs(y))) < 1e-13
    assert np.all(np.diff(w) < 0)


def test_w1d_envelope():
    y = r2_points(10**4, (-1e3, 0.0), (1e3, 1.0))[:, 0]
    w = np.abs(pf.w1d(y))
    assert np.all(w <= np.minimum(np.abs(y), np.abs(y) ** (1.0 / 3.0)) + 1e-12)


@given(finite_y)
def test_w1d_odd(y):
    assert pf.w1d(-y) == pytest.approx(-pf.w1d(y), abs=1e-12)


def test_w1d_rejects_nonfinite():
    with pytest.raises(ValueError):
        pf.w1d(np.nan)
    with pytest.raises(ValueError):
        pf.w1d(np.inf)


def test_w1d_deriv_origin_values():
    assert pf.w1d_jet(0.0, 4)[1:] == pytest.approx([-1.0, 0.0, 6.0, 0.0],
                                                  abs=1e-12)


def test_w1d_deriv_order_contract():
    for bad in (5, -1):
        with pytest.raises(ValueError):
            pf.w1d_jet(1.0, bad)


def _fd_1d(order, y, h):
    w = pf.w1d
    if order == 1:
        return (w(y + h) - w(y - h)) / (2 * h)
    if order == 2:
        return (w(y + h) - 2 * w(y) + w(y - h)) / h**2
    if order == 3:
        return (w(y + 2 * h) - 2 * w(y + h) + 2 * w(y - h) - w(y - 2 * h)) / (2 * h**3)
    return (w(y + 2 * h) - 4 * w(y + h) + 6 * w(y) - 4 * w(y - h) + w(y - 2 * h)) / h**4


@pytest.mark.parametrize("order,h,c", [(1, 1e-4, 2.0), (2, 1e-3, 10.0),
                                       (3, 2e-3, 150.0), (4, 8e-3, 2000.0)])
def test_w1d_deriv_matches_finite_differences(order, h, c):
    # central stencils carry O(h^2) truncation with a constant set by the
    # next-two derivative of the profile (up to ~3e3 near the origin)
    y = np.linspace(-4.0, 4.0, 81)
    an = pf.w1d_jet(y, order)[order]
    err_h = np.max(np.abs(_fd_1d(order, y, h) - an))
    err_h2 = np.max(np.abs(_fd_1d(order, y, h / 2) - an))
    assert err_h < c * h**2
    assert err_h2 < c * (h / 2) ** 2


def _w2d(y1, y2):
    return pf.w2d_jet(y1, y2)[0][0]


def test_w2d_reductions():
    assert _w2d(0.0, 5.0) == pytest.approx(0.0, abs=1e-13)
    assert _w2d(2.0, 0.0) == pytest.approx(pf.w1d(2.0), abs=1e-14)


@given(finite_y, finite_y)
def test_w2d_parity(y1, y2):
    assert _w2d(-y1, y2) == pytest.approx(-_w2d(y1, y2), abs=1e-11)
    assert _w2d(y1, -y2) == pytest.approx(_w2d(y1, y2), abs=1e-11)


def test_w2d_deriv_origin_table():
    T = pf.w2d_jet(0.0, 0.0)
    for (g1, g2), value in (((1, 0), -1.0), ((0, 1), 0.0), ((2, 0), 0.0),
                            ((1, 1), 0.0), ((0, 2), 0.0), ((3, 0), 6.0),
                            ((1, 2), 2.0)):
        assert T[g1][g2] == pytest.approx(value, abs=1e-12), (g1, g2)


def _fd_mixed(g1, g2, a, b, h):
    def dx(fun, n):
        if n == 0:
            return fun
        inner = dx(fun, n - 1)
        return lambda x, y: (inner(x + h, y) - inner(x - h, y)) / (2 * h)
    def dy(fun, n):
        if n == 0:
            return fun
        inner = dy(fun, n - 1)
        return lambda x, y: (inner(x, y + h) - inner(x, y - h)) / (2 * h)
    return dy(dx(_w2d, g1), g2)(a, b)


@pytest.mark.parametrize("gamma", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                   (3, 0), (2, 1), (1, 2), (0, 3),
                                   (4, 0), (2, 2), (0, 4)])
def test_w2d_deriv_matches_nested_finite_differences(gamma):
    g1, g2 = gamma
    h = {1: 1e-4, 2: 1e-3, 3: 2e-3, 4: 5e-3}[g1 + g2]
    c = {1: 2.0, 2: 10.0, 3: 150.0, 4: 2500.0}[g1 + g2]
    # keep clear of |y1| ~ 0 where the FD oracle itself is noisiest
    pts = [(0.5, -0.7), (2.0, 1.5), (-4.0, 2.0), (9.0, -3.0), (1.3, 0.2)]
    for a, b in pts:
        an = pf.w2d_jet(a, b)[g1][g2]
        assert abs(_fd_mixed(g1, g2, a, b, h) - an) < c * h**2
        assert abs(_fd_mixed(g1, g2, a, b, h / 2) - an) < c * (h / 2) ** 2


def test_eta_values():
    assert pf.eta(0, 0, 1) == pytest.approx(1.0)
    assert pf.eta(1, 1, 1) == pytest.approx(3.0)
    assert pf.eta(3, 0, 1.0 / 6.0) == pytest.approx(10.0 ** (1.0 / 6.0))


@given(finite_y, finite_y)
def test_eta_lower_bounds(y1, y2):
    e = pf.eta(y1, y2, 1.0)
    assert e >= 1.0
    assert e >= 0.5 * (1.0 + y1 * y1 + y2 * y2) or abs(y2) > 1.0


def test_eta_dominates_half_norm():
    pts = r2_points(10**4, (-1e3, -1e3), (1e3, 1e3))
    e = pf.eta(pts[:, 0], pts[:, 1], 1.0)
    assert np.all(2.0 * e >= 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2)


def test_residual_pinned_points():
    assert abs(pf.selfsimilar_burgers_residual(0.0, 0.0)) < 1e-12
    assert abs(pf.selfsimilar_burgers_residual(2.0, 0.0)) < 1e-10
    assert abs(pf.selfsimilar_burgers_residual(5.0, 3.0)) < 1e-10


def test_residual_sweep():
    pts = r2_points(10**4, (-1e3, -1e3), (1e3, 1e3))
    res = pf.selfsimilar_burgers_residual(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(res)) < 1e-10


def test_first_order_bounds_sweep():
    pts = r2_points(10**4, (-1e3, -1e3), (1e3, 1e3))
    m0, m1, m2 = pf.bound_margins(pts[:, 0], pts[:, 1])
    assert np.min(m0) >= -1e-12
    assert np.min(m1) >= -1e-12
    assert np.min(m2) >= -1e-12


@pytest.mark.parametrize("gamma", sorted(pf.DERIV_BOUND_C))
def test_frozen_derivative_bounds(gamma):
    pts = r2_points(4 * 10**4 + 17, (-1e3, -1e3), (1e3, 1e3))[17:]
    margin = pf.deriv_bound_margin(pts[:, 0], pts[:, 1], gamma)
    assert np.min(margin) >= 0.0


@settings(max_examples=25)
@given(st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=-50, max_value=50))
def test_w2d_jet_parity_properties(y1, y2):
    # W is odd in y1, so d1^j d2^k W has the parity (-1)^(j + 1)
    jet_p = pf.w2d_jet(y1, y2)
    jet_m = pf.w2d_jet(-y1, y2)
    for j in range(5):
        for k in range(5 - j):
            assert jet_m[j][k] == pytest.approx((-1) ** (j + 1) * jet_p[j][k],
                                                rel=1e-9, abs=1e-10), (j, k)
