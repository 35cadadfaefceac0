import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

from sphereshock import weno
from sphereshock.weno import _pad_edge, weno5_upwind_derivative

N = 512
# the WENO5 optimal weights and the epsilon of Jiang & Shu (1996), for the
# reference face below
GAMMAS = (0.1, 0.6, 0.3)
WENO_EPS = 1e-40


def _slopes(u, dx):
    return np.diff(_pad_edge(np.asarray(u, dtype=float), 3)) / dx


def textbook_face(v1, v2, v3, v4, v5):
    """Classic WENO5 reconstruction (Jiang & Shu 1996) from five
    upwind-ordered slopes."""
    q1 = v1 / 3.0 - 7.0 * v2 / 6.0 + 11.0 * v3 / 6.0
    q2 = -v2 / 6.0 + 5.0 * v3 / 6.0 + v4 / 3.0
    q3 = v3 / 3.0 + 5.0 * v4 / 6.0 - v5 / 6.0

    b1 = 13.0 / 12.0 * (v1 - 2 * v2 + v3) ** 2 + 0.25 * (v1 - 4 * v2 + 3 * v3) ** 2
    b2 = 13.0 / 12.0 * (v2 - 2 * v3 + v4) ** 2 + 0.25 * (v2 - v4) ** 2
    b3 = 13.0 / 12.0 * (v3 - 2 * v4 + v5) ** 2 + 0.25 * (3 * v3 - 4 * v4 + v5) ** 2

    a1 = GAMMAS[0] / (WENO_EPS + b1) ** 2
    a2 = GAMMAS[1] / (WENO_EPS + b2) ** 2
    a3 = GAMMAS[2] / (WENO_EPS + b3) ** 2
    s = a1 + a2 + a3
    return (a1 * q1 + a2 * q2 + a3 * q3) / s


def linear_reference(u, dx, speed):
    """Both linear faces on every node, then one picked per node by the sign;
    the right-leaning face is the left-leaning one of the mirrored slopes."""
    d = _slopes(u, dx)
    n = len(u)
    c = np.array([2.0, -13.0, 47.0, 27.0, -3.0]) / 60.0
    left = np.correlate(d[:n + 4], c)
    right = np.correlate(d[::-1][:n + 4], c)[::-1]
    return np.where(np.asarray(speed) >= 0.0, left, right)


def _field(n=N):
    x = np.linspace(-1.0, 1.0, n)
    rng = np.random.default_rng(7)
    return np.tanh(8.0 * x) + 0.3 * np.sin(5.0 * x) + 1e-3 * rng.standard_normal(n)


def _quarters(signs):
    return np.repeat(np.asarray(signs, dtype=float), N // len(signs))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


SPEEDS = {
    "all_positive": lambda: np.full(N, 0.7),
    "all_negative": lambda: np.full(N, -2.4),
    # cw of a curved run: four contiguous sign runs, each sign spanning 3/4
    "four_runs": lambda: _quarters([-1.0, 1.0, -1.0, 1.0]),
    "random_signs": lambda: np.random.default_rng(3).standard_normal(N),
    "alternating": lambda: np.where(np.arange(N) % 2, 1.0, -1.0),
    "with_nans": lambda: np.where(np.arange(N) % 97 == 5, np.nan,
                                  np.linspace(-1.0, 1.0, N)),
    "zeros": lambda: np.zeros(N),
    "scalar_positive": lambda: 1.5,
    "scalar_negative": lambda: -1.5,
}


@pytest.mark.parametrize("name", SPEEDS)
def test_linear_face_outside_the_window(name):
    u = _field()
    speed = SPEEDS[name]()
    (got,) = weno5_upwind_derivative([u], 0.01, [speed])
    assert got.shape == u.shape
    assert np.array_equal(_bits(got), _bits(linear_reference(u, 0.01, speed)))


def test_linear_face_is_weno5_at_optimal_weights():
    d = _slopes(_field(), 0.01)
    v = [d[k:k + N] for k in range(5)]
    q1 = v[0] / 3.0 - 7.0 * v[1] / 6.0 + 11.0 * v[2] / 6.0
    q2 = -v[1] / 6.0 + 5.0 * v[2] / 6.0 + v[3] / 3.0
    q3 = v[2] / 3.0 + 5.0 * v[3] / 6.0 - v[4] / 6.0
    optimal = GAMMAS[0] * q1 + GAMMAS[1] * q2 + GAMMAS[2] * q3
    got = linear_reference(_field(), 0.01, 1.0)
    assert np.allclose(got, optimal, rtol=0.0, atol=1e-12 * np.max(np.abs(d)))
    # on a quadratic field the three smoothness indicators are equal, so the
    # nonlinear weights are the optimal ones and the two faces agree
    x = np.linspace(-1.0, 1.0, N)
    u = 3.0 * x * x - x
    d = _slopes(u, 0.01)
    inner = slice(3, N - 3)  # no ghost node in either stencil
    for speed, v in ((1.0, [d[k:k + N] for k in range(5)]),
                     (-1.0, [d[5 - k:5 - k + N] for k in range(5)])):
        got = linear_reference(u, 0.01, speed)
        assert np.allclose(got[inner], textbook_face(*v)[inner], rtol=0.0,
                           atol=1e-12 * np.max(np.abs(d)))


@pytest.mark.parametrize("name", ["all_positive", "four_runs", "random_signs",
                                  "scalar_negative"])
def test_mirrored_field_gets_mirrored_derivative(name):
    # the scheme itself is mirror-symmetric: no node has speed exactly 0
    u = _field()
    speed = np.broadcast_to(SPEEDS[name](), (N,))
    got, mirrored = weno5_upwind_derivative([u, -u[::-1]], 0.01,
                                            [speed, -speed[::-1]])
    assert np.array_equal(_bits(mirrored[::-1]), _bits(got))


def test_constant_field_has_zero_derivative():
    u = np.full(N, 0.8)
    for speed in (_quarters([-1.0, 1.0, -1.0, 1.0]), 1.0, -1.0):
        for got in weno5_upwind_derivative([u, 0.5 * u], 0.01, [speed, speed]):
            assert np.all(got == 0.0)


@pytest.mark.parametrize("name", SPEEDS)
def test_faces_reconstructed_only_where_used(name, monkeypatch):
    # each field forms the face of a side only if some node takes it, and
    # at most once: one face where the speed has one sign, whatever the
    # grid size
    formed = []

    def counting_face(d, left):
        formed.append(left)
        return linear_face(d, left)

    linear_face = weno._linear_face
    monkeypatch.setattr(weno, "_linear_face", counting_face)
    for n in (64, 100, 512, 4096):
        speed = SPEEDS[name]()
        if np.ndim(speed):
            speed = np.resize(speed, n)
        left = np.broadcast_to(np.asarray(speed) >= 0.0, (n,))
        formed.clear()
        weno5_upwind_derivative([_field(n)], 0.01, [speed])
        assert sorted(formed) == sorted({bool(lt) for lt in left})


@pytest.mark.parametrize("name", SPEEDS)
def test_batched_fields_equal_one_field_at_a_time(name):
    # the fields of one call do not change a bit of each other
    u = _field()
    fields = [u, np.full(N, 0.8), -u[::-1], np.cos(3.0 * u)]
    speeds = [SPEEDS[name](), SPEEDS["four_runs"](), -1.5,
              SPEEDS["random_signs"]()]
    got = weno5_upwind_derivative(fields, 0.01, speeds)
    assert len(got) == len(fields)
    for g, f, c in zip(got, fields, speeds):
        (alone,) = weno5_upwind_derivative([f], 0.01, [c])
        assert np.array_equal(_bits(g), _bits(alone))


def _speed_layout(data, n):
    """Transport speeds of one field: one-signed, a scalar, a random mix of
    signs, signed zeros and NaNs, or one sign change at any node."""
    layout = data.draw(hs.sampled_from(["positive", "negative", "scalar",
                                        "mixed", "change"]))
    if layout == "positive":
        return np.full(n, 0.7)
    if layout == "negative":
        return np.full(n, -2.4)
    if layout == "scalar":
        return data.draw(hs.sampled_from([-1.5, -0.0, 0.0, 1.5, np.nan]))
    if layout == "mixed":
        values = hs.sampled_from([-1.5, -0.0, 0.0, 0.7, np.nan])
        return np.array(data.draw(hs.lists(values, min_size=n, max_size=n)))
    change = data.draw(hs.integers(0, n))
    sign = data.draw(hs.sampled_from([-1.0, 1.0]))
    return np.where(np.arange(n) < change, sign, -sign)


@settings(max_examples=200, deadline=None)
@given(hs.data())
def test_whole_kernel_matches_the_references(data):
    # every node of every field, with a step anywhere (or none) and any sign
    # layout, in one batched call
    n = data.draw(hs.integers(4, 400), label="n")
    x = np.linspace(-1.0, 1.0, n)
    fields, speeds = [], []
    for _ in range(2):
        j = data.draw(hs.integers(0, n - 1), label="step")
        height = data.draw(hs.floats(-1e3, 1e3))
        fields.append(0.3 * np.sin(5.0 * x)
                      + np.where(np.arange(n) > j, height, 0.0))
        speeds.append(_speed_layout(data, n))
    got = weno5_upwind_derivative(fields, 0.01, speeds)
    for g, u, c in zip(got, fields, speeds):
        assert np.array_equal(_bits(g), _bits(linear_reference(u, 0.01, c)))


def explicit_c4(u, dx):
    """The four centred stencils as explicit sums of shifted slices."""
    u2, u3 = _pad_edge(u, 2), _pad_edge(u, 3)
    return [(-u2[4:] + 8 * u2[3:-1] - 8 * u2[1:-3] + u2[:-4]) / (12.0 * dx),
            (-u2[4:] + 16 * u2[3:-1] - 30 * u2[2:-2] + 16 * u2[1:-3]
             - u2[:-4]) / (12.0 * dx**2),
            (u3[:-6] - 8 * u3[1:-5] + 13 * u3[2:-4] - 13 * u3[4:-2]
             + 8 * u3[5:-1] - u3[6:]) / (8.0 * dx**3),
            (-u3[:-6] + 12 * u3[1:-5] - 39 * u3[2:-4] + 56 * u3[3:-3]
             - 39 * u3[4:-2] + 12 * u3[5:-1] - u3[6:]) / (6.0 * dx**4)]


@settings(max_examples=200, deadline=None)
@given(hs.data())
def test_centred_stencils_are_the_explicit_sums(data):
    """Each np.correlate stencil sums the explicit form's products in its
    order, so every bit matches, except that its sum starts from +0.0: an
    output whose every product is -0.0 is +0.0 where the explicit sum was
    -0.0.  On a non-finite node the zero taps of the first and third
    derivatives also make that node's own derivative NaN, where the
    explicit sums skipped it; a run never differences a non-finite field,
    since it stops with `numerical_failure` first, so only finite fields
    are drawn."""
    n = data.draw(hs.integers(5, 80), label="n")
    values = hs.floats(-1e290, 1e290) | hs.sampled_from([0.0, -0.0, 1.0, -3.0])
    u = data.draw(hnp.arrays(np.float64, n, elements=values))
    dx = data.draw(hs.sampled_from([1.0, 0.01, 3.0 / 4096]))
    got = weno.derivs_c4(u, dx)
    assert np.array_equal(_bits(weno.deriv1_c4(u, dx)), _bits(got[0]))
    for a, b in zip(got, explicit_c4(u, dx)):
        differ = _bits(a) != _bits(b)
        assert np.all((a[differ] == 0.0) & ~np.signbit(a[differ])
                      & np.signbit(b[differ]))


def test_centred_stencils_bit_for_bit_without_zeros():
    rng = np.random.default_rng(5)
    for scale in (1e-8, 1.0, 1e8):
        u = scale * rng.standard_normal(300)
        for a, b in zip(weno.derivs_c4(u, 0.003), explicit_c4(u, 0.003)):
            assert np.array_equal(_bits(a), _bits(b))


def test_fifth_order_on_smooth_field():
    errs = []
    for n in (32, 64, 128):
        x = np.linspace(0.0, 1.0, n + 1)
        dx = x[1] - x[0]
        exact = np.cos(x + 0.5)
        # nodes 3..n-3 reach no ghost node with either stencil
        got = weno5_upwind_derivative([np.sin(x + 0.5)] * 2, dx, (1.0, -1.0))
        errs.append([np.max(np.abs(d - exact)[3:-3]) for d in got])
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(orders > 4.7), orders


def test_fifth_order_on_smooth_field_outside_the_window():
    # the stencils of the smooth nodes left of x = 8 stay out of the window
    # of a jump at x = 12.8, and there the derivative converges at fifth order
    errs = []
    for n in (128, 256, 512):
        x = np.linspace(0.0, 16.0, n + 1)
        dx = x[1] - x[0]
        u = np.sin(x) + np.where(x >= 12.8, 10.0, 0.0)
        (d,) = weno5_upwind_derivative([u], dx, [1.0])
        errs.append(np.max(np.abs(d - np.cos(x))[3:n // 2]))
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(orders > 4.7), orders
