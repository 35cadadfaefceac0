import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

from sphereshock import diagnostics as dg
from sphereshock import equivariant as eq
from sphereshock import weno
from sphereshock.config import ExperimentConfig
from sphereshock.weno import (_GAMMAS, _WENO_EPS, FRONT_HALF_WIDTH, _pad_edge,
                              _weno5_face, front_window,
                              weno5_upwind_derivative)

N = 512
K = FRONT_HALF_WIDTH


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

    a1 = _GAMMAS[0] / (_WENO_EPS + b1) ** 2
    a2 = _GAMMAS[1] / (_WENO_EPS + b2) ** 2
    a3 = _GAMMAS[2] / (_WENO_EPS + b3) ** 2
    s = a1 + a2 + a3
    return (a1 * q1 + a2 * q2 + a3 * q3) / s


def two_face_reference(u, dx, speed):
    """Both WENO5 faces on every node, then one picked per node by the sign."""
    d = _slopes(u, dx)
    n = len(u)
    left = textbook_face(d[0:n], d[1:n + 1], d[2:n + 2], d[3:n + 3],
                         d[4:n + 4])
    right = textbook_face(d[5:n + 5], d[4:n + 4], d[3:n + 3], d[2:n + 2],
                          d[1:n + 1])
    return np.where(np.asarray(speed) >= 0.0, left, right)


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


def _window_mask(u):
    a, b = front_window(u)
    assert 0 < a < b < len(u)
    inside = np.zeros(len(u), dtype=bool)
    inside[a:b] = True
    return inside


@pytest.mark.parametrize("name", SPEEDS)
def test_bit_identical_to_two_face_formula(name):
    # inside the front window: the WENO5 faces, bit for bit
    u = _field()
    speed = SPEEDS[name]()
    (got,) = weno5_upwind_derivative([u], 0.01, [speed])
    assert got.shape == u.shape
    inside = _window_mask(u)
    assert np.array_equal(_bits(got[inside]),
                          _bits(two_face_reference(u, 0.01, speed)[inside]))


@pytest.mark.parametrize("name", SPEEDS)
def test_linear_face_outside_the_window(name):
    u = _field()
    speed = SPEEDS[name]()
    (got,) = weno5_upwind_derivative([u], 0.01, [speed])
    outside = ~_window_mask(u)
    assert np.array_equal(_bits(got[outside]),
                          _bits(linear_reference(u, 0.01, speed)[outside]))


def test_linear_face_is_weno5_at_optimal_weights():
    d = _slopes(_field(), 0.01)
    v = [d[k:k + N] for k in range(5)]
    q1 = v[0] / 3.0 - 7.0 * v[1] / 6.0 + 11.0 * v[2] / 6.0
    q2 = -v[1] / 6.0 + 5.0 * v[2] / 6.0 + v[3] / 3.0
    q3 = v[2] / 3.0 + 5.0 * v[3] / 6.0 - v[4] / 6.0
    optimal = 0.1 * q1 + 0.6 * q2 + 0.3 * q3
    got = linear_reference(_field(), 0.01, 1.0)
    assert np.allclose(got, optimal, rtol=0.0, atol=1e-12 * np.max(np.abs(d)))


def test_window_centres_on_the_steepest_interval():
    u = np.zeros(N)
    u[200:] = 1.0  # one step: interval 199 between nodes 199 and 200
    assert front_window(u) == (200 - K, 200 + K)
    u[400:] += 1.0  # a tie at interval 399: the window spans both
    assert front_window(u) == (200 - K, 400 + K)
    u[N - 3:] += 1.0  # clipped at the grid end
    assert front_window(u) == (200 - K, N)
    assert front_window(np.full(N, 0.8)) == (0, 0)
    u[300] = np.nan
    assert front_window(u) == (0, 0)


@pytest.mark.parametrize("tie", [False, True])
def test_mirrored_field_gets_mirrored_window(tie):
    u = _field()
    if tie:
        # integer values, so that the steps of +-1000 at intervals 99 and
        # 349 tie exactly
        u = np.round(100.0 * u)
        u[100], u[350] = u[99], u[349]
        u[100:] += 1000.0
        u[350:] -= 1000.0
    a, b = front_window(u)
    assert front_window(-u[::-1]) == front_window(u[::-1]) == (N - b, N - a)
    if tie:
        assert (a, b) == (100 - K, 350 + K)


@pytest.mark.parametrize("name", ["all_positive", "four_runs", "random_signs",
                                  "scalar_negative"])
def test_mirrored_field_gets_mirrored_derivative(name):
    # the scheme itself is mirror-symmetric: no node has speed exactly 0
    u = _field()
    speed = np.broadcast_to(SPEEDS[name](), (N,))
    got, mirrored = weno5_upwind_derivative([u, -u[::-1]], 0.01,
                                            [speed, -speed[::-1]])
    assert np.array_equal(_bits(mirrored[::-1]), _bits(got))


def test_constant_field_has_zero_derivative(reconstructed_nodes):
    u = np.full(N, 0.8)
    for speed in (_quarters([-1.0, 1.0, -1.0, 1.0]), 1.0, -1.0):
        for got in weno5_upwind_derivative([u, 0.5 * u], 0.01, [speed, speed]):
            assert np.all(got == 0.0)
    assert reconstructed_nodes == [0, 0]  # no front, no nonlinear face


@pytest.fixture
def reconstructed_nodes(monkeypatch):
    count = [0, 0]  # nodes, calls

    def counting_face(v):
        count[0] += v.shape[1]
        count[1] += 1
        return _weno5_face(v)

    monkeypatch.setattr(weno, "_weno5_face", counting_face)
    return count


@pytest.mark.parametrize("name", SPEEDS)
def test_faces_reconstructed_only_where_used(name, reconstructed_nodes):
    # nonlinear faces only on the front window, whatever the grid size
    for n in (64, 100, 512, 4096, 8192):
        speed = SPEEDS[name]()
        if np.ndim(speed):
            speed = np.resize(speed, n)
        reconstructed_nodes[0] = 0
        weno5_upwind_derivative([_field(n)], 0.01, [speed])
        assert 0 < reconstructed_nodes[0] <= 2 * (2 * K + 1)


@pytest.mark.parametrize("name", SPEEDS)
def test_batched_fields_equal_one_field_at_a_time(name):
    # one nonlinear face call for all fields changes no bit of any of them
    u = _field()
    fields = [u, np.full(N, 0.8), -u[::-1], np.cos(3.0 * u)]
    speeds = [SPEEDS[name](), SPEEDS["four_runs"](), -1.5,
              SPEEDS["random_signs"]()]
    got = weno5_upwind_derivative(fields, 0.01, speeds)
    assert len(got) == len(fields)
    for g, f, c in zip(got, fields, speeds):
        (alone,) = weno5_upwind_derivative([f], 0.01, [c])
        assert np.array_equal(_bits(g), _bits(alone))


@pytest.mark.parametrize("name", SPEEDS)
def test_one_nonlinear_face_call_per_derivative_call(name, reconstructed_nodes):
    u = _field()
    speed = SPEEDS[name]()
    for fields in ([u], [u, np.cos(3.0 * u)], [np.full(N, 0.8), u, -u[::-1]]):
        reconstructed_nodes[:] = [0, 0]
        weno5_upwind_derivative(fields, 0.01, [speed] * len(fields))
        assert reconstructed_nodes[1] == 1
        assert 0 < reconstructed_nodes[0] <= len(fields) * 2 * (2 * K + 1)
    reconstructed_nodes[:] = [0, 0]
    weno5_upwind_derivative([np.full(N, 0.8), np.zeros(N)], 0.01, [speed] * 2)
    assert reconstructed_nodes == [0, 0]


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_face_is_the_textbook_formula(data):
    # every column bit for bit, for slopes of any size (zeros, constant
    # columns, NaN, +-inf, 1e+-300), and a column's face does not depend on
    # the other columns of the batch
    m = data.draw(hs.integers(1, 130), label="m")
    values = hs.floats(allow_nan=True, allow_infinity=True) | hs.sampled_from(
        [0.0, -0.0, 1.0, 1e-300, -1e300])
    v = data.draw(hnp.arrays(np.float64, (5, m), elements=values))
    const = data.draw(hs.lists(hs.integers(0, m - 1), max_size=m))
    v[:, const] = v[0, const]
    # faces of -0 and +0
    v = np.column_stack([v, np.full(5, -0.0), [-0.0, 0.0, -0.0, -0.0, 0.0]])
    m += 2
    scale = data.draw(hs.sampled_from([1.0, 1e-300, 1e300]))
    sub = data.draw(hs.permutations(range(m)))[:data.draw(hs.integers(1, m))]
    with np.errstate(all="ignore"):
        v *= scale
        want = textbook_face(*v)
        got = _weno5_face(v)
        alone = _weno5_face(v[:, sub])
    # a NaN's sign bit may depend on the vector loop numpy picks
    for a, b in ((got, want), (alone, got[sub])):
        nan = np.isnan(b)
        assert np.array_equal(np.isnan(a), nan)
        assert np.array_equal(_bits(a[~nan]), _bits(b[~nan]))


def _speed_layout(data, n, window):
    """Transport speeds of one field: one-signed, a random mix of signs,
    signed zeros and NaNs, or one sign change at an edge of the window."""
    layout = data.draw(hs.sampled_from(["positive", "negative", "mixed",
                                        "edge"]))
    if layout == "positive":
        return np.full(n, 0.7)
    if layout == "negative":
        return np.full(n, -2.4)
    if layout == "mixed":
        values = hs.sampled_from([-1.5, -0.0, 0.0, 0.7, np.nan])
        return np.array(data.draw(hs.lists(values, min_size=n, max_size=n)))
    edge = data.draw(hs.sampled_from(window))
    sign = data.draw(hs.sampled_from([-1.0, 1.0]))
    return np.where(np.arange(n) < edge, sign, -sign)


@settings(max_examples=200, deadline=None)
@given(hs.data())
def test_whole_kernel_matches_the_references(data):
    # every node of every field, with the front anywhere (its window clipped
    # within K nodes of an end) and any sign layout, in one batched call
    n = data.draw(hs.integers(4, 400), label="n")
    x = np.linspace(-1.0, 1.0, n)
    fields, speeds, windows = [], [], []
    for _ in range(2):
        # a step of height >= 2 at interval j outgrows every smooth interval
        j = data.draw(hs.integers(0, n - 2), label="front")
        height = data.draw(hs.floats(2.0, 1e3)) * data.draw(
            hs.sampled_from([-1.0, 1.0]))
        u = 0.3 * np.sin(5.0 * x) + np.where(np.arange(n) > j, height, 0.0)
        window = (max(0, j + 1 - K), min(n, j + 1 + K))
        assert front_window(u) == window
        fields.append(u)
        speeds.append(_speed_layout(data, n, window))
        windows.append(window)
    got = weno5_upwind_derivative(fields, 0.01, speeds)
    for g, u, c, (a, b) in zip(got, fields, speeds, windows):
        inside = np.zeros(n, dtype=bool)
        inside[a:b] = True
        want = np.where(inside, two_face_reference(u, 0.01, c),
                        linear_reference(u, 0.01, c))
        assert np.array_equal(_bits(g), _bits(want))


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
    # a jump at x = 12.8 keeps the nonlinear faces there; the smooth nodes
    # left of x = 8 take the linear face and converge at fifth order
    errs = []
    for n in (128, 256, 512):
        x = np.linspace(0.0, 16.0, n + 1)
        dx = x[1] - x[0]
        u = np.sin(x) + np.where(x >= 12.8, 10.0, 0.0)
        a, _ = front_window(u)
        assert x[a] > 8.0
        (d,) = weno5_upwind_derivative([u], dx, [1.0])
        errs.append(np.max(np.abs(d - np.cos(x))[3:n // 2]))
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(orders > 4.7), orders


@pytest.mark.parametrize("n_cells", [2048])
def test_blowup_times_agree_with_all_weno_stepping(n_cells, monkeypatch):
    # the linear faces change the stepping at truncation level only: over
    # the resolution window T* and the refined T* move by ~1e-14 relative
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "theorem_a1.json")
    cfg = ExperimentConfig.load(path).solver.replace(n_cells=n_cells)
    hybrid = eq.run_until_blowup(cfg)

    def all_weno(fields, dx, speeds):
        return [two_face_reference(u, dx, c) for u, c in zip(fields, speeds)]

    monkeypatch.setattr(eq, "weno5_upwind_derivative", all_weno)
    reference = eq.run_until_blowup(cfg)
    assert hybrid.status == reference.status == "blew_up"
    T, T_ref = (dg.blowup_time(r)[0] for r in (hybrid, reference))
    assert abs(T - T_ref) <= 1e-8 * T_ref
    Tr, Tr_ref = (dg.blowup_time_refined(r) for r in (hybrid, reference))
    assert abs(Tr - Tr_ref) <= 1e-11 * Tr_ref
