import numpy as np
import pytest

from sphereshock import weno
from sphereshock.weno import _pad_edge, _weno5_face, weno5_upwind_derivative

N = 512


def two_face_reference(u, dx, speed):
    """Both faces on every node, then one picked per node by the sign."""
    d = np.diff(_pad_edge(np.asarray(u), 3)) / dx
    n = len(u)
    left = _weno5_face(d[0:n], d[1:n + 1], d[2:n + 2], d[3:n + 3], d[4:n + 4])
    right = _weno5_face(d[5:n + 5], d[4:n + 4], d[3:n + 3], d[2:n + 2],
                        d[1:n + 1])
    return np.where(np.asarray(speed) >= 0.0, left, right)


def _field():
    x = np.linspace(-1.0, 1.0, N)
    rng = np.random.default_rng(7)
    return np.tanh(8.0 * x) + 0.3 * np.sin(5.0 * x) + 1e-3 * rng.standard_normal(N)


def _quarters(signs):
    return np.repeat(np.asarray(signs, dtype=float), N // len(signs))


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
def test_bit_identical_to_two_face_formula(name):
    u = _field()
    speed = SPEEDS[name]()
    got = weno5_upwind_derivative(u, 0.01, speed)
    ref = two_face_reference(u, 0.01, speed)
    assert got.shape == ref.shape == u.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_constant_field_has_zero_derivative():
    u = np.full(N, 0.8)
    for speed in (_quarters([-1.0, 1.0, -1.0, 1.0]), 1.0, -1.0):
        got = weno5_upwind_derivative(u, 0.01, speed)
        ref = two_face_reference(u, 0.01, speed)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.all(got == 0.0)


@pytest.fixture
def reconstructed_nodes(monkeypatch):
    count = [0]

    def counting_face(v1, v2, v3, v4, v5):
        count[0] += len(v1)
        return _weno5_face(v1, v2, v3, v4, v5)

    monkeypatch.setattr(weno, "_weno5_face", counting_face)
    return count


@pytest.mark.parametrize("name", SPEEDS)
def test_faces_reconstructed_only_where_used(name, reconstructed_nodes):
    speed = SPEEDS[name]()
    weno5_upwind_derivative(_field(), 0.01, speed)
    pos = np.broadcast_to(np.asarray(speed) >= 0.0, (N,))
    if pos.all() or not pos.any():
        assert reconstructed_nodes[0] == N  # one face, not two
    else:
        assert N < reconstructed_nodes[0] <= 2 * N
    if name == "four_runs":
        assert reconstructed_nodes[0] == 3 * N // 2


def test_fifth_order_on_smooth_field():
    errs = []
    for n in (32, 64, 128):
        x = np.linspace(0.0, 1.0, n + 1)
        dx = x[1] - x[0]
        exact = np.cos(x + 0.5)
        # nodes 3..n-3 reach no ghost node with either stencil
        errs.append([np.max(np.abs(weno5_upwind_derivative(np.sin(x + 0.5), dx, s)
                                   - exact)[3:-3]) for s in (1.0, -1.0)])
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(orders > 4.7), orders
