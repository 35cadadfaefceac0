import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereshock import geometry as geo


def skew(q12, q13, q23):
    return np.array([[0.0, q12, q13], [-q12, 0.0, q23], [-q13, -q23, 0.0]])


def random_skew(rng, scale=1.0):
    q = rng.uniform(-scale, scale, 3)
    return skew(*q)


def test_shock_coords_examples_and_inverse():
    assert np.allclose(geo.shock_coords_inverse([-1.0, 2.0], 1.0), [1.0, 2.0])


def test_frame_at_origin_values():
    psi = 1.3
    Q = skew(0.4, -0.2, 0.9)
    r0 = 1.7
    f = geo.frame_at([0.0, 0.0], psi, Q, 0.0, r0)
    assert f.J == pytest.approx(1.0)
    assert f.lam_bracket == pytest.approx(1.0)
    assert f.g[0] == pytest.approx(-r0 * Q[0, 2])
    assert f.g[1] == pytest.approx(-r0 * Q[1, 2])
    assert f.h[0, 1] == pytest.approx(Q[0, 1])


def test_frame_at_flat_reduction():
    f = geo.frame_at([0.8, -0.3], 0.0, np.zeros((3, 3)), 0.0, 2.0)
    assert f.lam == 0.0
    assert np.allclose(f.g, 0.0) and np.allclose(f.h, 0.0)


@settings(max_examples=80)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-10, 10),
       st.floats(0.2, 5.0), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_frame_identities(ut1, ut2, psi, r0, q12, q13, q23):
    f = geo.frame_at([ut1, ut2], psi, skew(q12, q13, q23), 0.0, r0)
    assert f.h[0, 0] == f.h[1, 1] and f.h[0, 1] == -f.h[1, 0]
    assert f.J * f.phi == pytest.approx(f.lam_bracket)


def test_frame_rejects_non_skew():
    with pytest.raises(ValueError):
        geo.frame_at([0, 0], 1.0, np.eye(3))


def test_origin_table_pinned_entries():
    psi, r0 = 0.8, 1.3
    Q = skew(0.5, -0.7, 0.2)
    tbl = geo.origin_derivative_table(psi, Q, r0)
    assert tbl["d11 J"][0] == pytest.approx(1 / (2 * r0**2))
    assert tbl["d22 J"][0] == pytest.approx(1 / (2 * r0**2) + psi**2)
    assert tbl["d2 G"][0] == pytest.approx(Q[0, 1] + psi * r0 * Q[1, 2])
    assert tbl["g1"][0] == pytest.approx(-r0 * Q[0, 2])


def test_origin_table_certification_100_draws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        psi = rng.uniform(-3, 3)
        Q = random_skew(rng, 1.0)
        r0 = rng.uniform(1 / 3, 3.0)
        geo.origin_derivative_table(psi, Q, r0)  # raises on mismatch


def test_origin_table_detects_corruption():
    # the finite-difference cross-check must flag a wrong analytic value
    from sphereshock.geometry import _origin_analytic

    good = _origin_analytic(1.0, skew(0.3, 0.2, -0.4), 1.0)
    assert good["d22 g2"] != good["d22 g1"]
    with pytest.raises(geo.DerivationMismatchError):
        geo.origin_derivative_table(1.0, skew(0.3, 0.2, -0.4), 1.0, tol=1e-12, h=1e-2)


def test_r0_validation():
    with pytest.raises(ValueError):
        geo.validate_r0(200.0)
    with pytest.raises(ValueError):
        geo.validate_r0(0.005)
    assert geo.validate_r0(1.0) == 1.0
