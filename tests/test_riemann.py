import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphereshock import geometry as geo
from sphereshock import riemann as rm


def skew(q12, q13, q23):
    return np.array([[0.0, q12, q13], [-q12, 0.0, q23], [-q13, -q23, 0.0]])


def random_state(rng):
    psi = rng.uniform(-3, 3)
    Q = skew(*rng.uniform(-1, 1, 3))
    frame = geo.frame_at(rng.uniform(-1, 1, 2), psi, Q, rng.uniform(-2, 2),
                         rng.uniform(0.5, 2.0))
    bc = rm.betas(rng.uniform(1.05, 4.0))
    P = rm.PhysVars(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 3.0))
    return P, frame, bc


def test_betas_gamma3():
    bc = rm.betas(3.0)
    assert (bc.alpha, bc.beta1, bc.beta2, bc.beta3) == (1.0, 0.5, 0.0, 0.5)


def test_betas_gamma_75():
    bc = rm.betas(7.0 / 5.0)
    assert bc.beta1 == pytest.approx(5.0 / 6.0)
    assert bc.beta2 == pytest.approx(2.0 / 3.0)
    assert bc.beta3 == pytest.approx(1.0 / 6.0)


def test_betas_rejects_bad_gamma():
    with pytest.raises(ValueError):
        rm.betas(1.0)


@given(st.floats(min_value=1.0001, max_value=50.0))
def test_beta_identities(gamma):
    bc = rm.betas(gamma)
    assert bc.beta2 + 2 * bc.beta3 == pytest.approx(1.0)
    assert bc.beta1 + bc.beta3 == pytest.approx(1.0)
    assert bc.beta1 * bc.alpha == pytest.approx(bc.beta3)


def test_to_riemann_examples():
    R = rm.to_riemann(rm.PhysVars(1.0, 0.0, 2.0), 0.0)
    assert (R.w, R.z, R.a) == pytest.approx((3.0, -1.0, 0.0))
    R = rm.to_riemann(rm.PhysVars(1.0, 1.0, 0.0), 1.0)
    assert (R.w, R.z, R.a) == pytest.approx((0.0, 0.0, np.sqrt(2.0)))


def test_to_phys_examples():
    P = rm.to_phys(rm.RiemannVars(3.0, -1.0, 0.0), 0.0)
    assert (P.V1, P.V2, P.S) == pytest.approx((1.0, 0.0, 2.0))
    P = rm.to_phys(rm.RiemannVars(0.0, 0.0, np.sqrt(2.0)), 1.0)
    assert (P.V1, P.V2, P.S) == pytest.approx((1.0, 1.0, 0.0))


def test_vacuum_boundary_flagged():
    R = rm.RiemannVars(1.0, 1.0, 0.3)
    assert rm.to_phys(R, 0.7).S == 0.0


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lam = rng.uniform(-5, 5)
        P = rm.PhysVars(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.0, 3.0))
        back = rm.to_phys(rm.to_riemann(P, lam), lam)
        assert abs(back.V1 - P.V1) < 1e-12
        assert abs(back.V2 - P.V2) < 1e-12
        assert abs(back.S - P.S) < 1e-12


def test_w_minus_z_is_twice_sigma():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lam = rng.uniform(-5, 5)
        P = rm.PhysVars(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.0, 3.0))
        R = rm.to_riemann(P, lam)
        assert R.w - R.z == pytest.approx(2 * P.S, abs=1e-14)


def test_b_matrix_inverse_closed_form():
    for lam in (-4.0, -0.3, 0.0, 0.7, 9.0):
        assert np.max(np.abs(rm.b_matrix(lam) @ rm.b_matrix_inv(lam) - np.eye(3))) < 1e-14


def test_b_matrix_dlam_matches_fd():
    h = 1e-6
    for lam in (-2.0, 0.0, 1.3):
        fd = (rm.b_matrix(lam + h) - rm.b_matrix(lam - h)) / (2 * h)
        assert np.max(np.abs(fd - rm.b_matrix_dlam(lam))) < 1e-8


def test_matrix_structure_invariants():
    rng = np.random.default_rng(13)
    for _ in range(200):
        P, frame, bc = random_state(rng)
        m = rm.assemble_matrices(P, frame, bc)
        assert np.allclose(m.A_P_u1, m.A_P_u1.T)
        assert np.allclose(m.A_P_u2, m.A_P_u2.T)
        assert np.allclose(m.A_R_u1t, np.diag(np.diag(m.A_R_u1t)))
        assert np.all(m.D_P[2] == 0.0)


def test_similarity_certification():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        P, frame, bc = random_state(rng)
        m = rm.assemble_matrices(P, frame, bc)
        worst = max(worst, max(rm.similarity_defects(m)))
    assert worst < 1e-10


def test_eigenvalue_multiset_agreement():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(1000):
        P, frame, bc = random_state(rng)
        m = rm.assemble_matrices(P, frame, bc)
        ev = np.sort(np.linalg.eigvals(m.A_P_u1t).real)
        worst = max(worst, np.max(np.abs(ev - np.sort(np.diag(m.A_R_u1t)))))
    assert worst < 1e-8


def test_A_R_u1t_diagonal_formula():
    rng = np.random.default_rng(16)
    for _ in range(100):
        P, frame, bc = random_state(rng)
        m = rm.assemble_matrices(P, frame, bc)
        R = rm.to_riemann(P, frame.lam)
        scalar = frame.g[0] - frame.lam * frame.g[1] - 0.5 * frame.psi_dot * frame.u_tilde[1] ** 2
        expect = frame.J * np.array([R.w + bc.beta2 * R.z,
                                     bc.beta2 * R.w + R.z,
                                     bc.beta1 * (R.w + R.z)])
        assert np.allclose(np.diag(m.A_R_u1t) - scalar, expect, atol=1e-12)


def test_A_P_u1t_flat_reduction():
    # lambda = 0, S = 0, g = 0, psi_dot = 0 leaves pure transport 2 b1 V1 I
    frame = geo.frame_at([0.0, 0.0], 0.0, np.zeros((3, 3)), 0.0, 1.0)
    bc = rm.betas(2.0)
    P = rm.PhysVars(1.7, -0.4, 0.0)
    m = rm.assemble_matrices(P, frame, bc)
    assert np.allclose(m.A_P_u1t, 2 * bc.beta1 * P.V1 * np.eye(3))


def test_forcing_dual_path_agreement():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(500):
        P, frame, bc = random_state(rng)
        m = rm.assemble_matrices(P, frame, bc)
        worst = max(worst, np.max(np.abs(m.F_R - rm.f_r_from_fp(P, frame, bc))))
    assert worst < 1e-10
