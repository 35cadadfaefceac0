"""Riemann-variable algebra for the symmetric-hyperbolic sphere system.

Covers the physical <-> Riemann variable transforms, assembly of the
transport matrices in chart and shock-adapted coordinates, the
diagonalizing similarity, and the forcing vectors along two independent
code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryFrame


@dataclass(frozen=True)
class BetaConstants:
    alpha: float
    beta1: float
    beta2: float
    beta3: float


def betas(gamma) -> BetaConstants:
    """Transport constants derived from the adiabatic index gamma > 1."""
    if not gamma > 1.0:
        raise ValueError(f"adiabatic index must exceed 1, got {gamma}")
    alpha = 0.5 * (gamma - 1.0)
    return BetaConstants(alpha=alpha,
                         beta1=1.0 / (1.0 + alpha),
                         beta2=(1.0 - alpha) / (1.0 + alpha),
                         beta3=alpha / (1.0 + alpha))


@dataclass
class PhysVars:
    """Velocity components in the orthonormal chart frame plus sound speed."""

    V1: float
    V2: float
    S: float

    def as_vector(self):
        return np.array([self.V1, self.V2, self.S], dtype=float)


@dataclass
class RiemannVars:
    w: float
    z: float
    a: float


def lam_bracket(lam):
    return np.sqrt(1.0 + lam * lam)


def to_riemann(P: PhysVars, lam) -> RiemannVars:
    lb = lam_bracket(lam)
    vn = (P.V1 - lam * P.V2) / lb
    return RiemannVars(w=vn + P.S, z=vn - P.S, a=(lam * P.V1 + P.V2) / lb)


def to_phys(R: RiemannVars, lam) -> PhysVars:
    lb = lam_bracket(lam)
    vn = 0.5 * (R.w + R.z)
    return PhysVars(V1=(vn + lam * R.a) / lb,
                    V2=(-lam * vn + R.a) / lb,
                    S=0.5 * (R.w - R.z))


def b_matrix(lam):
    """Diagonalizing map R = B P; depends on lambda only."""
    lb = lam_bracket(lam)
    return np.array([[1 / lb, -lam / lb, 1.0],
                     [1 / lb, -lam / lb, -1.0],
                     [lam / lb, 1 / lb, 0.0]])


def b_matrix_inv(lam):
    """Closed-form inverse of b_matrix."""
    lb = lam_bracket(lam)
    return np.array([[0.5 / lb, 0.5 / lb, lam / lb],
                     [-0.5 * lam / lb, -0.5 * lam / lb, 1 / lb],
                     [0.5, -0.5, 0.0]])


def b_matrix_dlam(lam):
    """d/dlambda of b_matrix (for the time/transverse derivatives of B)."""
    lb3 = lam_bracket(lam) ** 3
    return np.array([[-lam / lb3, -1 / lb3, 0.0],
                     [-lam / lb3, -1 / lb3, 0.0],
                     [1 / lb3, -lam / lb3, 0.0]])


@dataclass
class SystemMatrices:
    D_P: np.ndarray
    A_P_u1: np.ndarray
    A_P_u2: np.ndarray
    A_P_u1t: np.ndarray
    A_P_u2t: np.ndarray
    B: np.ndarray
    B_inv: np.ndarray
    D_R: np.ndarray
    A_R_u1t: np.ndarray
    A_R_u2t: np.ndarray
    F_R: np.ndarray


_M1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
_M2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def f_p(P: PhysVars, frame: GeometryFrame, bc: BetaConstants):
    """Forcing vector of the symmetric-hyperbolic chart system."""
    u, g, phi, r0 = frame.u, frame.g, frame.phi, frame.r0
    vsq = P.V1 * P.V1 + P.V2 * P.V2
    m = u[0] * (g[0] - 2 * bc.beta1 * P.V1 / phi) + u[1] * (g[1] - 2 * bc.beta1 * P.V2 / phi)
    uv = u[0] * P.V1 + u[1] * P.V2
    return np.array([
        -bc.beta1 / r0**2 * u[0] * vsq - phi / (2 * r0**2) * P.V1 * m,
        -bc.beta1 / r0**2 * u[1] * vsq - phi / (2 * r0**2) * P.V2 * m,
        bc.beta3 / r0**2 * uv * P.S,
    ])


def f_r_direct(P: PhysVars, frame: GeometryFrame, bc: BetaConstants):
    """Forcing vector of the diagonalized system, coded from its expansion.

    Note: in the second (curvature) block both w- and z-rows carry +g2 in
    the bracket; the similarity cross-check f_r_from_fp pins this down.
    """
    u, g, phi, r0 = frame.u, frame.g, frame.phi, frame.r0
    lam, lb = frame.lam, frame.lam_bracket
    psi, psi_dot, ut2 = frame.psi, frame.psi_dot, frame.u_tilde[1]
    R = to_riemann(P, lam)
    w, z, a = R.w, R.z, R.a
    vsq = P.V1 * P.V1 + P.V2 * P.V2
    m = u[0] * (g[0] - 2 * bc.beta1 * P.V1 / phi) + u[1] * (g[1] - 2 * bc.beta1 * P.V2 / phi)
    uv = u[0] * P.V1 + u[1] * P.V2

    base = np.array([
        -bc.beta1 * vsq * (u[0] - lam * u[1]) / (r0**2 * lb)
        - phi * (P.V1 - lam * P.V2) / (2 * r0**2 * lb) * m
        + bc.beta3 / r0**2 * uv * P.S,
        -bc.beta1 * vsq * (u[0] - lam * u[1]) / (r0**2 * lb)
        - phi * (P.V1 - lam * P.V2) / (2 * r0**2 * lb) * m
        - bc.beta3 / r0**2 * uv * P.S,
        -bc.beta1 * vsq * (lam * u[0] + u[1]) / (r0**2 * lb)
        - phi * (lam * P.V1 + P.V2) / (2 * r0**2 * lb) * m,
    ])

    sv = bc.beta3 * P.S / (phi * lb)
    curv = np.array([
        -(2 * bc.beta1 / phi * (P.V2 - bc.alpha * lam * P.S / lb) + g[1]) * a + sv * (w + z),
        -(2 * bc.beta1 / phi * (P.V2 + bc.alpha * lam * P.S / lb) + g[1]) * a - sv * (w + z),
        (2 * bc.beta1 / phi * P.V2 + g[1]) * 0.5 * (w + z),
    ])

    rot = np.array([-a, -a, 0.5 * (w + z)])
    return base + curv * psi / lb**2 + rot * ut2 * psi_dot / lb**2


def f_r_from_fp(P: PhysVars, frame: GeometryFrame, bc: BetaConstants):
    """Independent F_R path: B F_P + (dB/dt + A_{R,u2~} d2~ B) P."""
    lam = frame.lam
    dB = b_matrix_dlam(lam)
    A_R_u2t = assemble_matrices(P, frame, bc).A_R_u2t
    dt_B = dB * frame.u_tilde[1] * frame.psi_dot
    d2_B = dB * frame.psi
    return b_matrix(lam) @ f_p(P, frame, bc) + (dt_B + A_R_u2t @ d2_B) @ P.as_vector()


def assemble_matrices(P: PhysVars, frame: GeometryFrame, bc: BetaConstants) -> SystemMatrices:
    """All transport/damping/forcing blocks of the chart and Riemann systems."""
    phi, lam, lb = frame.phi, frame.lam, frame.lam_bracket
    g, h = frame.g, frame.h
    psi_dot, ut2 = frame.psi_dot, frame.u_tilde[1]

    D_P = np.array([[h[0, 0], h[1, 0], 0.0],
                    [h[0, 1], h[1, 1], 0.0],
                    [0.0, 0.0, 0.0]])

    s_fac = 2 * bc.beta3 * P.S / phi
    A_P_u1 = (2 * bc.beta1 * P.V1 / phi + g[0]) * np.eye(3) + s_fac * _M1
    A_P_u2 = (2 * bc.beta1 * P.V2 / phi + g[1]) * np.eye(3) + s_fac * _M2

    shift = 0.5 * psi_dot * ut2**2
    A_P_u1t = A_P_u1 - lam * A_P_u2 - shift * np.eye(3)
    A_P_u2t = A_P_u2

    B = b_matrix(lam)
    B_inv = b_matrix_inv(lam)

    R = to_riemann(P, lam)
    scalar = (g[0] - lam * g[1]) - shift
    A_R_u1t = frame.J * np.diag([R.w + bc.beta2 * R.z,
                                 bc.beta2 * R.w + R.z,
                                 bc.beta1 * (R.w + R.z)]) + scalar * np.eye(3)
    A_R_u2t = (2 * bc.beta1 * P.V2 / phi + g[1]) * np.eye(3) \
        + (2 * bc.beta3 * P.S / (phi * lb)) * np.array([[-lam, 0.0, 1.0],
                                                        [0.0, lam, -1.0],
                                                        [0.5, -0.5, 0.0]])

    # conjugation is the defining relation for the Riemann damping block
    D_R = B @ D_P @ B_inv

    return SystemMatrices(D_P=D_P, A_P_u1=A_P_u1, A_P_u2=A_P_u2,
                          A_P_u1t=A_P_u1t, A_P_u2t=A_P_u2t,
                          B=B, B_inv=B_inv, D_R=D_R,
                          A_R_u1t=A_R_u1t, A_R_u2t=A_R_u2t,
                          F_R=f_r_direct(P, frame, bc))


def similarity_defects(mats: SystemMatrices):
    """Max-norm residuals of the three similarity identities (should be ~0)."""
    d1 = np.max(np.abs(mats.A_R_u1t - mats.B @ mats.A_P_u1t @ mats.B_inv))
    d2 = np.max(np.abs(mats.A_R_u2t - mats.B @ mats.A_P_u2t @ mats.B_inv))
    dd = np.max(np.abs(mats.D_R - mats.B @ mats.D_P @ mats.B_inv))
    return d1, d2, dd
