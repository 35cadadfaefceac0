"""Shock-adapted chart of the sphere: the straightening map, the pointwise
frame quantities, and their certified origin table.

Conventions: the sphere has radius r0, the chart projects from the north
pole (0, 0, r0) onto the tangent plane at the south pole, and the constant
skew generator Q = dO/dt^T O of the co-moving frame makes points co-rotate
as dx/dt = Q x in chart-fixed coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DerivationMismatchError(RuntimeError):
    """Analytic origin-table value disagrees with its finite-difference check."""


def validate_r0(r0):
    if not (r0 > 0 and r0 + 1.0 / r0 <= 100.0):
        raise ValueError(f"sphere radius out of range: r0 + 1/r0 must be <= 100, got r0={r0}")
    return float(r0)


def _check_skew(Q):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3) or not np.array_equal(Q, -Q.T):
        raise ValueError("Q must be an exactly skew-symmetric 3x3 matrix")
    return Q


def shock_coords_inverse(u_tilde, psi):
    """Undo the straightening: (u~1, u~2) -> (u~1 + psi u~2^2 / 2, u~2)."""
    u_tilde = np.asarray(u_tilde, dtype=float)
    return np.array([u_tilde[0] + 0.5 * psi * u_tilde[1] ** 2, u_tilde[1]])


@dataclass
class GeometryFrame:
    """All pointwise auxiliary quantities of the shock-adapted chart."""

    phi: float
    lam: float
    lam_bracket: float
    J: float
    g: np.ndarray
    h: np.ndarray
    u: np.ndarray
    u_tilde: np.ndarray
    psi: float
    psi_dot: float
    r0: float


def frame_at(u_tilde, psi, Q, psi_dot=0.0, r0=1.0) -> GeometryFrame:
    """Evaluate every frame quantity at a shock-adapted point."""
    r0 = validate_r0(r0)
    Q = _check_skew(Q)
    u_tilde = np.asarray(u_tilde, dtype=float)
    u = shock_coords_inverse(u_tilde, psi)
    u1, u2 = u

    phi = 4.0 * r0**2 / (u1 * u1 + u2 * u2 + 4.0 * r0**2)
    lam = psi * u_tilde[1]
    lb = np.sqrt(1.0 + lam * lam)
    J = lb / phi

    q13, q23, q12 = Q[0, 2], Q[1, 2], Q[0, 1]
    radial = (q13 * u1 + q23 * u2) / (2.0 * r0)
    g = np.array([
        -radial * u1 + q12 * u2 + q13 * r0 * (1.0 / phi - 2.0),
        -radial * u2 - q12 * u1 + q23 * r0 * (1.0 / phi - 2.0),
    ])
    h12 = q12 + (q13 * u2 - q23 * u1) / (2.0 * r0)
    h = np.array([[radial, h12], [-h12, radial]])

    return GeometryFrame(phi=float(phi), lam=float(lam), lam_bracket=float(lb),
                         J=float(J), g=g, h=h, u=u, u_tilde=u_tilde,
                         psi=psi, psi_dot=psi_dot, r0=r0)


def _origin_analytic(psi, Q, r0):
    q13, q23, q12 = Q[0, 2], Q[1, 2], Q[0, 1]
    half = 1.0 / (2.0 * r0)
    halfsq = 1.0 / (2.0 * r0**2)
    return {
        "d1 u1": 1.0, "d2 u1": 0.0, "d22 u1": psi, "d2 u2": 1.0, "d2 lambda": psi,
        "d1 u1sq": 0.0, "d11 u1sq": 2.0, "d2 u1sq": 0.0, "d12 u1sq": 0.0, "d22 u1sq": 0.0,
        "d1 usq": 0.0, "d2 usq": 0.0, "d11 usq": 2.0, "d12 usq": 0.0, "d22 usq": 2.0,
        "phi_inv": 1.0, "d1 phi_inv": 0.0, "d2 phi_inv": 0.0,
        "d11 phi_inv": halfsq, "d22 phi_inv": halfsq, "d12 phi_inv": 0.0,
        "lam_bracket": 1.0, "d2 lam_bracket": 0.0, "d22 lam_bracket": psi * psi,
        "J": 1.0, "d1 J": 0.0, "d2 J": 0.0,
        "d11 J": halfsq, "d12 J": 0.0, "d22 J": halfsq + psi * psi,
        "g1": -r0 * q13, "d1 g1": 0.0, "d2 g1": q12,
        "d11 g1": -q13 * half, "d12 g1": -q23 * half, "d22 g1": q13 * half,
        # d22 g2 picks up -psi*q12 from the chain rule d2~ = psi*u2~*du1 + du2
        "g2": -r0 * q23, "d1 g2": -q12, "d2 g2": 0.0,
        "d11 g2": q23 * half, "d12 g2": -q13 * half, "d22 g2": -q23 * half - psi * q12,
        "G": -r0 * q13, "d1 G": 0.0, "d2 G": q12 + psi * r0 * q23,
        "d11 G": -q13 * half, "d12 G": psi * q12 - q23 * half, "d22 G": q13 * half,
        "h11": 0.0, "h12": q12,
    }


def origin_derivative_table(psi, Q, r0=1.0, tol=1e-6, h=None):
    """Origin values/derivatives of the chart quantities, certified two ways.

    Every entry is computed analytically and by nested central differences of
    frame_at; a disagreement beyond tol raises DerivationMismatchError.
    G denotes the transport offset g1 - lambda*g2.  Returns
    {name: (analytic, finite_difference)}.
    """
    r0 = validate_r0(r0)
    Q = _check_skew(Q)
    if h is None:
        # eps^(1/4)-scale step: balances h^2 truncation against eps/h^2
        # roundoff for the second-difference entries; the psi-quartic in
        # u1(u~) caps the transverse step independently of r0
        h = min(1e-3 / max(1.0, abs(psi)), 1e-4 * max(1.0, r0))

    def fields(ut1, ut2):
        f = frame_at(np.array([ut1, ut2]), psi, Q, 0.0, r0)
        return {
            "u1": f.u[0], "u2": f.u[1], "lambda": f.lam,
            "u1sq": f.u[0] ** 2, "usq": f.u @ f.u,
            "phi_inv": 1.0 / f.phi, "lam_bracket": f.lam_bracket, "J": f.J,
            "g1": f.g[0], "g2": f.g[1], "G": f.g[0] - f.lam * f.g[1],
            "h11": f.h[0, 0], "h12": f.h[0, 1],
        }

    c = fields(0.0, 0.0)
    e1 = (fields(h, 0.0), fields(-h, 0.0))
    e2 = (fields(0.0, h), fields(0.0, -h))
    corners = (fields(h, h), fields(h, -h), fields(-h, h), fields(-h, -h))

    def fd(name, kind):
        if kind == "0":
            return c[name]
        if kind == "1":
            return (e1[0][name] - e1[1][name]) / (2 * h)
        if kind == "2":
            return (e2[0][name] - e2[1][name]) / (2 * h)
        if kind == "11":
            return (e1[0][name] - 2 * c[name] + e1[1][name]) / h**2
        if kind == "22":
            return (e2[0][name] - 2 * c[name] + e2[1][name]) / h**2
        if kind == "12":
            return (corners[0][name] - corners[1][name]
                    - corners[2][name] + corners[3][name]) / (4 * h**2)
        raise ValueError(kind)

    analytic = _origin_analytic(psi, Q, r0)
    eps = np.finfo(float).eps
    table = {}
    for name, ana in analytic.items():
        parts = name.split()
        if len(parts) == 1:
            field, num = parts[0], fd(parts[0], "0")
            denom = 1.0
        else:
            field, num = parts[1], fd(parts[1], parts[0][1:])
            denom = h if len(parts[0]) == 2 else h * h
        table[name] = (ana, num)
        # gate = truncation tolerance plus the stencil's intrinsic roundoff
        fieldscale = max(abs(c[field]), abs(e1[0][field]), abs(e2[0][field]), 1.0)
        budget = tol * max(1.0, abs(ana)) + 16.0 * eps * fieldscale / denom
        if abs(ana - num) > budget:
            raise DerivationMismatchError(
                f"origin table entry {name!r}: analytic {ana!r} vs finite-difference {num!r}")
    return table
