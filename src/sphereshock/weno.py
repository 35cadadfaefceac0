"""Finite-difference kernels: a fifth-order upwind first derivative for
transport terms (nonlinear WENO5 weights at the front, linear elsewhere) and
centered fourth-order stencils for diagnostics.

All kernels assume a uniform grid and use edge-replicated ghost cells, which
is exact while the fields are constant near the boundary (finite propagation
keeps the active region interior; a run records when its deviation support
first comes within the WENO5 stencil reach of an edge as `edge_contact_t`).
"""

from __future__ import annotations

import numpy as np

_WENO_EPS = 1e-40
_GAMMAS = (0.1, 0.6, 0.3)
_LINEAR = np.array([2.0, -13.0, 47.0, 27.0, -3.0]) / 60.0
# nodes on each side of the steepest interval that keep the nonlinear
# weights.  Beyond +-32 nodes the WENO5 and linear faces of w differ by at
# most 1.1e-8 of max|dw/dx| in configs/theorem_a1.json at 4096 cells and
# 5.3e-8 in configs/flat_oracle.json (7.3e-7 there at +-16, 3.6e-5 at +-8)
FRONT_HALF_WIDTH = 32


def _weno5_face(v1, v2, v3, v4, v5):
    """Classic WENO5 reconstruction from five upwind-ordered slopes."""
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


def _pad_edge(u, k):
    """Edge-replicate k ghost nodes at each end of a 1-D field."""
    return np.concatenate([np.full(k, u[0]), u, np.full(k, u[-1])])


def _span(mask):
    """[first, last + 1) of the True entries of a 1-D mask, or None."""
    if not mask.size:
        return None
    first = int(mask.argmax())
    if not mask[first]:
        return None
    return first, mask.size - int(mask[::-1].argmax())


def front_window(u):
    """[a, b): the nodes within FRONT_HALF_WIDTH of the steepest interval of
    a 1-D field, where the nonlinear WENO5 weights are kept.

    Interval j lies between nodes j and j + 1.  The window runs from
    FRONT_HALF_WIDTH nodes left of the first interval attaining max|du| to
    FRONT_HALF_WIDTH nodes right of the last one, so the mirrored field gets
    the mirrored window, ties included.  A constant field has no front and
    gets the empty window (0, 0).
    """
    du = np.abs(np.diff(u))
    span = _span(du == du.max())
    if span is None or du[span[0]] == 0.0:
        return 0, 0
    first, stop = span
    return (max(0, first + 1 - FRONT_HALF_WIDTH),
            min(u.size, stop + FRONT_HALF_WIDTH))


def _linear_face(d, a, b, left):
    """The WENO5 face at its optimal weights 0.1/0.6/0.3, i.e. the linear
    fifth-order upwind stencil (2 v1 - 13 v2 + 47 v3 + 27 v4 - 3 v5) / 60,
    at nodes a..b-1.  The right-leaning face correlates the reversed slopes,
    so that it is the exact mirror image of the left-leaning one."""
    if left:
        return np.correlate(d[a:b + 4], _LINEAR)
    return np.correlate(d[a + 1:b + 5][::-1], _LINEAR)[::-1]


def _nonlinear_face(d, a, b, left):
    """The WENO5 face at nodes a..b-1."""
    ks = (0, 1, 2, 3, 4) if left else (5, 4, 3, 2, 1)
    return _weno5_face(*(d[k + a:k + b] for k in ks))


def _upwind(out, d, pos, a, b, face):
    """Write the faces of nodes a..b-1 into out[a:b]: the left-leaning one
    where pos, the right-leaning one elsewhere.  Each is evaluated only over
    the index span from the first to the last node that uses it; the left
    face fills its whole span and the right face then overwrites the nodes
    of its own span whose speed is negative."""
    span = _span(pos[a:b])
    if span is not None:
        lo, hi = span
        out[a + lo:a + hi] = face(d, a + lo, a + hi, True)
    neg = ~pos[a:b]
    span = _span(neg)
    if span is not None:
        lo, hi = span
        np.copyto(out[a + lo:a + hi], face(d, a + lo, a + hi, False),
                  where=neg[lo:hi])


def weno5_upwind_derivative(u, dx, speed):
    """du/dx at the nodes of a 1-D field, biased against the local transport
    direction.

    speed >= 0 uses the left-leaning stencil, speed < 0 (or NaN) the
    right-leaning one; a scalar speed applies to every node.  Every node
    gets the linear fifth-order face; the nonlinear WENO5 face then
    overwrites it on the `front_window` of u.  Away from the front the field
    is smooth, and there the WENO5 weights equal the optimal ones up to
    O(dx^2) (Jiang & Shu 1996), so the two faces agree to truncation level.
    """
    u = np.asarray(u)
    up = _pad_edge(u, 3)
    d = np.diff(up) / dx  # d[j] = (up[j+1] - up[j]) / dx
    pos = np.greater_equal(speed, 0.0, out=np.empty(u.shape, dtype=bool))
    out = np.empty_like(d, shape=u.shape)
    # node i sits at padded index i + 3; d[i + 2] = (u[i] - u[i-1]) / dx.
    _upwind(out, d, pos, 0, u.size, _linear_face)
    _upwind(out, d, pos, *front_window(u), _nonlinear_face)
    return out


def deriv1_c4(u, dx):
    up = _pad_edge(np.asarray(u), 2)
    return (-up[4:] + 8 * up[3:-1] - 8 * up[1:-3]
            + up[:-4]) / (12.0 * dx)


def deriv2_c4(u, dx):
    up = _pad_edge(np.asarray(u), 2)
    return (-up[4:] + 16 * up[3:-1] - 30 * up[2:-2]
            + 16 * up[1:-3] - up[:-4]) / (12.0 * dx**2)


def deriv3_c4(u, dx):
    up = _pad_edge(np.asarray(u), 3)
    return (up[:-6] - 8 * up[1:-5] + 13 * up[2:-4]
            - 13 * up[4:-2] + 8 * up[5:-1] - up[6:]) / (8.0 * dx**3)


def deriv4_c4(u, dx):
    up = _pad_edge(np.asarray(u), 3)
    return (-up[:-6] + 12 * up[1:-5] - 39 * up[2:-4]
            + 56 * up[3:-3] - 39 * up[4:-2] + 12 * up[5:-1]
            - up[6:]) / (6.0 * dx**4)


DERIVS_C4 = (deriv1_c4, deriv2_c4, deriv3_c4, deriv4_c4)
