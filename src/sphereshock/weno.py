"""Finite-difference kernels: WENO5 upwind first derivative for transport
terms and centered fourth-order stencils for diagnostics.

All kernels assume a uniform grid and use edge-replicated ghost cells, which
is exact while the fields are constant near the boundary (finite propagation
keeps the active region interior; a run records when its deviation support
first comes within the WENO5 stencil reach of an edge as `edge_contact_t`).
"""

from __future__ import annotations

import numpy as np

_WENO_EPS = 1e-40
_GAMMAS = (0.1, 0.6, 0.3)


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
    """Edge-replicate k ghost nodes along the last axis (1D or stacked rows)."""
    lead = u[..., :1]
    tail = u[..., -1:]
    reps = (1,) * (u.ndim - 1) + (k,)
    return np.concatenate([np.tile(lead, reps), u, np.tile(tail, reps)], axis=-1)


def _span(mask):
    """[first, last + 1) of the True entries of a 1-D mask, or None."""
    first = int(mask.argmax())
    if not mask[first]:
        return None
    return first, mask.size - int(mask[::-1].argmax())


def weno5_upwind_derivative(u, dx, speed):
    """du/dx at the nodes of a 1-D field, biased against the local transport
    direction.

    speed >= 0 uses the left-leaning stencil, speed < 0 (or NaN) the
    right-leaning one; a scalar speed applies to every node.  Each face is
    reconstructed only over the index span from the first to the last node
    that uses it, so a one-signed speed costs one face, and every node gets
    the same arithmetic as a full-grid face would give it.
    """
    u = np.asarray(u)
    up = _pad_edge(u, 3)
    d = np.diff(up) / dx  # d[j] = (up[j+1] - up[j]) / dx
    pos = np.greater_equal(speed, 0.0, out=np.empty(u.shape, dtype=bool))
    out = np.empty_like(d, shape=u.shape)
    # node i sits at padded index i + 3; d[i + 2] = (u[i] - u[i-1]) / dx.
    # The left face fills its whole span; the right face then overwrites
    # the nodes of its own span whose speed is negative.
    span = _span(pos)
    if span is not None:
        a, b = span
        out[a:b] = _weno5_face(*(d[k + a:k + b] for k in (0, 1, 2, 3, 4)))
    neg = ~pos
    span = _span(neg)
    if span is not None:
        a, b = span
        np.copyto(out[a:b], _weno5_face(*(d[k + a:k + b] for k in (5, 4, 3, 2, 1))),
                  where=neg[a:b])
    return out


def deriv1_c4(u, dx):
    up = _pad_edge(np.asarray(u), 2)
    return (-up[..., 4:] + 8 * up[..., 3:-1] - 8 * up[..., 1:-3]
            + up[..., :-4]) / (12.0 * dx)


def deriv2_c4(u, dx):
    up = _pad_edge(np.asarray(u), 2)
    return (-up[..., 4:] + 16 * up[..., 3:-1] - 30 * up[..., 2:-2]
            + 16 * up[..., 1:-3] - up[..., :-4]) / (12.0 * dx**2)


def deriv3_c4(u, dx):
    up = _pad_edge(np.asarray(u), 3)
    return (up[..., :-6] - 8 * up[..., 1:-5] + 13 * up[..., 2:-4]
            - 13 * up[..., 4:-2] + 8 * up[..., 5:-1] - up[..., 6:]) / (8.0 * dx**3)


def deriv4_c4(u, dx):
    up = _pad_edge(np.asarray(u), 3)
    return (-up[..., :-6] + 12 * up[..., 1:-5] - 39 * up[..., 2:-4]
            + 56 * up[..., 3:-3] - 39 * up[..., 4:-2] + 12 * up[..., 5:-1]
            - up[..., 6:]) / (6.0 * dx**4)


DERIVS_C4 = (deriv1_c4, deriv2_c4, deriv3_c4, deriv4_c4)
