"""Finite-difference kernels: a fifth-order upwind first derivative for
transport terms and centered fourth-order stencils for diagnostics.

All kernels assume a uniform grid and use edge-replicated ghost cells, which
is exact while the fields are constant near the boundary (finite propagation
keeps the active region interior; a run records when its deviation support
first comes within the WENO5 stencil reach of an edge as `edge_contact_t`).
"""

from __future__ import annotations

import numpy as np

_LINEAR = np.array([2.0, -13.0, 47.0, 27.0, -3.0]) / 60.0


def _pad_edge(u, k):
    """Edge-replicate k ghost nodes at each end of a 1-D field."""
    return np.concatenate([np.full(k, u[0]), u, np.full(k, u[-1])])


def _slopes(u, dx):
    """d[j] = (up[j+1] - up[j]) / dx over u edge-padded with 3 ghost nodes,
    differenced straight into the result without forming the padding."""
    d = np.empty(u.size + 5, dtype=np.result_type(u, dx))
    d[:3] = (u[0] - u[0]) / dx
    inner = d[3:-3]
    np.subtract(u[1:], u[:-1], out=inner)
    np.divide(inner, dx, out=inner)
    d[-3:] = (u[-1] - u[-1]) / dx
    return d


def _linear_face(d, left):
    """The WENO5 face at its optimal weights 0.1/0.6/0.3, i.e. the linear
    fifth-order upwind stencil (2 v1 - 13 v2 + 47 v3 + 27 v4 - 3 v5) / 60,
    at every node.  The right-leaning face correlates the reversed slopes,
    so that it is the exact mirror image of the left-leaning one."""
    if left:
        return np.correlate(d[:-1], _LINEAR)
    return np.correlate(d[:0:-1], _LINEAR)[::-1]


def _upwind(speed, shape, face):
    """face(True) where speed >= 0 and face(False) elsewhere, NaN included,
    forming only the faces that some node takes.  The one-sign tests come
    first; a NaN fails both, so its field forms the mask, in which it leans
    right."""
    speed = np.asarray(speed)
    if speed.min() >= 0.0:
        return face(True)
    if speed.max() < 0.0:
        return face(False)
    left = np.greater_equal(speed, 0.0, out=np.empty(shape, dtype=bool))
    if not left.any():
        return face(False)
    return np.where(left, face(True), face(False))


def weno5_upwind_derivative(fields, dx, speeds):
    """d/dx at the nodes of each 1-D field, biased against its local
    transport direction; one derivative per field.

    speed >= 0 uses the left-leaning stencil, speed < 0 (or NaN) the
    right-leaning one; a scalar speed applies to every node.  Every node
    gets WENO5 at its optimal weights (Jiang & Shu 1996), i.e. the linear
    fifth-order upwind face.  A run stops at a resolved gradient, before
    any shock, so no node needs the nonlinear weights, which exist to
    capture discontinuities.
    """
    outs = []
    for u, speed in zip(fields, speeds):
        u = np.asarray(u)
        d = _slopes(u, dx)
        outs.append(_upwind(speed, u.shape, lambda lt: _linear_face(d, lt)))
    return outs


# Centred fourth-order stencils d^k u / dx^k, k = 1..4: the taps and the
# denominator (over dx^k) of one np.correlate over the field edge-padded by
# 3 nodes.  np.correlate sums its products left to right from +0.0, so the
# tap order fixes the rounding: k = 1, 2 sum from the right end of the
# stencil (over the reversed field), k = 3, 4 from the left end, as the
# explicit sums in tests/test_weno.py do.  An output whose every product is
# -0.0 comes out +0.0.  The zero taps of k = 1, 3 multiply the centre node,
# so a non-finite node makes its own derivative NaN too; a run stops with
# `numerical_failure` before it differences a non-finite field.
_C4 = {1: (np.array([-1.0, 8.0, 0.0, -8.0, 1.0]), 12.0),
       2: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]), 12.0),
       3: (np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]), 8.0),
       4: (np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]), 6.0)}


def _c4(up, k, dx):
    """d^k/dx^k of the field that `up` edge-pads by 3 nodes at each end."""
    taps, den = _C4[k]
    if k <= 2:
        return np.correlate(up[-2:0:-1], taps)[::-1] / (den * dx**k)
    return np.correlate(up, taps) / (den * dx**k)


def deriv1_c4(u, dx):
    return _c4(_pad_edge(np.asarray(u), 3), 1, dx)


def derivs_c4(u, dx):
    """[d^k u / dx^k for k = 1, 2, 3, 4] from one padded copy of u; the
    first is deriv1_c4(u, dx)."""
    up = _pad_edge(np.asarray(u), 3)
    return [_c4(up, k, dx) for k in (1, 2, 3, 4)]
