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


# The WENO5 face (Jiang & Shu 1996) on the row triples (v_r, v_r+1, v_r+2),
# r = 0, 1, 2, of the five upwind-ordered slopes v1..v5: row r of each block
# of three is ((n0 v_r) / d0 + (n1 v_r+1) / d1) + (n2 v_r+2) / d2, the
# textbook's operations in the textbook's order, so that every bit matches it.
# Rows 0-2 are c_r = v_r - 2 v_r+1 + v_r+2, rows 3-5 the one-sided differences
# p_r (v1 - 4 v2 + 3 v3, v2 - v4, 3 v3 - 4 v4 + v5), rows 6-8 the candidate
# faces q_r; beta_r = 13/12 c_r^2 + 1/4 p_r^2.  p_1 carries 0 v3, which differs
# from the textbook only for v3 = +-inf, where both faces are NaN.
_TRIPLES = np.arange(9) % 3 + np.arange(3)[:, None]
_NUM = np.array([[1, 1, 1, 1, 1, 3, 1, -1, 1],
                 [-2, -2, -2, -4, 0, -4, -7, 5, 5],
                 [1, 1, 1, 3, -1, 1, 11, 1, -1]], dtype=float)[:, :, None]
_DEN = np.array([[3, 6, 3], [6, 6, 6], [6, 3, 6]], dtype=float)[:, :, None]
_BETA = np.repeat([13.0 / 12.0, 0.25], 3)[:, None]
_WEIGHTS = np.array(_GAMMAS)[:, None]
# offsets of node i's upwind stencil in the slopes d, from d[i]: the
# left-leaning face reads d[i], ..., d[i + 4], the right-leaning one
# d[i + 5], ..., d[i + 1], each upwind slope first
_LEFT = np.arange(5)[:, None]
_RIGHT = 5 - _LEFT


def _weno5_face(v):
    """WENO5 reconstruction from a (5, m) array of upwind-ordered slopes,
    one node per column: the textbook formula's value bit for bit, NaN where
    it is NaN, and each column's face independent of the others."""
    x = v[_TRIPLES]
    x *= _NUM
    x[:, 6:] /= _DEN
    rows = x[0] + x[1]
    rows += x[2]
    cp = rows[:6]
    cp *= cp
    cp *= _BETA
    a = cp[:3] + cp[3:]
    a += _WENO_EPS
    a *= a
    np.divide(_WEIGHTS, a, out=a)
    q = rows[6:]
    q *= a
    # row sums in the textbook's order; np.add.reduce would start from +0
    # and turn a face of -0 into +0
    return (q[0] + q[1] + q[2]) / (a[0] + a[1] + a[2])


def _pad_edge(u, k):
    """Edge-replicate k ghost nodes at each end of a 1-D field."""
    return np.concatenate([np.full(k, u[0]), u, np.full(k, u[-1])])


def front_window(u):
    """[a, b): the nodes within FRONT_HALF_WIDTH of the steepest interval of
    a 1-D field, where the nonlinear WENO5 weights are kept.

    Interval j lies between nodes j and j + 1.  The window runs from
    FRONT_HALF_WIDTH nodes left of the first interval attaining max|du| to
    FRONT_HALF_WIDTH nodes right of the last one, so the mirrored field gets
    the mirrored window, ties included.  A constant field has no front and
    gets the empty window (0, 0), as does a field with a NaN interval.
    """
    return _window(np.abs(np.diff(u)))


def _window(du):
    """front_window of the field whose interval magnitudes are du."""
    first = int(du.argmax())  # the first maximum, or the first NaN
    if not du[first] > 0.0:
        return 0, 0
    stop = du.size - int(du[::-1].argmax())  # after the last maximum
    return (max(0, first + 1 - FRONT_HALF_WIDTH),
            min(du.size + 1, stop + FRONT_HALF_WIDTH))


def _slopes(u, dx):
    """(d, du): d[j] = (up[j+1] - up[j]) / dx over u edge-padded with 3
    ghost nodes, built from du = diff(u) without forming the padding."""
    du = np.diff(u)
    d = np.empty(u.size + 5, dtype=np.result_type(du, dx))
    d[:3] = (u[0] - u[0]) / dx
    np.divide(du, dx, out=d[3:-3])
    d[-3:] = (u[-1] - u[-1]) / dx
    return d, du


def _linear_face(d, left):
    """The WENO5 face at its optimal weights 0.1/0.6/0.3, i.e. the linear
    fifth-order upwind stencil (2 v1 - 13 v2 + 47 v3 + 27 v4 - 3 v5) / 60,
    at every node.  The right-leaning face correlates the reversed slopes,
    so that it is the exact mirror image of the left-leaning one."""
    if left:
        return np.correlate(d[:-1], _LINEAR)
    return np.correlate(d[:0:-1], _LINEAR)[::-1]


def _upwind(left, face):
    """face(True) where `left` holds and face(False) elsewhere, forming only
    the faces that some node takes."""
    if left.all():
        return face(True)
    if not left.any():
        return face(False)
    return np.where(left, face(True), face(False))


def weno5_upwind_derivative(fields, dx, speeds):
    """d/dx at the nodes of each 1-D field, biased against its local
    transport direction; one derivative per field.

    speed >= 0 uses the left-leaning stencil, speed < 0 (or NaN) the
    right-leaning one; a scalar speed applies to every node.  Every node
    gets the linear fifth-order face; the nonlinear WENO5 face then
    overwrites it on the `front_window` of its field.  Away from the front
    the field is smooth, and there the WENO5 weights equal the optimal ones
    up to O(dx^2) (Jiang & Shu 1996), so the two faces agree to truncation
    level.  Inside a window each node gathers the five slopes of its upwind
    stencil only, and the nodes of every window share one face call: the
    face is columnwise, so each derivative is bit-identical to the one of
    its field alone, and the per-call cost is paid once.
    """
    outs, slopes, windows = [], [], []
    for u, speed in zip(fields, speeds):
        u = np.asarray(u)
        d, du = _slopes(u, dx)
        left = np.greater_equal(speed, 0.0, out=np.empty(u.shape, dtype=bool))
        out = _upwind(left, lambda lt: _linear_face(d, lt))
        a, b = _window(np.abs(du))
        if a < b:
            # node i sits at padded index i + 3 and takes its upwind face only
            slopes.append(d[np.where(left[a:b], _LEFT, _RIGHT) + np.arange(a, b)])
            windows.append((out, a, b))
        outs.append(out)
    if slopes:
        faces = _weno5_face(np.concatenate(slopes, axis=1))
        at = 0
        for out, a, b in windows:
            out[a:b] = faces[at:at + b - a]
            at += b - a
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
