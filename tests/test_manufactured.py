"""Curved stepping against an exact solution (method of manufactured
solutions; Roache, J. Fluids Eng. 124, 4, 2002).

A smooth (w*, z*) rides the background (sigma_inf, -sigma_inf): a resting
bump in w and a bump in z carried at z's background speed.  The residual
(S_w, S_z) it leaves in the equations is added to `equivariant.rhs`, which
`step` looks up on the module at every stage, on the nodes of its stepped
range; outside it the bumps' tails round to the background's bits, and the
source's step increments round away there.  So the stepped fields must
reproduce (w*, z*) to the scheme's formal order.  Over 256 -> 512 -> 1024
cells w converges at 4.98 and 5.01 (gamma = 3) and 5.01 and 4.67
(gamma = 2), near the fifth order of the space error.  z moves at Courant
number 1.5, so RK4's fourth-order time error takes over: 4.04 and 4.01,
and 4.06 and 4.01.
"""

import math

import numpy as np
import pytest

from sphereshock import equivariant as eq
from sphereshock.modulation import ModulationState
from sphereshock.riemann import betas

T_END = 0.004
WIDTH = 2e-3          # bump width; the domain is |theta_hat| <= 0.02
A_W, A_Z = 0.1, 0.05  # bump heights over the background
W_AT, Z_AT = -2e-3, 6e-3


def _bump(x):
    """exp(-x^2) and its x-derivative."""
    g = np.exp(-x * x)
    return g, -2.0 * x * g


class Manufactured:
    """(w*, z*) on the co-moving grid and the source that makes it exact."""

    def __init__(self, cfg):
        self.cfg, self.bc = cfg, betas(cfg.gamma)
        self.xi_dot = cfg.frame_drift()
        # z's transport speed on the background; w's is zero there
        self.vz = (self.bc.beta2 - 1.0) * cfg.sigma_inf - self.xi_dot

    def fields(self, grid, t):
        """(w, w_theta, w_t) and (z, z_theta, z_t) at time t."""
        gw, dgw = _bump((grid - W_AT) / WIDTH)
        gz, dgz = _bump((grid - Z_AT - self.vz * t) / WIDTH)
        s = self.cfg.sigma_inf
        return ((s + A_W * gw, A_W * dgw / WIDTH, 0.0 * gw),
                (-s + A_Z * gz, A_Z * dgz / WIDTH, -self.vz * A_Z * dgz / WIDTH))

    def source(self, grid, t):
        """w*_t + cw w*_theta - force and z*_t + cz z*_theta + force."""
        (w, wx, wt), (z, zx, zt) = self.fields(grid, t)
        cw, cz = eq.transport_speeds(w, z, self.bc.beta2, self.xi_dot)
        theta = grid + self.cfg.xi0 + self.xi_dot * t
        force = 0.5 * self.bc.beta3 * (w * w - z * z) * np.tan(theta)
        return wt + cw * wx - force, zt + cz * zx + force


def _errors(monkeypatch, gamma, n_cells):
    """max|w - w*| and max|z - z*| at T_END, stepping at the step limit."""
    cfg = eq.SolverConfig(gamma=gamma, n_cells=n_cells)
    bc = betas(gamma)
    exact = Manufactured(cfg)
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    (w, _, _), (z, _, _) = exact.fields(grid, 0.0)
    state = eq.EquivariantState(grid=grid, w=w, z=z, t_tilde=0.0)
    mod = ModulationState(kappa=cfg.kappa0, tau=cfg.tau0, xi=cfg.xi0,
                          t_tilde=0.0, xi_dot=exact.xi_dot)
    rhs = eq.rhs

    def forced(state, mod, bc, cfg, t=None, w=None, z=None, **kw):
        # step passes the nodes of its stepped range
        dw, dz = rhs(state, mod, bc, cfg, t, w, z, **kw)
        grid = state.grid[eq.stepped_range(state, cfg.sigma_inf)]
        sw, sz = exact.source(grid, state.t_tilde if t is None else t)
        return dw + sw, dz + sz

    with monkeypatch.context() as m:
        m.setattr(eq, "rhs", forced)
        while state.t_tilde < T_END * (1.0 - 1e-12):
            limit = eq.step_limit(state, mod, bc, cfg)
            state = eq.step(state, mod, min(limit.dt, T_END - state.t_tilde),
                            bc, cfg, check_support=False, limit=limit)
    (w, _, _), (z, _, _) = exact.fields(grid, state.t_tilde)
    return (float(np.max(np.abs(state.w - w))),
            float(np.max(np.abs(state.z - z)))), state.dx


@pytest.mark.parametrize("gamma", [3.0, 2.0])
def test_curved_step_converges_at_fourth_order_or_better(monkeypatch, gamma):
    runs = [_errors(monkeypatch, gamma, n) for n in (256, 512, 1024)]
    for (coarse, dx_c), (fine, dx_f) in zip(runs, runs[1:]):
        for e_c, e_f, name in zip(coarse, fine, "wz"):
            order = math.log(e_c / e_f) / math.log(dx_c / dx_f)
            assert order >= 4.0, (name, coarse, fine, order)
