"""Dynamical core: the equivariant Riemann-variable system on a latitude
strip, integrated to a resolved gradient blow-up.

The co-moving grid coordinate is theta_hat = theta - xi0 - xi_dot * t with a
constant frame drift xi_dot (the leading modulation drift 2 beta3 kappa0, or
zero in flat mode); the exact curvature forcing uses the absolute latitude.
Modulation variables are tracked diagnostically from the fields and never
feed back into the discretization, keeping runs deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import profile
from .diagnostics import holder_seminorm
from .modulation import (DegenerateRhsError, ModulationState,
                         constraints_from_field, ode_rhs, track_extremal)
from .records import RunRecord
from .riemann import betas
from .selfsim import (BootstrapConstants, bootstrap_report,
                      normalization_check, profile_distance, to_selfsimilar)
from .util import bump, lagrange_value_and_derivs
from .weno import deriv1_c4, weno5_upwind_derivative


class ConfigError(ValueError):
    pass


class PoleProximityError(RuntimeError):
    pass


class CFLViolationError(ValueError):
    pass


class SupportGrowthError(RuntimeError):
    """The deviation support outran transport plus the stencil reach."""


class OracleDomainError(ValueError):
    pass


# Courant number of the stability bound on the fastest field: below the RK4
# limit of the linear fifth-order upwind operator, 1.732 (Motamed, Macdonald &
# Ruuth, J. Sci. Comput. 47, 2011); tests/test_equivariant.py recomputes it
RK4_COURANT = 1.5
SLOPE_DT_FRAC = 0.05             # dt <= SLOPE_DT_FRAC / max|slope|
DT_FLOOR = 1e-12                 # a smaller step bound stops the run: stalled
CUT_INNER, CUT_OUTER = 0.4, 1.0  # initial profile cutoff radii, units tau0^-1/2
POLE_MARGIN = math.pi / 16.0     # least distance of the domain from the pole
# largest grid: 8 MiB per field array; the work grows as n_cells^2, so far
# larger than any run that can finish
MAX_CELLS = 2**20
SUPPORT_TOL = 1e-11              # deviation from the background in the support
STENCIL_REACH_CELLS = 12.5       # support growth beyond transport (see step)
# nodes by which a step widens the state's window: four RK4 stages of the
# 3-node stencil reach, plus the 3 nodes at each unclipped end of the stepped
# range that stay at the background through stage 4, so that their
# edge-padded ghosts are the real neighbours
WINDOW_MARGIN = 4 * 3 + 3
# default blowup_slope_cap, as a fraction of the max slope (2 L / dx)^(2/3) at
# which the zoom frame can stretch the grid spacing past the compared window
# |y| <= L; at 0.9 of it runs of 1024 to 4096 cells still end unresolved
WINDOW_CAP_FRAC = 0.5


@dataclass
class SolverConfig:
    gamma: float = 3.0
    sigma_inf: float = 1.2
    xi0: float = math.pi / 12.0
    tau0: float = 1e-2
    n_cells: int = 4096
    cfl: float = 0.6
    flat_mode: bool = False
    blowup_slope_cap: float = None       # default WINDOW_CAP_FRAC (2L/dx)^(2/3)
    t_max: float = None                  # default 2 * tau0
    theta_min: float = None              # co-moving frame extent
    theta_max: float = None
    record_every: int = 4
    monitor_M: float = 100.0
    emit_selfsim_ds: float = None         # snapshot cadence in s; None = off

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.type == "float":  # a number, or None where that is the default
                ok = (v is None and f.default is None) or (
                    isinstance(v, (int, float)) and not isinstance(v, bool))
            else:  # bool is not an int here
                ok = type(v) is {"int": int, "bool": bool}[f.type]
            if not ok:
                raise ConfigError(f"{f.name} must be of type {f.type}")
        if not self.gamma > 1.0:
            raise ConfigError("gamma must exceed 1")
        if not 0 < self.cfl < 1:
            raise ConfigError("cfl must lie in (0, 1)")
        if self.n_cells < 64:
            raise ConfigError("n_cells too small")
        if self.n_cells > MAX_CELLS:
            raise ConfigError(f"n_cells={self.n_cells} exceeds {MAX_CELLS}")
        if not self.tau0 > 0:
            raise ConfigError("tau0 must be positive")
        if not self.record_every >= 1:
            raise ConfigError("record_every must be >= 1")
        if not 1.0 < self.monitor_M < math.inf:
            raise ConfigError("monitor_M must be finite and exceed 1")
        if self.emit_selfsim_ds is not None and not self.emit_selfsim_ds > 0:
            raise ConfigError("emit_selfsim_ds must be positive when set")
        if not math.pi / 16.0 <= self.xi0 <= math.pi / 8.0:
            raise ConfigError(f"xi0={self.xi0} outside [pi/16, pi/8]")
        if not self.sigma_inf < math.inf:
            raise ConfigError("sigma_inf must be finite")
        floor = self.xi0 ** (1.0 / 3.0) / (2.0 * betas(self.gamma).beta3)
        if not self.sigma_inf > floor:
            raise ConfigError(f"sigma_inf={self.sigma_inf} <= {floor:.4f} "
                              "(background too weak for the regime)")
        defaults = {
            "t_max": 2.0 * self.tau0,
            "theta_min": -2.0 * self.tau0,
            "theta_max": 2.0 * self.tau0 + (
                2.0 * self.sigma_inf * self.tau0 if self.flat_mode else 0.0),
        }
        self._derived = [k for k in defaults if getattr(self, k) is None]
        for k in self._derived:
            setattr(self, k, defaults[k])
        if not self.theta_min < 0 < self.theta_max:
            raise ConfigError("the co-moving domain must contain theta_hat = 0")
        if not self.flat_mode:
            # the absolute latitude grid + xi0 + drift t is affine in t, so
            # its extremes over a run are at the grid ends at t = 0 and t_max
            drift = self.frame_drift()
            reach = max(abs(edge + self.xi0 + drift * t)
                        for edge in (self.theta_min, self.theta_max)
                        for t in (0.0, self.t_max))
            if reach > 0.5 * math.pi - POLE_MARGIN:
                raise ConfigError(f"the domain reaches latitude {reach:.4g} by "
                                  "t_max, within the pole margin of pi/2")
        if self.blowup_slope_cap is None:
            # max slope ~ e^s and node spacing in y = dx e^{3s/2}
            L = BootstrapConstants(M=self.monitor_M, tau0=self.tau0,
                                   sigma_inf=self.sigma_inf).L
            grid = np.linspace(self.theta_min, self.theta_max, self.n_cells)
            dx = float(grid[1] - grid[0])  # initial_data's dx
            self._derived.append("blowup_slope_cap")
            self.blowup_slope_cap = WINDOW_CAP_FRAC * (2.0 * L / dx) ** (2.0 / 3.0)
        if not (self.blowup_slope_cap > 0 and self.t_max > 0):
            raise ConfigError("blowup_slope_cap and t_max must be positive")
        initial_data(self)  # refuses initial data that a run would refuse

    def replace(self, **changes):
        """Copy with changes; the fields left unset at construction are
        derived again from the new values instead of being copied."""
        return dataclasses.replace(
            self, **{**dict.fromkeys(self._derived), **changes})

    @property
    def kappa0(self):
        return self.sigma_inf

    def frame_drift(self):
        if self.flat_mode:
            return 0.0
        return 2.0 * betas(self.gamma).beta3 * self.kappa0


@dataclass
class EquivariantState:
    grid: np.ndarray      # co-moving theta_hat nodes, uniform
    w: np.ndarray
    z: np.ndarray
    t_tilde: float
    # [lo, hi): outside it w and z hold the background's bits (sigma_inf,
    # -sigma_inf), so that a step leaves them as they are.  Set by the step
    # that made this state; a state built from its fields, initial_data's
    # included, derives it from them on first use.  Writing to w or z in
    # place outside it breaks the invariant.
    window: tuple = dataclasses.field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def dx(self):
        return self.grid[1] - self.grid[0]


def _off_background(w, z, sigma_inf, at=0):
    """[lo, hi) + at around the nodes whose w or z is not the background's
    bits, NaN included.  An empty window is (at, at)."""
    off = np.flatnonzero((w != sigma_inf) | (z != -sigma_inf))
    if off.size == 0:
        return at, at
    return at + int(off[0]), at + int(off[-1]) + 1


def stepped_range(state: EquivariantState, sigma_inf) -> slice:
    """The nodes that a step of state updates and that the per-step
    reductions read: state.window, derived from the fields on first use,
    widened by WINDOW_MARGIN and clipped to the grid.  Every node outside it
    holds the background's bits, and so does each unclipped end of it."""
    if state.window is None:
        state.window = _off_background(state.w, state.z, sigma_inf)
    lo, hi = state.window
    return slice(max(lo - WINDOW_MARGIN, 0),
                 min(hi + WINDOW_MARGIN, state.grid.size))


def support_bounds(state: EquivariantState, sigma_inf):
    """Co-moving extent of the deviation from the background steady state,
    read on the stepped range: outside it the deviation is 0."""
    r = stepped_range(state, sigma_inf)
    dev = np.maximum(np.abs(state.w[r] - sigma_inf),
                     np.abs(state.z[r] + sigma_inf))
    idx = np.flatnonzero(dev > SUPPORT_TOL)
    if len(idx) == 0:
        return None, None
    return (float(state.grid[r.start + idx[0]]),
            float(state.grid[r.start + idx[-1]]))


def initial_data(cfg: SolverConfig) -> EquivariantState:
    """Profile-shaped pulse riding the background: w = kappa0 + e^{-s0/2}
    W0(theta e^{3 s0/2}) with W0 a smooth-bump-truncated 1D profile, z at
    the uniform background."""
    grid = np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_cells)
    s0 = -math.log(cfg.tau0)
    y = grid * math.exp(1.5 * s0)
    inner = CUT_INNER * cfg.tau0 ** -0.5
    outer = CUT_OUTER * cfg.tau0 ** -0.5
    support_half_width = outer * cfg.tau0 ** 1.5
    if support_half_width > cfg.xi0 / 10.0:
        raise ConfigError("initial support exceeds the xi0/10 window")
    dx = grid[1] - grid[0]
    if (support_half_width > cfg.theta_max - 4 * dx
            or -support_half_width < cfg.theta_min + 4 * dx):
        raise ConfigError("initial support does not fit inside the grid")
    w0 = profile.w1d(y) * bump(y, inner, outer)
    w = cfg.kappa0 + math.exp(-0.5 * s0) * w0
    if np.max(np.abs(deriv1_c4(w, dx))) >= cfg.blowup_slope_cap:
        raise ConfigError("the initial max slope reaches blowup_slope_cap")
    z = np.full_like(w, -cfg.sigma_inf)
    return EquivariantState(grid=grid, w=w, z=z, t_tilde=0.0)


def _speed(u, v, beta2, xi_dot):
    """u + b2 v - xi_dot: the speed of u, paired with v, in the drifting
    frame.  IEEE addition commutes, so _speed(z, w) has the bits of
    b2 w + z - xi_dot."""
    return u + beta2 * v - xi_dot


def transport_speeds(w, z, beta2, xi_dot):
    """Characteristic speeds of the w- and z-equations in a frame drifting
    at xi_dot: the diagonal (w + b2 z, b2 w + z) of the Riemann system."""
    return _speed(w, z, beta2, xi_dot), _speed(z, w, beta2, xi_dot)


@dataclass
class StepLimit:
    """The largest legal step of a state and the speeds it was formed from."""
    dt: float
    vmax: float           # max(|cw|, |cz|): the support-growth reach speed
    cw: np.ndarray        # on the nodes of stepped_range(state, sigma_inf)
    cz: np.ndarray


def step_limit(state: EquivariantState, mod: ModulationState, bc,
               cfg: SolverConfig) -> StepLimit:
    """dt_max = min(RK4_COURANT dx / max(|cw|, |cz|), cfl dx / max|cw|):
    RK4 stability on the fastest field, and the accuracy bound on the steep
    field w alone.  In flat mode w is the fastest field, so the accuracy
    bound binds; in curved runs the smooth field z is the fastest, so the
    stability bound binds.

    The maxima read the stepped range alone: every node outside it has the
    speeds of that range's outer nodes, so they are the whole grid's."""
    r = stepped_range(state, cfg.sigma_inf)
    cw, cz = transport_speeds(state.w[r], state.z[r], bc.beta2, mod.xi_dot)
    vw = float(np.abs(cw).max())
    vmax = max(vw, float(np.abs(cz).max()))
    dx = state.dx
    dt = min(RK4_COURANT * dx / max(vmax, 1e-30), cfg.cfl * dx / max(vw, 1e-30))
    return StepLimit(dt=dt, vmax=vmax, cw=cw, cz=cz)


def _tan_theta(state: EquivariantState, mod: ModulationState,
               cfg: SolverConfig, t, r=slice(None)):
    """tan of the absolute latitude grid + xi0 + xi_dot t on the nodes r,
    in the frame whose drift mod.xi_dot the transport speeds take, after the
    pole check; None in flat mode, which has no curvature forcing."""
    if cfg.flat_mode:
        return None
    shift = mod.xi_dot * t
    # theta increases along the grid, so its largest |theta| is at an end
    if max(abs(state.grid[0] + cfg.xi0 + shift),
           abs(state.grid[-1] + cfg.xi0 + shift)) > 0.5 * math.pi - POLE_MARGIN:
        raise PoleProximityError("domain within the pole margin of theta = pi/2")
    return np.tan(state.grid[r] + cfg.xi0 + shift)


def rhs(state: EquivariantState, mod: ModulationState, bc, cfg: SolverConfig,
        t=None, w=None, z=None, speeds=None, tan=None):
    """Time derivatives (dw/dt, dz/dt) with upwinded transport.

    The curvature forcing is (b3/2)(w^2 - z^2) tan(theta).  Flat mode drops
    it, so the system is a simple wave: z is a Riemann invariant at the
    background, w alone is differenced and dz/dt is None.
    speeds = (cw, cz) of (w, z) and tan = _tan_theta(state, mod, cfg, t, r)
    may be passed by a caller that has them already.  w and z may be the
    nodes r of the grid, as step passes them, with the speeds and tan of the
    same nodes; the derivatives take the whole grid's state.dx.
    """
    w = state.w if w is None else w
    z = state.z if z is None else z
    t = state.t_tilde if t is None else t
    if cfg.flat_mode:  # no stage reads cz
        cw = _speed(w, z, bc.beta2, mod.xi_dot) if speeds is None else speeds[0]
        (dwx,) = weno5_upwind_derivative((w,), state.dx, (cw,))
        force = 0.0
    else:
        cw, cz = (transport_speeds(w, z, bc.beta2, mod.xi_dot)
                  if speeds is None else speeds)
        dwx, dzx = weno5_upwind_derivative((w, z), state.dx, (cw, cz))
        tan = _tan_theta(state, mod, cfg, t) if tan is None else tan
        force = np.subtract(w, z)
        force *= 0.5 * bc.beta3
        force *= w + z
        force *= tan
    # force - cw dwx and -(cz dzx) - force in the kernel's output arrays: the
    # bits of -cw dwx + force and -cz dzx - force, signed zeros included
    dwdt = np.multiply(cw, dwx, out=dwx)
    np.subtract(force, dwdt, out=dwdt)
    if cfg.flat_mode:
        return dwdt, None
    dzdt = np.multiply(cz, dzx, out=dzx)
    np.negative(dzdt, out=dzdt)
    dzdt -= force
    return dwdt, dzdt


def max_transport_speed(state, mod, bc):
    cw, cz = transport_speeds(state.w, state.z, bc.beta2, mod.xi_dot)
    return max(float(np.max(np.abs(cw))), float(np.max(np.abs(cz))))


def step(state: EquivariantState, mod: ModulationState, dt, bc, cfg: SolverConfig,
         check_support=True, limit=None, support=None) -> EquivariantState:
    """One classical RK4 advance; enforces the step limit and the finite
    propagation property of the support.

    Only the nodes of stepped_range(state) are stepped; the rest hold the
    background, where every upwind slope is 0 and w + z is 0, so that
    stepping them would leave their bits.  The range's edge-padded ghosts
    are the real neighbours, and every stage differences with the whole
    grid's dx (a slice's own spacing can differ from it by an ulp).  The new
    state's window is the part of the range that has left the background.

    In flat mode rhs returns dz/dt as None, and every stage and the new
    state take the state's own z array: a flat step does no arithmetic on z.

    limit = step_limit(state, mod, bc, cfg) and support = support_bounds of
    state may be passed by a caller that has them already.
    """
    r = stepped_range(state, cfg.sigma_inf)
    if limit is None:
        limit = step_limit(state, mod, bc, cfg)
    if dt > limit.dt * (1.0 + 1e-9):
        raise CFLViolationError(f"dt={dt} exceeds the step limit {limit.dt}")
    if check_support:
        lo0, hi0 = (support_bounds(state, cfg.sigma_inf)
                    if support is None else support)

    t, w, z = state.t_tilde, state.w[r], state.z[r]
    t_half = t + 0.5 * dt
    tan = _tan_theta(state, mod, cfg, t, r)
    tan_half = _tan_theta(state, mod, cfg, t_half, r)
    tan_end = _tan_theta(state, mod, cfg, t + dt, r)

    def stage_z(k, h):
        return z if k is None else z + h * k

    f = functools.partial(rhs, state, mod, bc, cfg)
    k1w, k1z = f(t, w, z, speeds=(limit.cw, limit.cz), tan=tan)
    k2w, k2z = f(t_half, w + 0.5 * dt * k1w, stage_z(k1z, 0.5 * dt),
                 tan=tan_half)
    k3w, k3z = f(t_half, w + 0.5 * dt * k2w, stage_z(k2z, 0.5 * dt),
                 tan=tan_half)
    k4w, k4z = f(t + dt, w + dt * k3w, stage_z(k3z, dt), tan=tan_end)
    w1 = state.w.copy()
    w1[r] = w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    if k1z is None:
        z1 = state.z
    else:
        z1 = state.z.copy()
        z1[r] = z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    new = EquivariantState(grid=state.grid, w=w1, z=z1, t_tilde=t + dt)
    new.window = _off_background(w1[r], z1[r], cfg.sigma_inf, r.start)

    if check_support:
        # the margin, checked: within 3 nodes of an unclipped end of the
        # range, a ghost would no longer be the real neighbour.  A
        # non-finite node is the run loop's numerical failure instead.
        lo, hi = new.window
        near_end = lo < hi and ((r.start > 0 and lo < r.start + 3) or
                                (r.stop < state.grid.size and hi > r.stop - 3))
        if near_end and np.all(np.isfinite(w1[r])) and np.all(np.isfinite(z1[r])):
            raise SupportGrowthError(
                "the deviation reached the last 3 nodes of the stepped range")
    if check_support and lo0 is not None:
        lo1, hi1 = support_bounds(new, cfg.sigma_inf)
        # one RK4 step applies the six-node stencil (u[i-3..i+2] or
        # u[i-2..i+3]) four times, so truncation-level noise can land up to
        # 4 x 3 nodes beyond the transported tol-support
        reach = limit.vmax * dt + STENCIL_REACH_CELLS * state.dx
        if lo1 is not None and (lo1 < lo0 - reach or hi1 > hi0 + reach):
            raise SupportGrowthError("support grew faster than transport + stencil")
    return new


def _z_origin_jet(grid, z, xi_hat, s):
    vals = lagrange_value_and_derivs(grid, z, xi_hat, nderiv=2, npts=8)
    e32 = math.exp(-1.5 * s)
    return float(vals[0]), float(vals[1]) * e32, float(vals[2]) * e32**2


def _sample_row(state: EquivariantState, xi_hat, fld, mod, slope, smax,
                min_sigma, dt_next, bc, cfg: SolverConfig, consts):
    """The recorded scalars of one sample: modulation, bootstrap margins
    with the name and y of the smallest (the first on a tie), profile
    distance, support extent, exterior gradient, ODE monitor and
    beta_tau = 1/(1 - ode_dtau), or 1 where the ODE is degenerate.
    xi_hat is the tracked shock location on the co-moving grid state.grid,
    where every local fit reads it; mod.xi is the same point in absolute
    latitude.  min_sigma is the caller's min (w - z) / 2."""
    try:
        d3w = constraints_from_field(state.grid, state.w, xi_hat)
        Z0, dZ0, d2Z0 = _z_origin_jet(state.grid, state.z, xi_hat, mod.s)
        ode = ode_rhs(d3w, mod, bc, cfg.sigma_inf, Z0, dZ0, d2Z0,
                      flat_mode=cfg.flat_mode)
    except DegenerateRhsError:
        ode = (None, None, None)
    ba = bootstrap_report(fld, consts)
    tightest = min(ba.margins, key=ba.margins.get)
    w0r, dw0r = normalization_check(fld)
    row = dict(t_tilde=state.t_tilde, s=mod.s, kappa=mod.kappa, tau=mod.tau,
               xi=mod.xi, max_slope=smax,
               min_sigma=min_sigma,
               holder_w=holder_seminorm(state.w, state.dx),
               dt=dt_next,
               beta_tau=1.0 if ode[1] is None else 1.0 / (1.0 - ode[1]),
               w0_resid=w0r, dw0_resid=dw0r,
               prof_inner=profile_distance(fld, consts),
               ba_margins=ba.margins,
               ba_tightest=tightest, ba_tightest_y=ba.worst[tightest],
               ba_w_pass=ba.family_passed("ba_w_"),
               ba_z_pass=ba.family_passed("ba_z_"))
    lo, hi = support_bounds(state, cfg.sigma_inf)
    row["support_lo"], row["support_hi"] = lo, hi
    # sup outside a quarter domain width of xi; under half the width, the
    # far set is never empty
    delta = 0.25 * (cfg.theta_max - cfg.theta_min)
    far = np.abs(state.grid - xi_hat) > delta
    row[f"ext_grad_{delta:g}"] = float(np.max(np.abs(slope[far])))
    row["ode_dkappa"], row["ode_dtau"], row["ode_dxi"] = ode
    return row


def run_until_blowup(cfg: SolverConfig) -> RunRecord:
    """Integrate to gradient blow-up (or another terminal status), recording
    the modulation, bootstrap, and diagnostic time series.

    The modulation triple is read from the fields by extremal tracking; the
    origin-ODE right-hand sides ride along on every sample as a monitor
    (modulation.cross_validate integrates them).
    """
    bc = betas(cfg.gamma)
    state = initial_data(cfg)
    drift = cfg.frame_drift()
    record = RunRecord(config={"solver": asdict(cfg)})
    consts = BootstrapConstants(M=cfg.monitor_M, tau0=cfg.tau0,
                                sigma_inf=cfg.sigma_inf)

    status = None
    step_i = 0
    next_snap_s = -math.log(cfg.tau0)
    mod_pde = ModulationState(kappa=cfg.kappa0, tau=cfg.tau0, xi=cfg.xi0,
                              t_tilde=0.0, xi_dot=drift)

    while True:
        # the per-step checks read the stepped range: every node outside it
        # holds the background, finite and with w - z = 2 sigma_inf, and a
        # c4 slope equal to that of the range's outer nodes.  Each end of the
        # range is a background node, so its min of w - z is the grid's.
        r = stepped_range(state, cfg.sigma_inf)
        w, z = state.w[r], state.z[r]
        if not (np.isfinite(w).all() and np.isfinite(z).all()):
            status = "numerical_failure"
            break
        min_wz = float((w - z).min())
        if min_wz <= 0.0:
            status = "vacuum"
            break

        sample_step = (step_i % cfg.record_every == 0)
        # a sample's tracker and exterior gradient read the whole grid
        slope = deriv1_c4(state.w if sample_step else w, state.dx)
        smax_grid = float(np.abs(slope).max())
        limit = step_limit(state, mod_pde, bc, cfg)
        dt_base = min(limit.dt, SLOPE_DT_FRAC / smax_grid)
        dt = min(dt_base, cfg.t_max - state.t_tilde)

        hit_cap = smax_grid >= cfg.blowup_slope_cap
        stalled = dt_base < DT_FLOOR
        hit_tmax = state.t_tilde >= cfg.t_max * (1.0 - 1e-12)
        stopping = hit_cap or stalled or hit_tmax
        if sample_step or stopping:
            if not sample_step:
                slope = deriv1_c4(state.w, state.dx)
            xi_hat, kappa, tau, smin = track_extremal(
                state.grid, state.w, state.t_tilde, slope=slope)
            mod = ModulationState(kappa=kappa, tau=tau,
                                  xi=xi_hat + cfg.xi0 + drift * state.t_tilde,
                                  t_tilde=state.t_tilde, xi_dot=drift)
            fld = to_selfsimilar(state.grid, xi_hat, state.w, state.z, mod,
                                 consts.L)
            if fld.win.start == fld.win.stop:
                # the zoom frame has stretched the grid spacing past |y| <= L:
                # no node is left to compare with the profile
                status = "unresolved"
                break
            row = _sample_row(state, xi_hat, fld, mod, slope, abs(smin),
                              0.5 * min_wz, dt, bc, cfg, consts)
            record.add_sample(**row)
            if cfg.emit_selfsim_ds is not None and mod.s >= next_snap_s:
                # fld is new for each sample and nothing writes to it, so its
                # arrays are stored uncopied
                xi_dot = row["ode_dxi"]
                record.add_snapshot(s=fld.s, t_tilde=state.t_tilde,
                                    kappa=mod.kappa, tau=mod.tau, xi_hat=xi_hat,
                                    beta_tau=row["beta_tau"],
                                    xi_dot=drift if xi_dot is None else xi_dot,
                                    beta2=bc.beta2, y=fld.y, W=fld.W, Z=fld.Z)
                next_snap_s += cfg.emit_selfsim_ds

        if stopping:
            status = ("blew_up" if hit_cap else
                      "stalled" if stalled else "max_time")
            break

        support = (row["support_lo"], row["support_hi"]) if sample_step else None
        state = step(state, mod_pde, dt, bc, cfg, check_support=sample_step,
                     limit=limit, support=support)
        step_i += 1

    record.status = status
    record.summary = {
        "status": status,
        "t_end": state.t_tilde,
        "steps": step_i,
        "max_slope_end": float(record.samples[-1]["max_slope"]) if record.samples else None,
        "tau_end": float(record.samples[-1]["tau"]) if record.samples else None,
    }
    record.final_state = state
    return record


@dataclass
class CharacteristicsOracle:
    """Exact pre-crossing Burgers solution built on sampled initial data."""

    theta0: np.ndarray
    w0: np.ndarray
    crossing_time: float

    def __call__(self, thetas, t):
        if t >= self.crossing_time:
            raise OracleDomainError(
                f"characteristics cross at t={self.crossing_time}; "
                f"queried at t={t}")
        pos = self.theta0 + self.w0 * t
        return np.interp(np.asarray(thetas, dtype=float), pos, self.w0)


def characteristics_oracle(theta0, w0) -> CharacteristicsOracle:
    """Flat-mode oracle: w rides characteristics theta0 + w0(theta0) t; the
    first crossing is at inf(-1/dw0) over the steepening region.

    The slope minimum skips the outermost two nodes (their edge-padded
    stencils are not valid) and slopes at finite-difference noise level.
    """
    theta0 = np.asarray(theta0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    dx = theta0[1] - theta0[0]
    slope = deriv1_c4(w0, dx)[2:-2]
    noise = 1e-12 * (1.0 + float(np.max(np.abs(w0)))) / dx
    neg = slope[slope < -noise]
    if len(neg) == 0:
        crossing = math.inf
    else:
        crossing = float(np.min(-1.0 / neg))
    return CharacteristicsOracle(theta0=theta0.copy(), w0=w0.copy(),
                                 crossing_time=crossing)
