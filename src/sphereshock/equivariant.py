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
from .diagnostics import holder_denominators, holder_seminorm
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
RK4_COURANT = 1.2
SLOPE_DT_FRAC = 0.05             # dt <= SLOPE_DT_FRAC / max|slope|
DT_FLOOR = 1e-12                 # a smaller step bound stops the run: stalled
CUT_INNER, CUT_OUTER = 0.4, 1.0  # initial profile cutoff radii, units tau0^-1/2
POLE_MARGIN = math.pi / 16.0     # least distance of the domain from the pole
SUPPORT_TOL = 1e-11              # deviation from the background in the support
STENCIL_REACH_CELLS = 12.5       # support growth beyond transport (see step)
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
        if self.blowup_slope_cap is None:
            # max slope ~ e^s and node spacing in y = dx e^{3s/2}
            L = BootstrapConstants(M=self.monitor_M, tau0=self.tau0,
                                   sigma_inf=self.sigma_inf).L
            dx = (self.theta_max - self.theta_min) / (self.n_cells - 1)
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
    xi0: float
    frame_drift: float
    # tan of the absolute latitude at t_tilde after the pole check, left by
    # the step that made this state (its stage 4) for the next step's stage 1
    tan: np.ndarray = dataclasses.field(default=None, init=False, repr=False,
                                        compare=False)

    @property
    def dx(self):
        return self.grid[1] - self.grid[0]

    def theta_abs(self, t=None):
        t = self.t_tilde if t is None else t
        return self.grid + self.xi0 + self.frame_drift * t

    def sigma(self):
        return 0.5 * (self.w - self.z)


def support_bounds(state: EquivariantState, sigma_inf):
    """Co-moving extent of the deviation from the background steady state."""
    dev = np.maximum(np.abs(state.w - sigma_inf), np.abs(state.z + sigma_inf))
    idx = np.flatnonzero(dev > SUPPORT_TOL)
    if len(idx) == 0:
        return None, None
    return float(state.grid[idx[0]]), float(state.grid[idx[-1]])


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
    return EquivariantState(grid=grid, w=w, z=z, t_tilde=0.0, xi0=cfg.xi0,
                            frame_drift=cfg.frame_drift())


def transport_speeds(w, z, beta2, xi_dot):
    """Characteristic speeds of the w- and z-equations in a frame drifting
    at xi_dot: the diagonal (w + b2 z, b2 w + z) of the Riemann system."""
    return w + beta2 * z - xi_dot, beta2 * w + z - xi_dot


@dataclass
class StepLimit:
    """The largest legal step of a state and the speeds it was formed from."""
    dt: float
    vmax: float           # max(|cw|, |cz|): the support-growth reach speed
    cw: np.ndarray
    cz: np.ndarray


def step_limit(state: EquivariantState, mod: ModulationState, bc,
               cfg: SolverConfig) -> StepLimit:
    """dt_max = min(RK4_COURANT dx / max(|cw|, |cz|), cfl dx / max|cw|):
    RK4 stability on the fastest field, and the accuracy bound on the steep
    field w alone.  In flat mode w is the fastest field, so the accuracy
    bound binds; in curved runs the smooth field z is the fastest, so the
    stability bound binds."""
    cw, cz = transport_speeds(state.w, state.z, bc.beta2, mod.xi_dot)
    vw = float(np.max(np.abs(cw)))
    vmax = max(vw, float(np.max(np.abs(cz))))
    dx = state.dx
    dt = min(RK4_COURANT * dx / max(vmax, 1e-30), cfg.cfl * dx / max(vw, 1e-30))
    return StepLimit(dt=dt, vmax=vmax, cw=cw, cz=cz)


def _tan_theta(state: EquivariantState, cfg: SolverConfig, t):
    """tan of the absolute latitude at time t after the pole check; None in
    flat mode, which has no curvature forcing."""
    if cfg.flat_mode:
        return None
    theta = state.theta_abs(t)
    if np.max(np.abs(theta)) > 0.5 * math.pi - POLE_MARGIN:
        raise PoleProximityError("domain within the pole margin of theta = pi/2")
    return np.tan(theta)


def rhs(state: EquivariantState, mod: ModulationState, bc, cfg: SolverConfig,
        t=None, w=None, z=None, speeds=None, tan=None):
    """Time derivatives (dw/dt, dz/dt) with upwinded transport.

    The curvature forcing is (b3/2)(w^2 - z^2) tan(theta).  Flat mode drops
    it, so the system is a simple wave: z is a Riemann invariant at the
    background, w alone is differenced and dz/dt is None.
    speeds = (cw, cz) of (w, z) and tan = _tan_theta(state, cfg, t) may be
    passed by a caller that has them already.
    """
    w = state.w if w is None else w
    z = state.z if z is None else z
    t = state.t_tilde if t is None else t
    cw, cz = (transport_speeds(w, z, bc.beta2, mod.xi_dot) if speeds is None
              else speeds)
    if cfg.flat_mode:
        (dwx,) = weno5_upwind_derivative((w,), state.dx, (cw,))
        force = 0.0
    else:
        dwx, dzx = weno5_upwind_derivative((w, z), state.dx, (cw, cz))
        tan = _tan_theta(state, cfg, t) if tan is None else tan
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

    In flat mode rhs returns dz/dt as None, and every stage and the new
    state take the state's own z array: a flat step does no arithmetic on z.

    limit = step_limit(state, mod, bc, cfg) and support = support_bounds of
    state may be passed by a caller that has them already.
    """
    if limit is None:
        limit = step_limit(state, mod, bc, cfg)
    if dt > limit.dt * (1.0 + 1e-9):
        raise CFLViolationError(f"dt={dt} exceeds the step limit {limit.dt}")
    if check_support:
        lo0, hi0 = (support_bounds(state, cfg.sigma_inf)
                    if support is None else support)

    t, w, z = state.t_tilde, state.w, state.z
    t_half = t + 0.5 * dt
    tan_half = _tan_theta(state, cfg, t_half)
    tan_end = _tan_theta(state, cfg, t + dt)

    def stage_z(k, h):
        return z if k is None else z + h * k

    f = functools.partial(rhs, state, mod, bc, cfg)
    k1w, k1z = f(t, w, z, speeds=(limit.cw, limit.cz), tan=state.tan)
    k2w, k2z = f(t_half, w + 0.5 * dt * k1w, stage_z(k1z, 0.5 * dt), tan=tan_half)
    k3w, k3z = f(t_half, w + 0.5 * dt * k2w, stage_z(k2z, 0.5 * dt), tan=tan_half)
    k4w, k4z = f(t + dt, w + dt * k3w, stage_z(k3z, dt), tan=tan_end)
    w1 = w + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    z1 = z if k1z is None else z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    new = EquivariantState(grid=state.grid, w=w1, z=z1, t_tilde=t + dt,
                           xi0=state.xi0, frame_drift=state.frame_drift)
    new.tan = tan_end

    if check_support and lo0 is not None:
        lo1, hi1 = support_bounds(new, cfg.sigma_inf)
        # one RK4 step applies the six-node stencil (u[i-3..i+2] or
        # u[i-2..i+3]) four times, so truncation-level noise can land up to
        # 4 x 3 nodes beyond the transported tol-support
        reach = limit.vmax * dt + STENCIL_REACH_CELLS * state.dx
        if lo1 is not None and (lo1 < lo0 - reach or hi1 > hi0 + reach):
            raise SupportGrowthError("support grew faster than transport + stencil")
    return new


def _z_origin_jet(grid_abs, z, xi_abs, s):
    vals = lagrange_value_and_derivs(grid_abs, z, xi_abs, nderiv=2, npts=8)
    e32 = math.exp(-1.5 * s)
    return float(vals[0]), float(vals[1]) * e32, float(vals[2]) * e32**2


def _sample_row(state: EquivariantState, grid_abs, fld, mod, slope, smax,
                dt_next, bc, cfg: SolverConfig, consts, holder_den):
    """The recorded scalars of one sample: modulation, bootstrap margins,
    profile distances, support extent, exterior gradient, ODE monitor.
    grid_abs is state.theta_abs(), formed once by the caller, and holder_den
    is holder_denominators(state.grid), formed once per run."""
    ba = bootstrap_report(fld, consts)
    dist = profile_distance(fld, consts)
    w0r, dw0r = normalization_check(fld)
    row = dict(t_tilde=state.t_tilde, s=mod.s, kappa=mod.kappa, tau=mod.tau,
               xi=mod.xi, max_slope=smax,
               min_sigma=float(np.min(state.sigma())),
               holder_w=holder_seminorm(holder_den, state.w),
               dt=dt_next, beta_tau=mod.beta_tau,
               w0_resid=w0r, dw0_resid=dw0r,
               prof_inner=dist["inner_sup"],
               prof_weighted=dist["weighted_sup"],
               prof_weighted_grad=dist["weighted_grad_sup"],
               ba_margins=ba.margins,
               ba_w_pass=ba.family_passed("ba_w_"),
               ba_z_pass=ba.family_passed("ba_z_"))
    lo, hi = support_bounds(state, cfg.sigma_inf)
    row["support_lo"], row["support_hi"] = lo, hi
    # sup outside a quarter domain width of xi; under half the width, the
    # far set is never empty
    delta = 0.25 * (cfg.theta_max - cfg.theta_min)
    far = np.abs(grid_abs - mod.xi) > delta
    row[f"ext_grad_{delta:g}"] = float(np.max(np.abs(slope[far])))
    try:
        cons = constraints_from_field(grid_abs, state.w, mod.xi)
        Z0, dZ0, d2Z0 = _z_origin_jet(grid_abs, state.z, mod.xi, mod.s)
        ode = ode_rhs(cons, mod, bc, cfg.sigma_inf, Z0, dZ0, d2Z0,
                      flat_mode=cfg.flat_mode)
    except DegenerateRhsError:
        ode = (None, None, None)
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
    holder_den = holder_denominators(state.grid)

    dx = state.grid[1] - state.grid[0]
    status = None
    step_i = 0
    prev_tau = cfg.tau0
    prev_t = 0.0
    beta_tau = 1.0
    next_snap_s = -math.log(cfg.tau0)
    mod_pde = ModulationState(kappa=cfg.kappa0, tau=cfg.tau0, xi=cfg.xi0,
                              t_tilde=0.0, xi_dot=drift)

    while True:
        w, z = state.w, state.z
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(z))):
            status = "numerical_failure"
            break
        if np.min(w - z) <= 0.0:
            status = "vacuum"
            break

        slope = deriv1_c4(w, dx)
        smax_grid = float(np.max(np.abs(slope)))
        limit = step_limit(state, mod_pde, bc, cfg)
        dt_base = min(limit.dt, SLOPE_DT_FRAC / smax_grid)
        dt = min(dt_base, cfg.t_max - state.t_tilde)

        sample_step = (step_i % cfg.record_every == 0)
        hit_cap = smax_grid >= cfg.blowup_slope_cap
        stalled = dt_base < DT_FLOOR
        hit_tmax = state.t_tilde >= cfg.t_max * (1.0 - 1e-12)
        stopping = hit_cap or stalled or hit_tmax
        if sample_step or stopping:
            xi_loc, kappa, tau, smin = track_extremal(
                state.grid, w, state.t_tilde, slope=slope)
            xi_abs = xi_loc + cfg.xi0 + drift * state.t_tilde
            if state.t_tilde > prev_t:
                dta = (tau - prev_tau) / (state.t_tilde - prev_t)
                beta_tau = float(np.clip(1.0 / (1.0 - dta), 0.5, 2.0))
            mod = ModulationState(kappa=kappa, tau=tau, xi=xi_abs,
                                  t_tilde=state.t_tilde, xi_dot=drift,
                                  beta_tau=beta_tau)
            prev_tau, prev_t = tau, state.t_tilde
            grid_abs = state.theta_abs()
            fld = to_selfsimilar(grid_abs, state.w, state.z, mod, consts.L)
            if fld.win.start == fld.win.stop:
                # the zoom frame has stretched the grid spacing past |y| <= L:
                # no node is left to compare with the profile
                status = "unresolved"
                break
            row = _sample_row(state, grid_abs, fld, mod, slope, abs(smin), dt,
                              bc, cfg, consts, holder_den)
            record.add_sample(**row)
            if cfg.emit_selfsim_ds is not None and mod.s >= next_snap_s:
                # fld is new for each sample and nothing writes to it, so its
                # arrays are stored uncopied
                xi_dot = row["ode_dxi"]
                record.add_snapshot(s=fld.s, t_tilde=state.t_tilde,
                                    kappa=mod.kappa, tau=mod.tau, xi=mod.xi,
                                    beta_tau=mod.beta_tau,
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
