"""Command-line interface: simulate, sweep, diagnose, profile table and
calibrate, check-geometry, trajectories."""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .records import Refusal


def _add_common(p):
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--print-defaults", action="store_true",
                   help="print the fully resolved default config and exit")


def _out_file(path):
    """The file at path, opened for csv.writer, or stdout; for a with block."""
    return (_write(path, lambda p: open(p, "w", newline="")) if path
            else contextlib.nullcontext(sys.stdout))


def _read(path, reader):
    """reader(path), refusing a file that cannot be opened or decoded in one
    line that names it and the reason; a refused config passes through."""
    from .config import ConfigError
    try:
        return reader(path)
    except ConfigError:
        raise
    except (OSError, ValueError) as err:
        reason = getattr(err, "strerror", None) or err
        raise Refusal(f"cannot read {path}: {reason}") from None


def _write(path, writer):
    """writer(path), refusing a path that cannot be written in one line that
    names it and the reason."""
    try:
        return writer(path)
    except OSError as err:
        raise Refusal(f"cannot write {path}: {err.strerror or err}") from None


def _load_config(args):
    """The validated config of args, with its output directory made."""
    from .config import ConfigError, ExperimentConfig
    cfg = (_read(args.config, ExperimentConfig.load) if args.config
           else ExperimentConfig())
    if args.command == "simulate" and cfg.sweep.axes():
        raise ConfigError(f"sweep axes {sorted(cfg.sweep.axes())} are run by "
                          "`sphereshock sweep`, not simulate")
    if args.out:
        cfg.out_dir = args.out
    _write(cfg.out_dir, lambda p: os.makedirs(p, exist_ok=True))
    return cfg


def cmd_simulate(args):
    from .config import print_defaults
    if args.print_defaults:
        print(print_defaults())
        return 0
    cfg = _load_config(args)
    from .harness import run_experiment
    rec = run_experiment(cfg)
    print(f"status: {rec.status}  samples: {len(rec.samples)}  "
          f"T*: {rec.summary.get('T_star')}")
    return 0 if rec.status in ("blew_up", "max_time") else 1


def cmd_sweep(args):
    from .config import print_defaults
    if args.print_defaults:
        print(print_defaults())
        return 0
    if args.workers is not None and args.workers < 1:
        raise Refusal("--workers must be a positive integer, "
                      f"got {args.workers}")
    cfg = _load_config(args)
    from .harness import sweep
    print(f"sweep cross-product: {len(cfg.sweep.combinations())} run(s)")
    rows = sweep(cfg, max_workers=args.workers)
    print(f"sweep finished: {len(rows)} runs -> {cfg.out_dir}/sweep.csv")
    bad = [r for r in rows if r["status"] == "error"]
    for r in bad:
        print(f"  failed {r['config_hash']}: {r['error']}")
    return 1 if bad else 0


def cmd_diagnose(args):
    from .config import header_config
    from .diagnostics import (DiagnosticUndefinedError,
                              background_blowup_time, blowup_report,
                              edge_contact_time, fit_bounds, fit_window,
                              fit_window_span, tightest_margin)
    from .records import RunRecord
    rec = _read(args.record, RunRecord.read_jsonl)
    cfg = header_config(args.record, rec)
    rec.config = cfg.to_dict()
    diag = cfg.diagnostics
    contact = edge_contact_time(rec)
    print("edge contact      : "
          + ("none" if contact is None else f"t~ = {contact:.8g}"))
    tight = tightest_margin(rec)
    print("tightest margin   : " + ("none recorded" if tight is None else
          f"{tight['name']} {tight['margin']:+.4g} at y = {tight['y']:.6g}, "
          f"t~ = {tight['t_tilde']:.8g}"))
    try:
        rep = blowup_report(rec, holder_cap=diag.holder_cap,
                            rate_tol=diag.rate_tol)
    except DiagnosticUndefinedError as err:
        raise Refusal(f"diagnostics undefined: {err}") from None
    for fam in ("ba_w", "ba_z"):
        worst = rep.bootstrap[fam]["worst"]
        print(f"min {fam}_* margin : {worst['name']} {worst['margin']:+.4g} "
              f"at t~ = {worst['t_tilde']:.8g}")
    lo, hi = fit_bounds(rec)
    print(f"fit window        : max_slope in [{lo:.4g}, {hi:.4g}], "
          f"{len(fit_window(rec))} samples, span {fit_window_span(rec):.1f}x")
    print(f"T*                : {rep.T_star:.8g}")
    tau0, T_bg = cfg.solver.tau0, background_blowup_time(cfg.solver)
    print(f"T* closed form    : {T_bg:.8g} (T* - it: "
          f"{(rep.T_star - T_bg) / tau0**2:+.3e} tau0^2)")
    print(f"tau tracker (end) : {rep.tau_tracker:.8g}")
    print("rate exponent     : " + (f"undefined: {rep.rate_note}"
          if rep.rate_exponent is None else
          f"{rep.rate_exponent:+.4f} (span {rep.rate_span:.1f}x)"))
    print(f"xi*               : {rep.xi_star:.8g}")
    print(f"holder seminorm   : {rep.holder_seminorm_max:.4f} "
          "(dyadic estimate, a lower bound)")
    print(f"min sigma         : {rep.min_sigma:.4f}")
    for name, ok in rep.flags.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if rep.passed else 1


def _not_finite(args, names):
    """A refusal line naming the first of the options `names` whose value
    is not a finite number, or None."""
    for name in names:
        if not math.isfinite(getattr(args, name)):
            return f"--{name} must be a finite number, got {getattr(args, name)}"
    return None


def cmd_profile_table(args):
    from . import profile
    refusal = _not_finite(args, ("y1min", "y1max", "y2min", "y2max"))
    if refusal or args.n < 1:
        raise Refusal(refusal
                      or f"--n must be a positive integer, got {args.n}")
    y1 = np.linspace(args.y1min, args.y1max, args.n)
    y2 = np.linspace(args.y2min, args.y2max, args.n)
    with _out_file(args.out) as f:
        out = csv.writer(f)
        out.writerow(["y1", "y2", "W", "dW1", "dW2", "residual"])
        for b in y2:
            T = profile.w2d_jet(y1, np.full_like(y1, b))
            res = profile.selfsimilar_burgers_residual(y1, np.full_like(y1, b))
            for j in range(len(y1)):
                out.writerow([f"{v:.17g}" for v in
                              (y1[j], b, T[0][0][j], T[1][0][j], T[0][1][j], res[j])])
    return 0


def cmd_profile_calibrate(args):
    from . import profile
    print(f"{'gamma':>8} {'C_gamma':>12} {'argmax (y1, y2)':>28}")
    for (g1, g2), (c, y1, y2) in profile.calibrate_deriv_bounds().items():
        print(f"  ({g1},{g2}) {c:12.6f}   ({y1:10.3f}, {y2:10.3f})")
    return 0


def cmd_check_geometry(args):
    from .geometry import (DerivationMismatchError, origin_derivative_table,
                           validate_r0)
    refusal = _not_finite(args, ("psi", "q12", "q13", "q23"))
    try:
        validate_r0(args.r0)
    except ValueError as err:
        refusal = refusal or f"--r0 refused: {err}"
    if refusal:
        raise Refusal(refusal)
    Q = np.array([[0.0, args.q12, args.q13],
                  [-args.q12, 0.0, args.q23],
                  [-args.q13, -args.q23, 0.0]])
    try:
        table = origin_derivative_table(args.psi, Q, args.r0)
    except DerivationMismatchError as err:
        print(f"FAIL: {err}")
        return 1
    width = max(len(k) for k in table)
    for name, (ana, num) in table.items():
        print(f"{name:<{width}}  analytic {ana:+.10e}  fd {num:+.10e}")
    print("PASS: all origin-table entries agree")
    return 0


def cmd_trajectories(args):
    from .harness import load_snapshots
    from .trajectories import FrozenTransportField, integrate_trajectory, \
        weighted_integral
    snaps = load_snapshots(args.from_run)
    try:
        field = FrozenTransportField.from_snapshots(snaps)
    except ValueError as err:
        raise Refusal(f"{args.from_run}: {err}; rerun it with a smaller "
                      "solver.emit_selfsim_ds") from None
    s_lo, s_hi = field.s_span
    seeds = []
    lines = _read(args.seeds, lambda p: Path(p).read_text().splitlines())
    for n, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            y0 = float(text)
        except ValueError:
            y0 = math.nan
        if not math.isfinite(y0):
            raise Refusal(f"{args.seeds}:{n}: seed {text!r} is not a "
                          "finite number")
        seeds.append(y0)
    ps = (0.5, 1.0, 2.0)
    with _out_file(args.out) as f:
        out = csv.writer(f)
        out.writerow(["y0", "s_end", "Phi_end"] + [f"wint_p{p:g}" for p in ps])
        for y0 in seeds:
            path = integrate_trajectory(field, s_lo, y0, s_hi)
            out.writerow([f"{v:.12g}" for v in
                          (y0, path.s_end, path(path.s_end),
                           *(weighted_integral(path, p) for p in ps))])
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="sphereshock",
                                  description="Equivariant shock-formation laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the sweep cross-product")
    _add_common(p)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="verify a recorded run against the "
                       "diagnostics thresholds in its header config")
    p.add_argument("record", help="run.jsonl path")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("profile", help="blow-up profile tools")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pt = psub.add_parser("table", help="tabulate the 2D profile on a grid")
    pt.add_argument("--y1min", type=float, required=True)
    pt.add_argument("--y1max", type=float, required=True)
    pt.add_argument("--y2min", type=float, required=True)
    pt.add_argument("--y2max", type=float, required=True)
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_profile_table)
    pc = psub.add_parser("calibrate", help="measure the derivative-bound "
                         "constants that profile.DERIV_BOUND_C freezes")
    pc.set_defaults(func=cmd_profile_calibrate)

    p = sub.add_parser("check-geometry", help="certify the origin table")
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--q12", type=float, default=0.0)
    p.add_argument("--q13", type=float, default=0.0)
    p.add_argument("--q23", type=float, default=0.0)
    p.add_argument("--r0", type=float, default=1.0)
    p.set_defaults(func=cmd_check_geometry)

    p = sub.add_parser("trajectories", help="integrate frozen-field trajectories")
    p.add_argument("--from-run", required=True,
                   help="run directory containing snapshots.npz")
    p.add_argument("--seeds", required=True, help="file of y0 seeds, one per line")
    p.add_argument("--out")
    p.set_defaults(func=cmd_trajectories)
    return top


def main(argv=None):
    from .config import ConfigError
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except ConfigError as err:
            print(f"config refused: {err}")
            return 2
        except Refusal as err:
            print(err)
            return 2
        finally:
            sys.stdout.flush()
    except BrokenPipeError:  # a reader that left early, as `| head` does:
        # Python's documented recipe, so that the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
