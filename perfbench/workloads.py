"""The three reference workloads: set-up, one round of work, and the checks
each round's outputs must pass.

A round runs the workload once through the package's public entry points,
then reads its artifacts back from disk and computes the verdicts.  Every
verdict checks a property of the method or an independent computation
(the characteristics oracle, the tau0^2 law), never a stored result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from sphereshock import (diagnostics, equivariant, harness, records,
                         trajectories)
from sphereshock.config import ExperimentConfig
from sphereshock.modulation import ModulationState
from sphereshock.riemann import betas
from sphereshock.selfsim import BootstrapConstants

import spans

# Workload sizes.  The shipped theorem_a1 config (8192 cells) and the
# 8192-cell sweep rows take 100 s and 53 + 119 s here, more than a run of
# the benchmark may last; at 4096 cells every check below still passes.
BLOWUP_CELLS = 4096
SWEEP_CELLS = 4096
SWEEP_TAU0 = (1e-2, 5e-3)
CONVERGENCE_GRIDS = (512, 1024, 2048, 4096)
TRAJECTORY_SEEDS = 25        # per sign
TRAJECTORY_TOL = 1e-9
WEIGHT_POWERS = (0.5, 1.0, 2.0)


@dataclass
class Round:
    """Timings, counts and verdicts of one round.  A workload's run() fills
    the counts of the run stage, verify() adds verdicts; run.py times
    both stages."""

    wall_s: float = 0.0
    verify_s: float = 0.0
    cell_updates: int = 0
    attempted: int = 0
    failed: int = 0
    verdicts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    peak_rss_kb: int = 0
    bytes_written: int = 0
    worker_traces: list = field(default_factory=list)

    def verdict(self, name, ok):
        self.attempted += 1
        self.verdicts[name] = bool(ok)


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load(root, rel, **overrides):
    """Load a shipped config, apply solver overrides, and validate."""
    with open(os.path.join(root, rel)) as f:
        doc = json.load(f)
    doc["solver"] = {**doc.get("solver", {}), **overrides}
    return ExperimentConfig.from_dict(doc)


class Blowup:
    """configs/theorem_a1.json, then diagnose and the criterion-9
    trajectory family from the files on disk."""

    name = "blowup"
    nominal_round_s = 28.0
    workers = 1

    def __init__(self, root, seed):
        self.root = root
        self.rng_seed = seed

    def setup(self):
        self.cfg = _load(self.root, "configs/theorem_a1.json",
                         n_cells=BLOWUP_CELLS)
        equivariant.initial_data(self.cfg.solver)
        s = self.cfg.solver
        self.l = BootstrapConstants(M=s.monitor_M, tau0=s.tau0,
                                    sigma_inf=s.sigma_inf).l
        # trajectory starting points, stratified log-uniform: one in each
        # bin of geomspace(l, 2, 26), mirrored to negative y
        edges = np.geomspace(self.l, 2.0, TRAJECTORY_SEEDS + 1)
        u = np.random.default_rng(self.rng_seed).uniform(size=TRAJECTORY_SEEDS)
        mags = edges[:-1] * (edges[1:] / edges[:-1]) ** u
        self.seeds = np.concatenate([mags, -mags])

    def close(self):
        pass

    def run(self, out, r, traced):
        r.attempted += 1
        rec = harness.run_experiment(self.cfg, out)
        r.cell_updates = self.cfg.solver.n_cells * rec.summary["steps"]
        r.bytes_written = _dir_bytes(out)
        r.digests["summary.json"] = _digest(os.path.join(out, "summary.json"))
        r.peak_rss_kb = _rss_kb()

    def verify(self, out, r):
        diag = self.cfg.diagnostics
        rec = records.RunRecord.read_jsonl(os.path.join(out, "run.jsonl"))
        r.verdict("status blew_up", rec.status == "blew_up")
        rep = diagnostics.blowup_report(rec, holder_cap=diag.holder_cap,
                                        rate_tol=diag.rate_tol)
        for flag, ok in rep.flags.items():
            r.verdict(f"diagnose {flag}", ok)
        r.verdict("ba_w_pass on every sample",
                  all(s["ba_w_pass"] for s in rec.samples))
        r.verdict("ba_z_pass on every sample",
                  all(s["ba_z_pass"] for s in rec.samples))

        snaps = harness.load_snapshots(out)
        fld = trajectories.FrozenTransportField.from_snapshots(snaps, key="g_w")
        s_lo, s_hi = fld.s_span
        margins, wints = [], []
        for y0 in self.seeds:
            r.attempted += 1
            path = trajectories.integrate_trajectory(fld, s_lo, y0, s_hi,
                                                     tol=TRAJECTORY_TOL)
            margins.append(trajectories.growth_certificate(path, 1.0 / 3.0))
            wints.append(max(trajectories.weighted_integral(path, p)
                             for p in WEIGHT_POWERS))
        r.verdict("trajectory growth margins >= 0", min(margins) >= 0.0)
        r.verdict("weighted integrals <= -4 ln l",
                  max(wints) <= -4.0 * math.log(self.l))


def sweep_row_job(cfg, out, traced):
    """One tau_sweep row in a pool worker: run_experiment, with the worker's
    own tracer when traced.  Returns what the parent cannot see."""
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    try:
        rec = harness.run_experiment(cfg, out)
    finally:
        tracer.uninstall()
    return {"cell_updates": cfg.solver.n_cells * rec.summary["steps"],
            "bytes": _dir_bytes(out), "rss_kb": _rss_kb(),
            "trace": tracer.export()}


def sweep_row_config(tau0):
    """The criterion-6 row at tau0: domain +-1.5 tau0, t_max 1.6 tau0 and a
    slope cap 1.35 x the resolution window of blowup_time_refined."""
    dx = 3.0 * tau0 / (SWEEP_CELLS - 1)
    slope_hi = (0.02 * tau0**2 / (150.0 * dx**4)) ** 0.2
    return ExperimentConfig.from_dict({"solver": {
        "n_cells": SWEEP_CELLS, "tau0": tau0, "sigma_inf": 1.2,
        "xi0": math.pi / 12.0, "record_every": 4, "t_max": 1.6 * tau0,
        "theta_min": -1.5 * tau0, "theta_max": 1.5 * tau0,
        "blowup_slope_cap": 1.35 * slope_hi, "monitor_M": 100.0}})


class TauSweep:
    """The criterion-6 rows run concurrently as run_experiment jobs in a
    pool of nproc processes, then the tau0^2 fit on the files on disk."""

    name = "tau_sweep"
    nominal_round_s = 28.0

    def __init__(self, root, seed):
        self.pool = None

    def setup(self):
        self.cfgs = [sweep_row_config(t) for t in SWEEP_TAU0]
        for cfg in self.cfgs:
            equivariant.initial_data(cfg.solver)
        self.workers = len(os.sched_getaffinity(0))
        # fork, as harness.sweep does; a fork pool starts every worker at
        # the first submit, so the warm-up jobs leave none to start later
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        for fut in [self.pool.submit(os.getpid) for _ in range(self.workers)]:
            fut.result()

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def _outs(self, out):
        return [os.path.join(out, f"tau0_{t:g}") for t in SWEEP_TAU0]

    def run(self, out, r, traced):
        futs = [self.pool.submit(sweep_row_job, cfg, o, traced)
                for cfg, o in zip(self.cfgs, self._outs(out))]
        self.done = []
        for fut in futs:
            r.attempted += 1
            try:
                self.done.append(fut.result())
            except Exception as err:  # a row that raised counts as failed
                r.failed += 1
                print("tau_sweep row failed:\n"
                      + "".join(traceback.format_exception(err)), file=sys.stderr)
                self.done.append(None)
        rows = [d for d in self.done if d is not None]
        r.cell_updates = sum(d["cell_updates"] for d in rows)
        r.bytes_written = sum(d["bytes"] for d in rows)
        r.worker_traces = [d["trace"] for d in rows]
        for t, o, d in zip(SWEEP_TAU0, self._outs(out), self.done):
            if d is not None:
                r.digests[f"tau0_{t:g}/summary.json"] = _digest(
                    os.path.join(o, "summary.json"))
        r.peak_rss_kb = max([_rss_kb()] + [d["rss_kb"] for d in rows])

    def verify(self, out, r):
        devs = []
        for tau0, cfg, o, d in zip(SWEEP_TAU0, self.cfgs, self._outs(out),
                                   self.done):
            if d is None:
                continue
            rec = records.RunRecord.read_jsonl(os.path.join(o, "run.jsonl"))
            r.verdict(f"tau0={tau0:g} status blew_up", rec.status == "blew_up")
            vac = diagnostics.vacuum_check(rec, cfg.solver.sigma_inf)
            r.verdict(f"tau0={tau0:g} vacuum", vac["pass"])
            holder = float(np.max(rec.series("holder_w")))
            r.verdict(f"tau0={tau0:g} holder <= cap",
                      holder <= cfg.diagnostics.holder_cap)
            devs.append(abs(diagnostics.blowup_time_refined(rec) - tau0))
        if len(devs) == len(SWEEP_TAU0):
            slope = np.polyfit(np.log(SWEEP_TAU0), np.log(devs), 1)[0]
            r.verdict("|T*-tau0| ~ tau0^2 (slope 2 +- 0.2)",
                      abs(slope - 2.0) <= 0.2)


class FlatOracle:
    """configs/flat_oracle.json against the characteristics oracle, then
    the convergence study with equivariant.step alone."""

    name = "flat_oracle"
    nominal_round_s = 15.0
    workers = 1

    def __init__(self, root, seed):
        self.root = root

    def setup(self):
        self.cfg = _load(self.root, "configs/flat_oracle.json")
        s = self.cfg.solver
        self.st0 = equivariant.initial_data(s)
        self.grid_cfgs = [equivariant.SolverConfig(
            n_cells=n, tau0=s.tau0, flat_mode=True, gamma=s.gamma,
            sigma_inf=s.sigma_inf, xi0=s.xi0, t_max=0.5 * s.tau0)
            for n in CONVERGENCE_GRIDS]
        self.bc = betas(s.gamma)

    def close(self):
        pass

    def run(self, out, r, traced):
        r.attempted += 1
        rec = harness.run_experiment(self.cfg, out)
        r.cell_updates = self.cfg.solver.n_cells * rec.summary["steps"]
        r.bytes_written = _dir_bytes(out)
        r.digests["summary.json"] = _digest(os.path.join(out, "summary.json"))
        self.finals = []
        for c in self.grid_cfgs:
            r.attempted += 1
            st = equivariant.initial_data(c)
            mod = ModulationState(c.kappa0, c.tau0, c.xi0, 0.0, xi_dot=0.0)
            steps = 0
            while st.t_tilde < c.t_max - 1e-15:
                vmax = equivariant.max_transport_speed(st, mod, self.bc)
                dt = min(c.cfl * st.dx / vmax, c.t_max - st.t_tilde)
                st = equivariant.step(st, mod, dt, self.bc, c,
                                      check_support=False)
                steps += 1
            r.cell_updates += c.n_cells * steps
            self.finals.append(st)
        r.peak_rss_kb = _rss_kb()

    def verify(self, out, r):
        rec = records.RunRecord.read_jsonl(os.path.join(out, "run.jsonl"))
        r.verdict("status blew_up", rec.status == "blew_up")
        oracle = equivariant.characteristics_oracle(self.st0.grid, self.st0.w)
        T_star, _, _ = diagnostics.blowup_time(rec)
        t_rel = abs(T_star - oracle.crossing_time) / oracle.crossing_time
        r.verdict("T* within 1% of the characteristics crossing", t_rel <= 0.01)
        errs = []
        for c, st in zip(self.grid_cfgs, self.finals):
            st0 = equivariant.initial_data(c)
            orc = equivariant.characteristics_oracle(st0.grid, st0.w)
            errs.append(np.max(np.abs(st.w - orc(st.grid, st.t_tilde))))
        order = np.polyfit(np.log([1.0 / c.n_cells for c in self.grid_cfgs]),
                           np.log(errs), 1)[0]
        r.verdict("convergence order against the oracle >= 2", order >= 2.0)


WORKLOADS = {w.name: w for w in (Blowup, TauSweep, FlatOracle)}
