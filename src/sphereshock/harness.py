"""Experiment runner and parameter sweeps: reproducible runs with archived
configs, JSON-lines time series, npz snapshots, and concurrent sweep rows.
"""

from __future__ import annotations

import json
import os
import time
import traceback
import zipfile
import zlib
from dataclasses import fields

import numpy as np

from . import diagnostics as dg
from .config import ExperimentConfig, SweepConfig
from .equivariant import run_until_blowup
from .records import (SCHEMA_VERSION, Refusal, RunRecord, config_hash,
                      schema_refusal, write_field_csv)
from .selfsim import zoom_coordinate
from .util import comoving_grid
# unused here, but perfbench/spans.py wraps harness.write_selfsim_csv, and its
# Tracer.install() reads that name from this module's namespace
from .records import write_selfsim_csv  # noqa: F401


_SCALARS = ("s", "t_tilde", "kappa", "tau", "xi_hat", "beta_tau", "xi_dot",
            "beta2")
_GRID = ("theta_min", "theta_max", "n_cells")


class SnapshotReadError(Refusal):
    """A run directory whose snapshots this build cannot read."""


def _save_snapshots(record: RunRecord, out_dir):
    path = os.path.join(out_dir, "snapshots.npz")
    if not record.snapshots:
        if os.path.exists(path):  # an earlier run's, which this one replaces
            os.remove(path)
        return
    arrays = {k: np.array([snap[k] for snap in record.snapshots], dtype=float)
              for k in _SCALARS}
    for i, snap in enumerate(record.snapshots):
        arrays[f"snap{i}_W"], arrays[f"snap{i}_Z"] = snap["W"], snap["Z"]
    np.savez_compressed(path, schema=SCHEMA_VERSION, **arrays,
                        **{k: record.config["solver"][k] for k in _GRID})


def load_snapshots(out_dir):
    """Rebuild the snapshot list persisted by run_experiment from
    snapshots.npz alone: W, Z and the scalars of each snapshot, and y formed
    on the archive's co-moving grid at xi_hat as the run formed it."""
    path = os.path.join(out_dir, "snapshots.npz")
    if not os.path.exists(path):
        raise SnapshotReadError(f"{out_dir} holds no snapshots.npz: rerun it "
                                "with solver.emit_selfsim_ds set")
    snaps = []
    try:
        # opened here: np.load leaves a file that is not a zip open
        with open(path, "rb") as f, np.load(f) as data:
            schema = data["schema"].item() if "schema" in data.files else None
            if schema == SCHEMA_VERSION:
                grid = comoving_grid(*(data[k].item() for k in _GRID))
                columns = [data[k].tolist() for k in _SCALARS]
                for i, row in enumerate(zip(*columns)):
                    snap = dict(zip(_SCALARS, row))
                    y = zoom_coordinate(grid, snap["xi_hat"], snap["s"])
                    snaps.append({**snap, "y": y, "W": data[f"snap{i}_W"],
                                  "Z": data[f"snap{i}_Z"]})
    except KeyError as err:  # np.load's message names the missing member
        raise SnapshotReadError(f"cannot read {path}: {err.args[0]}") from None
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise SnapshotReadError(f"cannot read {path}: {err}") from None
    refusal = schema_refusal(path, schema)
    if refusal:
        raise SnapshotReadError(refusal)
    return snaps


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Run one configured experiment and persist its artifacts.

    Writes run.jsonl (time series), summary.json (no timestamps; idempotent
    given the config), meta.json (wall-clock info), snapshots.npz when the
    run made snapshots (removing an earlier run's when it made none), and
    final_fields.csv.
    Returns the in-memory record.
    """
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    record = run_until_blowup(config.solver)
    record.config = config.to_dict()
    record.summary["edge_contact_t"] = dg.edge_contact_time(record)
    record.summary["ba_tightest"] = dg.tightest_margin(record)
    # both read diagnostics.fit_window, so both are defined or both null
    record.summary.update(T_star=None, fit_window_span=None)
    try:
        record.summary.update(T_star=dg.blowup_time(record)[0],
                              fit_window_span=dg.fit_window_span(record))
    except dg.DiagnosticUndefinedError as err:
        record.summary["diagnostic_note"] = str(err)

    record.write_jsonl(os.path.join(out_dir, "run.jsonl"))
    record.write_summary(os.path.join(out_dir, "summary.json"))
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"wall_seconds": time.perf_counter() - t0,
                   "finished_unix": time.time()}, f, indent=1)

    _save_snapshots(record, out_dir)
    if record.final_state is not None:
        st = record.final_state
        write_field_csv(os.path.join(out_dir, "final_fields.csv"),
                        st.grid, st.w, st.z)
    return record


def _sweep_row(run: ExperimentConfig, root):
    """Run a sweep row's run into root/<its config_hash>; its sweep.csv row."""
    row = {"config_hash": config_hash(run.to_dict()),
           **{f.name: getattr(run.solver, f.name)
              for f in fields(SweepConfig)},
           "status": "", "T_star": "", "rate": "", "min_sigma": "",
           "holder_max": "", "ba_w_ok": "", "ba_z_ok": "", "error": ""}
    out_dir = os.path.join(root, row["config_hash"])
    try:
        rec = run_experiment(run, out_dir)
        row["status"] = rec.status
        row["T_star"] = rec.summary.get("T_star")
        try:
            row["rate"] = dg.rate_fit(rec, rec.summary.get("T_star"))[0]
        except dg.DiagnosticUndefinedError:
            row["rate"] = ""
        row["min_sigma"] = dg.vacuum_check(rec, run.solver.sigma_inf)["min_sigma"]
        row["holder_max"] = float(np.max(rec.series("holder_w")))
        ba = dg.bootstrap_families(rec)
        row["ba_w_ok"], row["ba_z_ok"] = ba["ba_w"]["pass"], ba["ba_z"]["pass"]
    except Exception as err:  # crash isolation: a bad run keeps its row
        row["status"] = "error"
        row["error"] = repr(err)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error.txt"), "w") as f:
            f.write(traceback.format_exc())
    return row


def sweep(config: ExperimentConfig, max_workers=None):
    """Run the sweep cross-product in a fork pool of min(rows, max_workers
    or nproc) processes; one CSV row per run, in config_hash order."""
    # imported here, their only user, to keep them off every other import
    import csv
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    runs = config.runs()  # a refused row is refused before any row runs
    os.makedirs(config.out_dir, exist_ok=True)
    # a fork pool starts every worker at its first submit: none idle
    workers = min(len(runs), max_workers or os.cpu_count() or 1)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
        futs = [pool.submit(_sweep_row, run, config.out_dir) for run in runs]
        rows = sorted((fut.result() for fut in futs),
                      key=lambda r: r["config_hash"])
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows
