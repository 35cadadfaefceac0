"""Experiment runner and parameter sweeps: reproducible runs with archived
configs, JSON-lines time series, npz snapshots, and concurrent sweep rows.
"""

from __future__ import annotations

import copy
import json
import os
import time
import traceback
import zipfile
import zlib

import numpy as np

from . import diagnostics as dg
from .config import ConfigError, ExperimentConfig, header_config
from .equivariant import run_until_blowup
from .records import RunRecord, config_hash, write_field_csv
from .selfsim import zoom_coordinate
# unused here, but perfbench/spans.py wraps harness.write_selfsim_csv, and its
# Tracer.install() reads that name from this module's namespace
from .records import write_selfsim_csv  # noqa: F401


# the first schema whose snapshots centre the zoom frame at xi_hat on the
# co-moving grid
SNAPSHOT_SCHEMA = 18


class SnapshotReadError(ValueError):
    """A run directory whose snapshots this build cannot read."""


def _save_snapshots(record: RunRecord, out_dir):
    if not record.snapshots:
        return
    arrays = {}
    meta = []
    for i, snap in enumerate(record.snapshots):
        arrays[f"snap{i}_W"], arrays[f"snap{i}_Z"] = snap["W"], snap["Z"]
        meta.append({k: v for k, v in snap.items() if k not in ("y", "W", "Z")})
    np.savez_compressed(os.path.join(out_dir, "snapshots.npz"), **arrays)
    with open(os.path.join(out_dir, "snapshots_meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True, indent=1)


def load_snapshots(out_dir):
    """Rebuild the snapshot list persisted by run_experiment: W and Z from
    snapshots.npz, the scalars from snapshots_meta.json, and y from the
    solver config in the run.jsonl header, formed on the co-moving grid at
    xi_hat as the run formed it."""
    for name in ("snapshots.npz", "snapshots_meta.json", "run.jsonl"):
        if not os.path.exists(os.path.join(out_dir, name)):
            raise SnapshotReadError(f"{out_dir} holds no {name}: rerun it "
                                    "with solver.emit_selfsim_ds set")
    path = os.path.join(out_dir, "run.jsonl")
    with open(path) as f:
        line = f.readline()
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if type(header) is not dict or header.get("type") != "header":
        raise SnapshotReadError(f"{path} has no run header with a solver "
                                "config")
    version = header.get("schema_version")
    if not (isinstance(version, int) and version >= SNAPSHOT_SCHEMA):
        raise SnapshotReadError(
            f"{out_dir} was written at schema {version}, whose snapshots "
            f"predate schema {SNAPSHOT_SCHEMA}: rerun it")
    try:
        cfg = header_config(path, header.get("config", {}), version)
    except ConfigError as err:
        raise SnapshotReadError(str(err)) from None
    solver = cfg.solver
    grid = np.linspace(solver.theta_min, solver.theta_max, solver.n_cells)
    path = os.path.join(out_dir, "snapshots_meta.json")
    try:
        with open(path) as f:
            meta = json.load(f)
        path = os.path.join(out_dir, "snapshots.npz")
        # opened here: np.load leaves a file that is not a zip open
        with open(path, "rb") as f, np.load(f) as data:
            fields = [(data[f"snap{i}_W"], data[f"snap{i}_Z"])
                      for i in range(len(meta))]
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise SnapshotReadError(f"cannot read {path}: {err}") from None
    return [{**m, "y": zoom_coordinate(grid, m["xi_hat"], m["s"]),
             "W": W, "Z": Z} for m, (W, Z) in zip(meta, fields)]


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Run one configured experiment and persist its artifacts.

    Writes run.jsonl (time series), summary.json (no timestamps; idempotent
    given the config), meta.json (wall-clock info), snapshots.npz with
    snapshots_meta.json when the run made snapshots, and final_fields.csv.
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


def _sweep_row(config: ExperimentConfig, overrides):
    shown = {**{k: getattr(config.solver, k)
                for k in ("gamma", "tau0", "n_cells", "xi0")}, **overrides}
    row = {"config_hash": config_hash({**config.to_dict(), "overrides": overrides}),
           "gamma": shown["gamma"], "tau0": shown["tau0"],
           "n_cells": shown["n_cells"], "xi0": shown["xi0"],
           "status": "", "T_star": "", "rate": "",
           "min_sigma": "", "holder_max": "", "ba_w_ok": "", "ba_z_ok": "",
           "error": ""}
    out_dir = os.path.join(config.out_dir, row["config_hash"])
    try:
        # copied, not dataclasses.replace'd: that would check every row again
        config = copy.copy(config)
        config.solver = config.solver.replace(**overrides)
        rec = run_experiment(config, out_dir)
        row["status"] = rec.status
        row["T_star"] = rec.summary.get("T_star")
        try:
            row["rate"] = dg.rate_fit(rec, rec.summary.get("T_star"))[0]
        except dg.DiagnosticUndefinedError:
            row["rate"] = ""
        row["min_sigma"] = dg.vacuum_check(
            rec, config.solver.sigma_inf)["min_sigma"]
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
    """Run the sweep cross-product concurrently; one CSV row per run."""
    # imported here, their only user, to keep them off every other import
    import csv
    from concurrent.futures import ProcessPoolExecutor, as_completed

    os.makedirs(config.out_dir, exist_ok=True)
    combos = config.sweep.combinations()
    rows = []
    if len(combos) == 1 or (max_workers is not None and max_workers <= 1):
        for overrides in combos:
            rows.append(_sweep_row(config, overrides))
    else:
        workers = max_workers or min(len(combos), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_sweep_row, config, overrides)
                    for overrides in combos]
            for fut in as_completed(futs):
                rows.append(fut.result())
    rows.sort(key=lambda r: r["config_hash"])
    path = os.path.join(config.out_dir, "sweep.csv")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows
