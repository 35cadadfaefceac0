"""Experiment runner and parameter sweeps: reproducible runs with archived
configs, JSON-lines time series, npz snapshots, and concurrent sweep rows.
"""

from __future__ import annotations

import copy
import json
import os
import time
import traceback

import numpy as np

from . import diagnostics as dg
from .config import ExperimentConfig
from .equivariant import SolverConfig, initial_data, run_until_blowup
from .records import RunRecord, config_hash, write_field_csv
from .selfsim import zoom_coordinate
# unused here, but perfbench/spans.py wraps harness.write_selfsim_csv, and its
# Tracer.install() reads that name from this module's namespace
from .records import write_selfsim_csv  # noqa: F401


# the first schema whose snapshots hold the zoom-frame state alone
SNAPSHOT_SCHEMA = 14


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
    solver config in the run.jsonl header, formed on the grid and in the
    frame of the run's initial state as the run formed it."""
    for name in ("snapshots.npz", "snapshots_meta.json", "run.jsonl"):
        if not os.path.exists(os.path.join(out_dir, name)):
            raise SnapshotReadError(f"{out_dir} holds no {name}: rerun it "
                                    "with solver.emit_selfsim_ds set")
    with open(os.path.join(out_dir, "run.jsonl")) as f:
        header = json.loads(f.readline())
    version = header.get("schema_version")
    if not (isinstance(version, int) and version >= SNAPSHOT_SCHEMA):
        raise SnapshotReadError(
            f"{out_dir} was written at schema {version}, whose snapshots "
            f"predate schema {SNAPSHOT_SCHEMA}: rerun it")
    frame = initial_data(SolverConfig(**header["config"]["solver"]))
    with open(os.path.join(out_dir, "snapshots_meta.json")) as f:
        meta = json.load(f)
    snaps = []
    with np.load(os.path.join(out_dir, "snapshots.npz")) as data:
        for i, m in enumerate(meta):
            y = zoom_coordinate(frame.theta_abs(m["t_tilde"]), m["xi"], m["s"])
            snaps.append({**m, "y": y, "W": data[f"snap{i}_W"],
                          "Z": data[f"snap{i}_Z"]})
    return snaps


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
    if hasattr(record, "final_state"):
        st = record.final_state
        write_field_csv(os.path.join(out_dir, "final_fields.csv"),
                        st.grid, st.w, st.z)
    return record


def _sweep_row(config: ExperimentConfig, overrides, out_root):
    shown = {**{k: getattr(config.solver, k)
                for k in ("gamma", "tau0", "n_cells", "xi0")}, **overrides}
    row = {"config_hash": config_hash({**config.to_dict(), "overrides": overrides}),
           "gamma": shown["gamma"], "tau0": shown["tau0"],
           "n_cells": shown["n_cells"], "xi0": shown["xi0"],
           "status": "", "T_star": "", "rate": "",
           "min_sigma": "", "holder_max": "", "ba_w_ok": "", "ba_z_ok": "",
           "error": ""}
    out_dir = os.path.join(out_root, row["config_hash"])
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
        row["min_sigma"] = float(np.min(rec.series("min_sigma")))
        row["holder_max"] = float(np.max(rec.series("holder_w")))
        row["ba_w_ok"] = all(s["ba_w_pass"] for s in rec.samples)
        row["ba_z_ok"] = all(s["ba_z_pass"] for s in rec.samples)
    except Exception as err:  # crash isolation: a bad run keeps its row
        row["status"] = "error"
        row["error"] = repr(err)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error.txt"), "w") as f:
            f.write(traceback.format_exc())
    return row


def sweep(config: ExperimentConfig, out_root=None, max_workers=None):
    """Run the sweep cross-product concurrently; one CSV row per run."""
    # imported here, their only user, to keep them off every other import
    import csv
    from concurrent.futures import ProcessPoolExecutor, as_completed

    out_root = out_root or config.out_dir
    os.makedirs(out_root, exist_ok=True)
    combos = config.sweep.combinations()
    rows = []
    if len(combos) == 1 or (max_workers is not None and max_workers <= 1):
        for overrides in combos:
            rows.append(_sweep_row(config, overrides, out_root))
    else:
        workers = max_workers or min(len(combos), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_sweep_row, config, overrides, out_root)
                    for overrides in combos]
            for fut in as_completed(futs):
                rows.append(fut.result())
    rows.sort(key=lambda r: r["config_hash"])
    path = os.path.join(out_root, "sweep.csv")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return rows
