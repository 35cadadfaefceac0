import csv
import glob
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from sphereshock import cli, harness
from sphereshock import diagnostics as dg
from sphereshock import equivariant as eq
from sphereshock.config import ConfigError, ExperimentConfig, print_defaults
from sphereshock.equivariant import SolverConfig, initial_data
from sphereshock.harness import (SnapshotReadError, load_snapshots,
                                 run_experiment, sweep)
from sphereshock.profile import DERIV_BOUND_C
from sphereshock.records import (SCHEMA_VERSION, RunRecord, config_hash,
                                 write_field_csv, write_selfsim_csv)

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "*.json")))
FORMATS = os.path.join(os.path.dirname(__file__), "..", "FORMATS.md")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def small_config(tmp, **solver_overrides):
    solver = dict(n_cells=1024, tau0=1e-2, record_every=8,
                  blowup_slope_cap=300.0, emit_selfsim_ds=0.4)
    solver.update(solver_overrides)
    return ExperimentConfig.from_dict({"solver": solver,
                                       "out_dir": str(tmp)})


def test_record_roundtrip(tmp_path):
    rec = RunRecord(config={"solver": {"tau0": 1e-2}})
    rec.add_sample(t_tilde=0.0, max_slope=100.0)
    rec.add_sample(t_tilde=1e-4, max_slope=110.0)
    rec.status = "blew_up"
    path = tmp_path / "run.jsonl"
    rec.write_jsonl(path)
    back = RunRecord.read_jsonl(path)
    assert back.status == "blew_up"
    assert back.config == {"solver": {"tau0": 1e-2}}
    assert np.allclose(back.series("max_slope"), [100.0, 110.0])


def test_record_requires_increasing_time():
    rec = RunRecord(config={})
    rec.add_sample(t_tilde=0.5)
    with pytest.raises(ValueError):
        rec.add_sample(t_tilde=0.5)


def test_field_csv_columns(tmp_path):
    path = tmp_path / "fields.csv"
    write_field_csv(path, np.array([0.0, 0.1]), np.array([1.0, 1.2]),
                    np.array([-1.0, -1.1]))
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert list(rows[0].keys()) == ["theta_tilde", "w", "z", "sigma", "v"]
    assert float(rows[1]["sigma"]) == pytest.approx(1.15)


def _reference_csv(path, header, rows):
    # the csv.writer / f-string writer the fast writers must reproduce
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(header)
        for row in rows:
            out.writerow([f"{x:.17g}" for x in row])


@pytest.mark.parametrize("s", [0.25, np.float64(-np.log(1e-2)), -0.0])
def test_csv_writers_match_the_csv_module(tmp_path, s):
    a = np.array([0.0, -0.0, 1.0 / 3.0, -2.5e-300, 1e300, np.inf, -np.inf,
                  np.nan, 7.0, 123456789.125])
    b = np.roll(a, 3)[::-1].copy()
    c = np.array([1.5, -0.0, 0.0, np.nan, -1e-310, 2.0, 0.1, np.inf, -3.0,
                  0.7])
    write_field_csv(tmp_path / "f.csv", a, b, c)
    _reference_csv(tmp_path / "f_ref.csv",
                   ["theta_tilde", "w", "z", "sigma", "v"],
                   zip(a, b, c, 0.5 * (b - c), 0.5 * (b + c)))
    write_selfsim_csv(tmp_path / "s.csv", s, a, b, c, a[::-1])
    _reference_csv(tmp_path / "s_ref.csv",
                   ["s", "y", "W", "Z", "Wbar", "W_minus_Wbar"],
                   ((s, yi, Wi, Zi, wb, Wi - wb)
                    for yi, Wi, Zi, wb in zip(a, b, c, a[::-1])))
    for name in ("f", "s"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
        assert got.count(b"\r\n") == len(a) + 1


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 12


def test_a_float_field_given_as_an_integer_is_one_config(tmp_path):
    # a float field given as an int was kept an int, so one config had two
    # hashes, and a sweep over gamma [3, 2] two run directories per row
    records = []
    for cap, holder, gammas in ((300, 3, [3, 2]), (300.0, 3.0, [3.0, 2.0])):
        cfg = ExperimentConfig.from_dict(
            {"solver": {"n_cells": 512, "blowup_slope_cap": cap},
             "diagnostics": {"holder_cap": holder}, "sweep": {"gamma": gammas}})
        path = tmp_path / "run.jsonl"
        RunRecord(config=cfg.to_dict()).write_jsonl(path)
        records.append((path.read_bytes(), config_hash(cfg.to_dict()),
                        [config_hash(run.to_dict()) for run in cfg.runs()]))
    assert records[0] == records[1]


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"solver": {"nonsense_key": 1}})
    with pytest.raises(ConfigError):  # removed: extremal tracking is the only path
        ExperimentConfig.from_dict({"modulation": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": 0})  # removed: fed no randomness
    with pytest.raises(ConfigError):  # removed: one derived delta remains
        ExperimentConfig.from_dict({"solver": {"ext_grad_deltas": [0.1]}})
    # removed: module constants, or settings that only tests set
    retired = {"solver": ("slope_dt_frac", "dt_floor", "cut_inner", "cut_outer",
                          "pole_margin", "support_tol", "enforce_regime"),
               "diagnostics": ("clip_frac",)}
    defaults = json.loads(print_defaults())
    for block, keys in retired.items():
        for key in keys:
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_dict({block: {key: 1.0}})
        assert not set(keys) & set(defaults[block])
    # malformed values, each accepted once: a string holder_cap, thresholds
    # that are not finite and positive, and a scalar sweep axis, on which
    # sweep.size() raised TypeError (SolverConfig: test_config_validation)
    for block, key, value in (("diagnostics", "holder_cap", "x"),
                              ("diagnostics", "holder_cap", math.inf),
                              ("diagnostics", "holder_cap", True),
                              ("diagnostics", "rate_tol", -1),
                              ("diagnostics", "rate_tol", math.nan),
                              ("sweep", "tau0", 0.01)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({block: {key: value}})
    # removed in schema 12 with the self-similar CSVs it turned on
    with pytest.raises(ConfigError, match=r"unknown config keys.*snapshots_csv"):
        ExperimentConfig.from_dict({"snapshots_csv": True})
    assert "snapshots_csv" not in defaults
    for value in (5, None):
        with pytest.raises(ConfigError, match="out_dir"):
            ExperimentConfig.from_dict({"out_dir": value})
    # and from the solver block, once a TypeError or, for a bool, accepted
    for key, value in (("gamma", "3"), ("tau0", None), ("monitor_M", None),
                       ("sigma_inf", True)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"solver": {key: value}})
    cfg = ExperimentConfig.from_dict({"solver": {"tau0": 5e-3},
                                      "out_dir": "x"})
    assert cfg.out_dir == "x"
    assert cfg.solver.tau0 == 5e-3
    assert cfg.solver == SolverConfig(tau0=5e-3)
    assert cfg.solver.blowup_slope_cap != SolverConfig().blowup_slope_cap


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_loads(path):
    initial_data(ExperimentConfig.load(path).solver)


def test_print_defaults_parses():
    doc = json.loads(print_defaults())
    assert "solver" in doc and "sweep" in doc
    rebuilt = ExperimentConfig.from_dict(doc)
    assert rebuilt.solver.gamma == 3.0


def test_run_experiment_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    rec = run_experiment(cfg)
    assert rec.status == "blew_up"
    names = sorted(os.listdir(tmp_path))
    for required in ("run.jsonl", "summary.json", "meta.json",
                     "final_fields.csv", "snapshots.npz"):
        assert required in names
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "blew_up"
    assert summary["schema_version"] == SCHEMA_VERSION == 22
    assert "T_star" in summary and "seed" not in summary
    assert "edge_contact_t" in summary
    # the exterior gradient is taken outside a quarter of the domain width
    delta = 0.25 * (cfg.solver.theta_max - cfg.solver.theta_min)
    assert ([k for k in rec.samples[0] if k.startswith("ext_grad_")]
            == [f"ext_grad_{delta:g}"])
    snaps = load_snapshots(tmp_path)
    assert len(snaps) >= 2
    assert set(snaps[0]) == {"s", "t_tilde", "kappa", "tau", "xi_hat",
                             "beta_tau", "xi_dot", "beta2", "y", "W", "Z"}


def test_summary_names_the_tightest_bootstrap_margin(tmp_path, monkeypatch,
                                                    capsys):
    # each sample records its smallest ba_margins member and that member's
    # y from its bootstrap report; the summary keeps the run's smallest,
    # and diagnose prints it
    reports = []

    def kept(fld, consts, report=eq.bootstrap_report):
        reports.append(report(fld, consts))
        return reports[-1]

    monkeypatch.setattr(eq, "bootstrap_report", kept)
    rec = run_experiment(small_config(tmp_path, emit_selfsim_ds=None))
    assert len(reports) == len(rec.samples) > 10
    best = None
    for s, rep in zip(rec.samples, reports):
        margins = s["ba_margins"]
        assert margins[s["ba_tightest"]] == min(margins.values())
        assert s["ba_tightest_y"] == rep.worst[s["ba_tightest"]]
        if best is None or min(margins.values()) < best["margin"]:
            best = {"name": s["ba_tightest"], "margin": min(margins.values()),
                    "y": s["ba_tightest_y"], "t_tilde": s["t_tilde"]}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ba_tightest"] == best
    capsys.readouterr()
    cli.main(["diagnose", str(tmp_path / "run.jsonl")])
    assert (f"tightest margin   : {best['name']} {best['margin']:+.4g} at "
            f"y = {best['y']:.6g}, t~ = {best['t_tilde']:.8g}\n"
            in capsys.readouterr().out)


def test_summary_nulls_both_fits_when_the_window_is_unresolved(tmp_path):
    # at 1024 cells the first sample's max_slope (100) already exceeds the
    # resolution window's top (89.4), so no fit reads a resolved sample
    rec = run_experiment(ExperimentConfig.from_dict(
        {"solver": {"n_cells": 1024, "blowup_slope_cap": 160.0,
                    "record_every": 8}, "out_dir": str(tmp_path)}))
    assert rec.status == "blew_up"
    notes = set()
    for fit in (dg.blowup_time, dg.fit_window_span):
        with pytest.raises(dg.DiagnosticUndefinedError) as err:
            fit(rec)
        notes.add(str(err.value))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["T_star"] is None and summary["fit_window_span"] is None
    assert not {"T_star_refined", "tau_tracker_end"} & set(summary)
    assert notes == {summary["diagnostic_note"]}
    assert summary["diagnostic_note"] == ("0 < 10 samples with max_slope in "
                                          "the resolution window [8.938, 89.38]")


def _run_artifact_names():
    """The file names in FORMATS.md's run-artifact headings: the level-2
    headings before the one on the other commands' outputs."""
    with open(FORMATS) as f:
        text = f.read()
    text = text[:text.index("\n## Outputs of the other commands\n")]
    return {name for heading in re.findall(r"^## (.+)$", text, re.M)
            for name in heading.split(" + ")}


def test_formats_documents_each_run_artifact_and_no_other(tmp_path):
    # a deleted output must not leave its section behind, nor a new one
    # go without a section
    written = {}
    for ds in (None, 0.4):
        out = tmp_path / str(ds)
        run_experiment(small_config(out, n_cells=256, t_max=1e-4,
                                    emit_selfsim_ds=ds))
        written[ds] = set(os.listdir(out))
    assert written[0.4] - written[None] == {"snapshots.npz"}
    assert written[0.4] == _run_artifact_names()


def test_wall_seconds_survive_a_wall_clock_set_back(tmp_path, monkeypatch):
    # a wall clock that steps back mid-run once gave a negative wall_seconds:
    # here every reading of time.time is an hour before the last one
    clock = [1.7e9]

    def falling_clock():
        clock[0] -= 3600.0
        return clock[0]

    monkeypatch.setattr(time, "time", falling_clock)
    run_experiment(small_config(tmp_path, n_cells=256, t_max=1e-4))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["wall_seconds"] >= 0.0
    assert meta["finished_unix"] < 1.7e9  # still read from the wall clock


def test_run_experiment_deterministic(tmp_path):
    # identical config (including out_dir) => byte-identical outputs
    cfg = small_config(tmp_path / "a")
    run_experiment(cfg, str(tmp_path / "a"))
    jl1 = (tmp_path / "a" / "run.jsonl").read_bytes()
    s1 = (tmp_path / "a" / "summary.json").read_bytes()
    run_experiment(small_config(tmp_path / "a"), str(tmp_path / "a"))
    assert (tmp_path / "a" / "run.jsonl").read_bytes() == jl1
    assert (tmp_path / "a" / "summary.json").read_bytes() == s1


def test_summary_does_not_depend_on_out_dir(tmp_path, capsys):
    # one config written to two directories => one record.  The header once
    # recorded the run's out_dir, and its sweep block, which diagnose
    # replayed against the run's fixed domain: the tau0 = 2e-2 row did not
    # fit it, and a run that blew up was refused with exit 2
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(
            {"solver": {"n_cells": 2048}, "sweep": {"tau0": [1e-2, 2e-2]},
             "out_dir": str(tmp_path / name)}))
    for name in ("run.jsonl", "summary.json"):
        assert ((tmp_path / "b" / name).read_bytes()
                == (tmp_path / "a" / name).read_bytes())
    with open(tmp_path / "b" / "run.jsonl") as f:
        header = json.loads(f.readline())["config"]
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sorted(header) == ["diagnostics", "solver"]
    assert summary["config_hash"] == config_hash(header)
    assert cli.main(["diagnose", str(tmp_path / "b" / "run.jsonl")]) in (0, 1)
    assert "refused" not in capsys.readouterr().out


def _support_edges(rec):
    grid = dg._grid(rec)[0]
    return grid[3], grid[-4]  # the WENO5 stencil reach from either end


def test_edge_contact_recorded_and_diagnosed(tmp_path, capsys):
    # the curved run's z-deviation reaches the left grid edge before blow-up
    curved = run_experiment(small_config(tmp_path / "curved"))
    lo_edge, hi_edge = _support_edges(curved)
    summary = json.loads((tmp_path / "curved" / "summary.json").read_text())
    t_contact = summary["edge_contact_t"]
    assert t_contact is not None
    touching = [s["t_tilde"] for s in curved.samples
                if s["support_lo"] <= lo_edge or s["support_hi"] >= hi_edge]
    assert touching[0] == t_contact
    cli.main(["diagnose", str(tmp_path / "curved" / "run.jsonl")])
    assert f"edge contact      : t~ = {t_contact:.8g}\n" in capsys.readouterr().out

    # in flat mode z stays at the background and w stays interior
    flat = run_experiment(small_config(tmp_path / "flat", flat_mode=True,
                                       n_cells=2048, record_every=2))
    lo_edge, hi_edge = _support_edges(flat)
    summary = json.loads((tmp_path / "flat" / "summary.json").read_text())
    assert summary["edge_contact_t"] is None
    assert all(lo_edge < s["support_lo"] and s["support_hi"] < hi_edge
               for s in flat.samples)
    # its slope grows 3x, under a decade: only the rate flags fail
    assert cli.main(["diagnose", str(tmp_path / "flat" / "run.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "edge contact      : none\n" in out
    assert "rate exponent     : undefined: slope growth spans 3.01x" in out
    assert re.findall(r"\[FAIL\] (\w+)", out) == ["rate", "rate_span_decade"]


def test_empty_sweep_is_single_run(tmp_path):
    cfg = small_config(tmp_path)
    rows = sweep(cfg, max_workers=1)
    assert len(rows) == 1
    assert rows[0]["status"] == "blew_up"
    assert os.path.exists(tmp_path / "sweep.csv")


def test_sweep_cross_product_and_isolation(tmp_path, monkeypatch):
    # a config edited in code into a row its solver refuses is refused
    # before any row runs
    cfg = small_config(tmp_path / "refused")
    cfg.sweep.tau0 = [1e-2, -1.0]
    with pytest.raises(ConfigError,
                       match=r"^sweep row \{'tau0': -1\.0\}: tau0 must be "):
        sweep(cfg, max_workers=1)
    assert not (tmp_path / "refused").exists()
    # a row whose run raises keeps its row and its traceback
    def run_or_raise(run, out_dir):
        if run.solver.tau0 == 5e-3:
            raise FloatingPointError("row crashed")
        return run_experiment(run, out_dir)

    monkeypatch.setattr(harness, "run_experiment", run_or_raise)
    cfg = small_config(tmp_path)
    cfg.sweep.tau0 = [1e-2, 5e-3]
    rows = sweep(cfg, max_workers=1)
    assert len(rows) == 2
    statuses = sorted(r["status"] for r in rows)
    assert statuses == ["blew_up", "error"]
    hashes = [r["config_hash"] for r in rows]
    assert hashes == sorted(hashes)
    with open(tmp_path / "sweep.csv") as f:
        rows_csv = list(csv.DictReader(f))
    assert len(rows_csv) == 2
    failed = next(r for r in rows if r["status"] == "error")
    assert failed["tau0"] == 5e-3
    assert failed["error"] == "FloatingPointError('row crashed')"
    with open(tmp_path / failed["config_hash"] / "error.txt") as f:
        assert f.read().startswith("Traceback (most recent call last):")


def test_pool_sweep_matches_the_serial_sweep(tmp_path):
    cfg = small_config(tmp_path / "serial", n_cells=256)
    cfg.sweep.tau0 = [1e-2, 5e-3]
    sweep(cfg, max_workers=1)
    cfg.out_dir = str(tmp_path / "pool")
    rows = sweep(cfg, max_workers=2)
    assert sorted(r["status"] for r in rows) == ["blew_up", "blew_up"]
    serial, pool = ((tmp_path / d / "sweep.csv").read_bytes()
                    for d in ("serial", "pool"))
    assert pool == serial


def test_sweep_starts_no_more_workers_than_rows(tmp_path, monkeypatch):
    # a fork pool starts every worker at its first submit: 3 workers for 2
    # rows once started 3 processes, of which 2 ran
    import concurrent.futures
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness, "_sweep_row",
                        lambda run, root: {"config_hash": str(run.solver.tau0)})
    cfg = small_config(tmp_path)
    cfg.sweep.tau0 = [1e-2, 5e-3]
    sweep(cfg, max_workers=3)
    assert started == [2]


def test_a_sweep_row_is_the_run_it_makes(tmp_path):
    # a row was once named by the hash of the whole sweep block with its
    # overrides, so it changed with its sibling rows, and its summary.json
    # held a second hash, of a header that recorded the whole sweep block
    hashes = {}
    for tau0s in ([1e-2, 5e-3], [1e-2, 5e-3, 4e-3]):
        out = tmp_path / str(len(tau0s))
        cfg = ExperimentConfig.from_dict(
            {"solver": {"n_cells": 512, "blowup_slope_cap": 300.0},
             "sweep": {"tau0": tau0s}, "out_dir": str(out)})
        sweep(cfg, max_workers=1)
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert sorted(os.listdir(out)) == sorted(
            [r["config_hash"] for r in rows] + ["sweep.csv"])
        for row in rows:
            run = out / row["config_hash"]
            summary = json.loads((run / "summary.json").read_text())
            with open(run / "run.jsonl") as f:
                header = json.loads(f.readline())["config"]
            assert summary["config_hash"] == config_hash(header) == run.name
            assert sorted(header) == ["diagnostics", "solver"]
            hashes.setdefault(float(row["tau0"]), set()).add(run.name)
    assert [len(names) for names in hashes.values()] == [1, 1, 1]


def test_cli_diagnose_reads_every_sweep_row(tmp_path, capsys):
    # the tau0 = 5e-3 row's header once held the whole sweep block, whose
    # tau0 = 1e-2 row did not fit this row's derived domain: exit 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"tau0": [1e-2, 5e-3]},
                                    "out_dir": str(tmp_path / "runs")}))
    assert cli.main(["sweep", "--config", str(cfg_path),
                     "--workers", "1"]) == 0
    runs = sorted(glob.glob(str(tmp_path / "runs" / "*" / "run.jsonl")))
    assert len(runs) == 2
    for path in runs:
        capsys.readouterr()
        assert cli.main(["diagnose", path]) in (0, 1), capsys.readouterr().out


def test_sweep_refuses_a_repeated_axis_value(tmp_path, capsys):
    # both rows once ran under one config_hash, into one directory
    doc = {"sweep": {"tau0": [1e-2, 5e-3, 1e-2]}, "out_dir": str(tmp_path / "runs")}
    with pytest.raises(ConfigError, match=r"sweep axis tau0 repeats the value 0\.01"):
        ExperimentConfig.from_dict(doc)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and "tau0" in out[0]
    assert not (tmp_path / "runs").exists()


def test_sweep_rows_derive_unset_fields_from_their_tau0(tmp_path):
    cfg = small_config(tmp_path)
    cfg.sweep.tau0 = [1e-2, 5e-3]
    rows = sweep(cfg, max_workers=1)
    assert sorted(r["tau0"] for r in rows) == [5e-3, 1e-2]
    for row in rows:
        with open(tmp_path / row["config_hash"] / "run.jsonl") as f:
            solver = json.loads(f.readline())["config"]["solver"]
        assert solver["tau0"] == row["tau0"]
        assert solver["theta_min"] == -2.0 * row["tau0"]
        assert solver["t_max"] == 2.0 * row["tau0"]
        assert solver["blowup_slope_cap"] == 300.0  # set by the user, so kept


def test_cli_simulate_and_diagnose(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"solver": {"n_cells": 2048, "tau0": 1e-2, "record_every": 4,
                    "blowup_slope_cap": 1100.0},
         "diagnostics": {"holder_cap": 0.1},
         "out_dir": str(tmp_path / "run")}))
    rc = cli.main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    rc = cli.main(["diagnose", str(tmp_path / "run" / "run.jsonl")])
    # diagnose judges by the run's own holder_cap, and its T* is the summary's
    assert rc == 1
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    out = capsys.readouterr().out
    assert f"T*                : {summary['T_star']:.8g}\n" in out
    assert re.findall(r"\[FAIL\] (\w+)", out) == ["holder"]
    # the window that every fit read: [rw/10, rw] at 2048 cells, and its
    # span, which the summary records
    rec = RunRecord.read_jsonl(tmp_path / "run" / "run.jsonl")
    fitted = rec.series("max_slope")[dg.fit_window(rec)]
    assert summary["fit_window_span"] == fitted.max() / fitted.min()
    assert (f"fit window        : max_slope in [15.57, 155.7], {len(fitted)} "
            f"samples, span {summary['fit_window_span']:.1f}x\n") in out
    # FORMATS.md's flag table names the report's flags in order.  Under the
    # default holder_cap the run passes every flag, and the first sample's
    # dw0_resid past 10 dy^2 (3.8e-3 there) or its ba_z_pass false fails
    # that flag alone
    with open(FORMATS) as f:
        text = f.read()
    text = text[text.index("### diagnose flags"):]
    table = re.findall(r"^\| `(\w+)` \|", text[:text.index("\n#")], re.M)
    assert table == list(dg.blowup_report(rec, 2.5).flags)
    log = (tmp_path / "run" / "run.jsonl").read_text()
    header, first, *rest = log.splitlines(True)
    header = header.replace('"holder_cap": 0.1', '"holder_cap": 2.5')
    for edit, fails in (({}, []), ({"dw0_resid": 1.0}, ["profile_convergence"]),
                        ({"ba_z_pass": False}, ["bootstrap"])):
        path = tmp_path / "edited.jsonl"
        path.write_text("".join([header, json.dumps({**json.loads(first),
                                                     **edit}) + "\n", *rest]))
        assert cli.main(["diagnose", str(path)]) == (1 if fails else 0)
        assert re.findall(r"\[FAIL\] (\w+)", capsys.readouterr().out) == fails


def test_cli_simulate_writes_the_snapshots_once(tmp_path):
    run = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"solver": {"n_cells": 256, "t_max": 1e-4, "blowup_slope_cap": 300.0,
                    "emit_selfsim_ds": 0.4},
         "out_dir": str(run)}))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    with open(run / "run.jsonl") as f:
        header = json.loads(f.readline())["config"]
    assert sorted(header) == ["diagnostics", "solver"]
    assert header["solver"]["emit_selfsim_ds"] == 0.4
    summary = json.loads((run / "summary.json").read_text())
    assert summary["config_hash"] == config_hash(header)
    assert not glob.glob(str(run / "selfsim_*.csv"))
    snaps = load_snapshots(run)
    with np.load(run / "snapshots.npz") as data:
        assert sorted(data.files) == sorted(
            [f"snap{i}_{key}" for i in range(len(snaps)) for key in ("W", "Z")]
            + ["s", "t_tilde", "kappa", "tau", "xi_hat", "beta_tau", "xi_dot",
               "beta2", "theta_min", "theta_max", "n_cells", "schema"]
        )  # y and g are formed on load
        assert data["schema"] == SCHEMA_VERSION


@pytest.mark.parametrize("doc, refusal", [
    ({"solver": {"gamma": 0.5}}, "config refused: gamma"),
    ({"solver": {"theta_min": -0.004, "theta_max": 0.004}},
     "config refused: initial support does not fit inside the grid"),
    (None, "cannot read {cfg}: No such file or directory"),
    ('{"solver": ', "cannot read {cfg}: Expecting value"),
    ("[1, 2]", "config refused: a config must be a JSON object"),
    ({"solver": 3}, "config refused: the 'solver' block must be a JSON object"),
    ({"solver": {"n_cells": 100_000_000_000}},
     "config refused: n_cells=100000000000 exceeds 1048576"),
    ({"solver": {"theta_max": 1.3, "n_cells": 8192}},
     "config refused: the domain reaches latitude 1.586 by t_max"),
    ({}, "cannot write {cfg}: File exists"),
    ({"sweep": {"tau0": [0.01, 0.02]}},
     "config refused: sweep axes ['tau0'] are run by `sphereshock sweep`, "
     "not simulate")],
    ids=["config", "theta_range", "missing", "not_json", "not_object",
         "block_not_object", "n_cells_unbounded", "pole", "out_is_a_file",
         "sweep_axes"])
def test_cli_simulate_refuses_a_bad_config_in_one_line(tmp_path, capsys, doc,
                                                       refusal):
    # each once ended in a traceback: the first a ConfigError, the
    # missing, the malformed and the non-object file and block a
    # FileNotFoundError, a JSONDecodeError and a TypeError, the unbounded
    # n_cells an _ArrayMemoryError, the pole a PoleProximityError and an
    # --out that is a file a FileExistsError; the theta range was refused
    # after the output directory had been made, and a config with sweep axes
    # ran its solver block alone
    cfg_path = tmp_path / "cfg.json"
    if isinstance(doc, dict):
        doc = json.dumps({**doc, "out_dir": str(tmp_path / "run")})
    if doc is not None:
        cfg_path.write_text(doc)
    to = ["--out", str(cfg_path)] if refusal.startswith("cannot write") else []
    assert cli.main(["simulate", "--config", str(cfg_path), *to]) == 2
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert out.startswith(refusal.format(cfg=cfg_path))
    assert not (tmp_path / "run").exists()


def test_sweep_refuses_a_bad_axis_value_before_any_run(tmp_path, capsys):
    # the valid gamma row once ran to completion before the 0.5 row failed,
    # and the tau0 = 1e-2 row before the 5e-2 row's initial data was refused
    cfg_path = tmp_path / "cfg.json"
    for axis, refusal in (
            ({"gamma": [3.0, 0.5]}, "{'gamma': 0.5}: gamma must exceed 1"),
            ({"tau0": [0.01, 0.05]},
             "{'tau0': 0.05}: initial support exceeds the xi0/10 window")):
        doc = {"solver": {"n_cells": 256, "t_max": 1e-4,
                          "blowup_slope_cap": 300.0},
               "sweep": axis, "out_dir": str(tmp_path / "runs")}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(doc)
        assert str(err.value) == f"sweep row {refusal}"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [f"config refused: sweep row {refusal}"]
        assert not (tmp_path / "runs").exists()
    # a config file that is not there is refused in one line too
    assert cli.main(["sweep", "--config", str(tmp_path / "none.json")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"cannot read {tmp_path / 'none.json'}: No such file or directory"]
    # and so is an out_dir that is a file, once a FileExistsError traceback
    cfg_path.write_text(json.dumps({"out_dir": str(cfg_path)}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"cannot write {cfg_path}: File exists"]
    sweep_cfg = ExperimentConfig.from_dict(
        {"sweep": {"tau0": [1e-2, 5e-3], "n_cells": [1024, 2048, 4096]}})
    combos = sweep_cfg.sweep.combinations()
    assert len(combos) == len(sweep_cfg.runs()) == 6
    assert combos[:2] == [{"n_cells": 1024, "tau0": 1e-2},
                          {"n_cells": 1024, "tau0": 5e-3}]
    assert ExperimentConfig().sweep.combinations() == [{}]


def _header_line(**fields):
    """A run.jsonl header line of this build's schema."""
    return json.dumps({"type": "header", "schema_version": SCHEMA_VERSION,
                       **fields}) + "\n"


def test_cli_diagnose_refuses_a_run_of_another_schema(tmp_path, capsys):
    # a build reads only runs of its own schema
    run = tmp_path / "run"
    run_experiment(small_config(run, n_cells=512))
    header, *samples = (run / "run.jsonl").read_text().splitlines(True)
    row = json.loads(header)
    del row["schema_version"]
    path = tmp_path / "edited.jsonl"
    for found, head in (
            ("schema 21", [json.dumps({**row, "schema_version": 21}) + "\n"]),
            ("schema 23", [json.dumps({**row, "schema_version": 23}) + "\n"]),
            ("no schema", [json.dumps(row) + "\n"]),
            ("no schema", [])):  # no header at all
        path.write_text("".join(head + samples))
        assert cli.main(["diagnose", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{path} holds {found}, not schema {SCHEMA_VERSION}: rerun it"]


def test_cli_diagnose_refuses_a_schema_9_header(tmp_path, capsys):
    # every header before schema 10 names clip_frac in its diagnostics block;
    # such a run is refused by its schema before its config is read
    path = tmp_path / "run.jsonl"
    header = {"type": "header", "schema_version": 9, "status": "blew_up",
              "config": {"diagnostics": {"holder_cap": 2.5, "rate_tol": 0.05,
                                         "clip_frac": 0.02}}}
    path.write_text(json.dumps(header) + "\n")
    assert cli.main(["diagnose", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{path} holds schema 9, not schema {SCHEMA_VERSION}: rerun it"]


@pytest.mark.parametrize("text, refusal", [
    (_header_line(), "{path} has no run header with a solver config"),
    (_header_line(status="blew_up",
                  config={"diagnostics": {"holder_cap": 2.5}}),
     "{path} has no run header with a solver config"),
    (None, "cannot read {path}: No such file or directory"),
    (_header_line() + '{"t_tilde": \n',
     "cannot read {path}: line 2 is not JSON (Expecting value)"),
    (_header_line() + "3\n", "cannot read {path}: line 2 is not a JSON object"),
    (_header_line(config=3),
     "{path}: header config refused: a config must be a JSON object"),
    (_header_line(config={"solver": {}, "diagnostics": 3}),
     "{path}: header config refused: the 'diagnostics' block must be a JSON "
     "object"),
    (_header_line(config={"solver": {"theta_min": "x"}}),
     "{path}: header config refused: theta_min must be of type float"),
    (_header_line(config={"solver": {"n_cells": 100000000000}}),
     "{path}: header config refused: n_cells=100000000000 exceeds 1048576"),
    # a solver block that from_dict accepts takes the defaults it leaves out
    (_header_line(config={"solver": {}}),
     "edge contact      : none\n"
     "tightest margin   : none recorded\n"
     "diagnostics undefined: run ended with status 'unknown'"),
    # two run.jsonl files joined into one
    (2 * (_header_line(config={"solver": {}}) + '{"t_tilde": 0.001}\n'),
     "cannot read {path}: line 3 is a run header, which only line 1 may be"),
    # a sample that lacks a key, and one with no key at all
    (_header_line(config={"solver": {}}) + '{"t_tilde": 0.001, '
     '"max_slope": 3.0}\n{"t_tilde": 0.002}\n',
     "cannot read {path}: line 3 is a sample whose keys differ from the "
     "first's by ['max_slope']"),
    (_header_line(config={"solver": {}}) + '{"t_tilde": 0.001}\n'
     '{"type": "sample"}\n',
     "cannot read {path}: line 3 is a sample whose keys differ from the "
     "first's by ['t_tilde']")],
    ids=["empty", "no_solver", "missing", "not_json", "not_object",
         "config_not_object", "diagnostics_not_object", "bad_solver_value",
         "n_cells_unbounded", "solver_block_empty", "second_header",
         "sample_lacks_a_key", "sample_of_no_key"])
def test_cli_diagnose_without_a_run_header(tmp_path, capsys, text, refusal):
    # empty, no_solver and solver_block_empty once ended in a KeyError
    # traceback from edge_contact_time, config_not_object in an
    # AttributeError one, n_cells_unbounded in an _ArrayMemoryError; missing,
    # not_json and not_object in a FileNotFoundError, a JSONDecodeError and an
    # AttributeError traceback; second_header read the second header's config
    # with the samples of both runs; sample_lacks_a_key read series of two
    # keys out of step, and sample_of_no_key ended in a KeyError traceback
    path = tmp_path / "run.jsonl"
    if text is not None:
        path.write_text(text)
    assert cli.main(["diagnose", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == refusal.format(path=path).splitlines()


def test_cli_trajectories_without_snapshots(tmp_path, capsys):
    # a run without emit_selfsim_ds removes an earlier run's snapshots.npz,
    # which trajectories once read; no archive once ended in a traceback
    run = tmp_path / "run"
    run_experiment(small_config(run, n_cells=512))
    assert (run / "snapshots.npz").exists()
    run_experiment(small_config(run, n_cells=512, emit_selfsim_ds=None))
    assert not (run / "snapshots.npz").exists()
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0.05\n")
    capsys.readouterr()
    assert cli.main(["trajectories", "--from-run", str(run),
                     "--seeds", str(seeds)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and "emit_selfsim_ds" in out[0]


def _drop_members(path, drop, **members):
    """Write the npz archive at path again without each member whose name
    drop(name) is true, and with members in place of its own."""
    with np.load(path) as data:
        kept = {name: data[name] for name in data.files if not drop(name)}
    np.savez_compressed(path, **{**kept, **members})


def test_load_snapshots_refuses_an_archive_written_before_schema_21(tmp_path):
    run_experiment(small_config(tmp_path, n_cells=512))
    path = tmp_path / "snapshots.npz"
    # W and Z alone, as schemas 18 to 20 wrote them
    _drop_members(path, lambda name: not name.startswith("snap"))
    with pytest.raises(SnapshotReadError, match=(
            f"^{path} holds no schema, not schema 22: rerun it$")):
        load_snapshots(tmp_path)


def test_cli_trajectories_on_a_one_snapshot_run(tmp_path, capsys):
    # one slice once ended in "s_end must exceed s1"
    run = tmp_path / "run"
    run_experiment(small_config(run, n_cells=512, emit_selfsim_ds=100.0))
    assert len(load_snapshots(run)) == 1
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0.05\n")
    capsys.readouterr()
    assert cli.main(["trajectories", "--from-run", str(run),
                     "--seeds", str(seeds)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and "two snapshot slices, got 1" in out[0]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_load_snapshots_reads_the_archive_alone(tmp_path):
    # the scalars once came from snapshots_meta.json and the grid from the
    # run.jsonl header
    rec = run_experiment(small_config(tmp_path, n_cells=512))
    for name in os.listdir(tmp_path):
        if name != "snapshots.npz":
            os.remove(tmp_path / name)
    loaded = load_snapshots(tmp_path)
    assert len(loaded) == len(rec.snapshots) >= 2
    for mem, disk in zip(rec.snapshots, loaded):
        assert list(mem) == list(disk)
        for key, value in mem.items():
            assert np.array_equal(_bits(disk[key]), _bits(value)), key


@pytest.mark.parametrize("gamma", [3.0, 2.0])  # beta2 = 0 at gamma = 3
def test_loaded_snapshots_are_the_run_snapshots(tmp_path, gamma):
    # the benchmark's verify stage: y is formed again from the archive and
    # the transport offsets from W, Z and the scalars, bit for bit
    from sphereshock import trajectories as tr
    rec = run_experiment(small_config(tmp_path, gamma=gamma))
    loaded = load_snapshots(tmp_path)
    assert len(loaded) == len(rec.snapshots) >= 2
    for mem, disk in zip(rec.snapshots, loaded):
        assert mem.keys() == disk.keys()
        for key, value in mem.items():
            assert np.array_equal(_bits(disk[key]), _bits(value)), key
    for key in ("g_w", "g_z"):
        want = tr.FrozenTransportField.from_snapshots(rec.snapshots, key=key)
        got = tr.FrozenTransportField.from_snapshots(loaded, key=key)
        assert np.array_equal(_bits(got.s_slices), _bits(want.s_slices))
        for a, b in zip(got.y_slices + got.g_slices,
                        want.y_slices + want.g_slices):
            assert np.array_equal(_bits(a), _bits(b)), key


def _cli_trajectories(tmp_path, capsys, run, seeds="0.05\n"):
    """Exit code and stdout lines of `trajectories` on run."""
    path = tmp_path / "seeds.txt"
    path.write_text(seeds)
    capsys.readouterr()
    rc = cli.main(["trajectories", "--from-run", str(run), "--seeds",
                   str(path)])
    return rc, capsys.readouterr().out.splitlines()


def test_cli_trajectories_refuses_snapshots_it_cannot_read(tmp_path, capsys):
    run = tmp_path / "run"
    run_experiment(small_config(run, n_cells=512))
    # a seeds file that is not there once ended in a FileNotFoundError
    # traceback
    capsys.readouterr()
    assert cli.main(["trajectories", "--from-run", str(run), "--seeds",
                     str(tmp_path / "none.txt")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"cannot read {tmp_path / 'none.txt'}: No such file or directory"]
    # a truncated archive once ended in a BadZipFile traceback
    path = run / "snapshots.npz"
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])
    assert _cli_trajectories(tmp_path, capsys, run) == (
        2, [f"cannot read {path}: File is not a zip file"])
    # an archive without a member, and one of another schema or of none
    for drop, members, refusal in (
            (lambda name: name == "snap1_Z", {},
             f"cannot read {path}: snap1_Z is not a file in the archive"),
            (lambda name: name == "xi_dot", {},
             f"cannot read {path}: xi_dot is not a file in the archive"),
            (lambda name: False, {"schema": 21},
             f"{path} holds schema 21, not schema 22: rerun it"),
            (lambda name: False, {"schema": 23},
             f"{path} holds schema 23, not schema 22: rerun it"),
            (lambda name: name == "schema", {},
             f"{path} holds no schema, not schema 22: rerun it")):
        path.write_bytes(whole)
        _drop_members(path, drop, **members)
        assert _cli_trajectories(tmp_path, capsys, run) == (2, [refusal])
    path.write_bytes(whole)
    assert _cli_trajectories(tmp_path, capsys, run)[0] == 0
    # an --out that is a directory once ended in an IsADirectoryError
    # traceback
    assert cli.main(["trajectories", "--from-run", str(run), "--seeds",
                     str(tmp_path / "seeds.txt"), "--out", str(run)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"cannot write {run}: Is a directory"]


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_cli_trajectories_refuses_a_seed_that_is_not_finite(tmp_path, capsys,
                                                            bad):
    # "abc" once ended in a ValueError traceback, and nan and inf in a
    # "non-finite error estimate" one from integrate_trajectory
    run = tmp_path / "run"
    run_experiment(small_config(run, n_cells=512))
    rc, out = _cli_trajectories(tmp_path, capsys, run,
                                f"0.05\n# comment\n  {bad}  # why\n")
    assert rc == 2
    assert out == [f"{tmp_path / 'seeds.txt'}:3: seed {bad!r} is not a "
                   "finite number"]


def test_formats_header_example_has_the_schema_version():
    # and neither document names another schema: a build reads only runs of
    # its own, and CHANGES.md keeps the history of the earlier ones
    with open(FORMATS) as f, open(README) as g:
        formats, readme = f.read(), g.read()
    versions = re.findall(r'"type": "header", "schema_version": (\d+)',
                          formats)
    versions += re.findall(r"artifacts carry\s+`schema_version`\s+(\d+)",
                           readme)
    assert versions == [str(SCHEMA_VERSION)] * 2
    named = re.compile(r"schema(?:s| version|_version)?\W{0,3}(\d+)"
                       r"(?:\s+(?:to|and|or)\s+-?(\d+))?", re.I)
    for text in (formats, readme):
        numbers = [n for found in named.findall(text) for n in found if n]
        assert numbers and set(numbers) == {str(SCHEMA_VERSION)}


def test_cli_profile_table(tmp_path, capsys):
    rc = cli.main(["profile", "table", "--y1min", "-1", "--y1max", "1",
                   "--y2min", "0", "--y2max", "0", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "y1,y2,W,dW1,dW2,residual"
    assert len(out) == 10
    # each once ended in a traceback: a ValueError, and an IsADirectoryError
    # for an --out that is a directory
    for bad, refusal in ((["--n", "-1"], "--n must be a positive integer, got -1"),
                         (["--y1max", "nan"],
                          "--y1max must be a finite number, got nan"),
                         (["--out", str(tmp_path)],
                          f"cannot write {tmp_path}: Is a directory")):
        args = dict(zip(["--y1min", "--y1max", "--y2min", "--y2max", "--n"],
                        ["-1", "1", "0", "0", "3"]))
        args.update([bad])
        assert cli.main(["profile", "table", *sum(args.items(), ())]) == 2
        assert capsys.readouterr().out.splitlines() == [refusal]


def test_cli_ends_without_a_traceback_when_its_reader_leaves(tmp_path):
    # `diagnose run.jsonl | head -4` once ended in a BrokenPipeError
    # traceback; here the reader closes the pipe before the command writes
    read, write = os.pipe()
    os.close(read)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sphereshock.cli", "profile", "table",
             "--y1min", "-1", "--y1max", "1", "--y2min", "0", "--y2max", "0",
             "--n", "3"], stdout=write, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cli_profile_calibrate(capsys):
    # the frozen constants bound the measured suprema with at most 5% headroom
    rc = cli.main(["profile", "calibrate"])
    assert rc == 0
    measured = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        g1, g2, c = re.match(r"\s*\((\d),(\d)\)\s+(\S+)", line).groups()
        measured[(int(g1), int(g2))] = float(c)
    assert measured.keys() == DERIV_BOUND_C.keys()
    for gamma, c in measured.items():
        assert c <= DERIV_BOUND_C[gamma] <= 1.05 * c, gamma


def test_cli_check_geometry(capsys):
    rc = cli.main(["check-geometry", "--psi", "1.0", "--q12", "0.2",
                   "--q13", "-0.1", "--q23", "0.3", "--r0", "1.5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    # r0 = 0 once ended in a ValueError traceback, and a psi of nan passed
    for bad, refusal in (
            (["--r0", "0"], "--r0 refused: sphere radius out of range: "
             "r0 + 1/r0 must be <= 100, got r0=0.0"),
            (["--psi", "nan"], "--psi must be a finite number, got nan")):
        assert cli.main(["check-geometry", *bad]) == 2
        assert capsys.readouterr().out.splitlines() == [refusal]


def test_cli_print_defaults(capsys):
    rc = cli.main(["simulate", "--print-defaults"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"]["gamma"] == 3.0
    assert "seed" not in doc and "seed" not in doc["solver"]
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--seed", "1"])


def test_cli_trajectories_rows_are_the_library_paths(tmp_path):
    from sphereshock import trajectories as tr
    run_experiment(small_config(tmp_path / "run"))
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# starting points\n0.05\n\n   \n-0.3  # trailing\n"
                     "# 0.7\n  # 0.9, indented\n1e-3\n")
    out = tmp_path / "paths.csv"
    assert cli.main(["trajectories", "--from-run", str(tmp_path / "run"),
                     "--seeds", str(seeds), "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["y0", "s_end", "Phi_end", "wint_p0.5", "wint_p1",
                       "wint_p2"]
    field = tr.FrozenTransportField.from_snapshots(
        load_snapshots(tmp_path / "run"))
    s_lo, s_hi = field.s_span
    assert len(rows) == 4
    for row, y0 in zip(rows[1:], (0.05, -0.3, 1e-3)):
        path = tr.integrate_trajectory(field, s_lo, y0, s_hi)
        want = (y0, path.s_end, path(path.s_end),
                *(tr.weighted_integral(path, p) for p in (0.5, 1.0, 2.0)))
        assert row == [f"{v:.12g}" for v in want]
