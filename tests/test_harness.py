import csv
import glob
import json
import os
import re

import numpy as np
import pytest

from sphereshock import cli
from sphereshock.config import ConfigError, ExperimentConfig, print_defaults
from sphereshock.equivariant import initial_data
from sphereshock.harness import load_snapshots, run_experiment, sweep
from sphereshock.profile import DERIV_BOUND_C
from sphereshock.records import (SCHEMA_VERSION, RunRecord, config_hash,
                                 write_field_csv, write_selfsim_csv)

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                        "configs", "*.json")))


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
    retired = ("slope_dt_frac", "dt_floor", "cut_inner", "cut_outer",
               "pole_margin", "support_tol")  # removed: module constants
    for key in retired:
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"solver": {key: 1.0}})
    assert not set(retired) & set(json.loads(print_defaults())["solver"])
    cfg = ExperimentConfig.from_dict({"solver": {"tau0": 5e-3}})
    assert cfg.solver.tau0 == 5e-3
    assert cfg.solver.blowup_slope_cap == pytest.approx(1e4 / 5e-3)


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
    assert summary["schema_version"] == SCHEMA_VERSION == 9
    assert "T_star" in summary and "seed" not in summary
    assert "edge_contact_t" in summary
    # the exterior gradient is taken outside a quarter of the domain width
    delta = 0.25 * (cfg.solver.theta_max - cfg.solver.theta_min)
    assert ([k for k in rec.samples[0] if k.startswith("ext_grad_")]
            == [f"ext_grad_{delta:g}"])
    snaps = load_snapshots(tmp_path)
    assert len(snaps) >= 2
    assert {"s", "y", "W", "Z", "g_w"} <= set(snaps[0])


def test_run_experiment_deterministic(tmp_path):
    # identical config (including out_dir) => byte-identical outputs
    cfg = small_config(tmp_path / "a")
    run_experiment(cfg, str(tmp_path / "a"))
    jl1 = (tmp_path / "a" / "run.jsonl").read_bytes()
    s1 = (tmp_path / "a" / "summary.json").read_bytes()
    run_experiment(small_config(tmp_path / "a"), str(tmp_path / "a"))
    assert (tmp_path / "a" / "run.jsonl").read_bytes() == jl1
    assert (tmp_path / "a" / "summary.json").read_bytes() == s1


def test_summary_does_not_depend_on_out_dir(tmp_path):
    # same physics written to two directories => one hash, one summary
    for name in ("a", "b"):
        run_experiment(small_config(tmp_path / name))
    s_a = (tmp_path / "a" / "summary.json").read_bytes()
    assert (tmp_path / "b" / "summary.json").read_bytes() == s_a
    with open(tmp_path / "b" / "run.jsonl") as f:
        header = json.loads(f.readline())
    assert header["config"]["out_dir"] == str(tmp_path / "b")


def _support_edges(rec):
    solver = rec.config["solver"]
    grid = np.linspace(solver["theta_min"], solver["theta_max"],
                       solver["n_cells"])
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
    flat = run_experiment(small_config(tmp_path / "flat", flat_mode=True))
    lo_edge, hi_edge = _support_edges(flat)
    summary = json.loads((tmp_path / "flat" / "summary.json").read_text())
    assert summary["edge_contact_t"] is None
    assert all(lo_edge < s["support_lo"] and s["support_hi"] < hi_edge
               for s in flat.samples)
    cli.main(["diagnose", str(tmp_path / "flat" / "run.jsonl")])
    assert "edge contact      : none\n" in capsys.readouterr().out


def test_empty_sweep_is_single_run(tmp_path):
    cfg = small_config(tmp_path)
    rows = sweep(cfg, str(tmp_path), max_workers=1)
    assert len(rows) == 1
    assert rows[0]["status"] == "blew_up"
    assert os.path.exists(tmp_path / "sweep.csv")


def test_sweep_cross_product_and_isolation(tmp_path):
    cfg = small_config(tmp_path)
    cfg.sweep.tau0 = [1e-2, -1.0]  # second run is invalid -> error row
    rows = sweep(cfg, str(tmp_path), max_workers=1)
    assert len(rows) == 2
    statuses = sorted(r["status"] for r in rows)
    assert statuses == ["blew_up", "error"]
    hashes = [r["config_hash"] for r in rows]
    assert hashes == sorted(hashes)
    with open(tmp_path / "sweep.csv") as f:
        rows_csv = list(csv.DictReader(f))
    assert len(rows_csv) == 2
    failed = next(r for r in rows if r["status"] == "error")
    with open(tmp_path / failed["config_hash"] / "error.txt") as f:
        assert "ConfigError" in f.read()


def test_sweep_rows_derive_unset_fields_from_their_tau0(tmp_path):
    cfg = small_config(tmp_path)
    cfg.sweep.tau0 = [1e-2, 5e-3]
    rows = sweep(cfg, str(tmp_path), max_workers=1)
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
        {"solver": {"n_cells": 1024, "tau0": 1e-2, "record_every": 4,
                    "blowup_slope_cap": 1100.0},
         "diagnostics": {"clip_frac": 0.2},
         "out_dir": str(tmp_path / "run")}))
    rc = cli.main(["simulate", "--config", str(cfg_path)])
    assert rc == 0
    rc = cli.main(["diagnose", str(tmp_path / "run" / "run.jsonl")])
    assert rc in (0, 1)  # verdict exit code, not a crash
    # diagnose fits with the run's own clip_frac, so its T* is the summary's
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    out = capsys.readouterr().out
    assert f"T*                : {summary['T_star']:.8g}\n" in out


def test_cli_profile_table(tmp_path, capsys):
    rc = cli.main(["profile", "table", "--y1min", "-1", "--y1max", "1",
                   "--y2min", "0", "--y2max", "0", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "y1,y2,W,dW1,dW2,residual"
    assert len(out) == 10


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


def test_cli_print_defaults(capsys):
    rc = cli.main(["simulate", "--print-defaults"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"]["gamma"] == 3.0
    assert "seed" not in doc and "seed" not in doc["solver"]
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--seed", "1"])
