"""Tier-1 guard for the benchmark tracer: every name that perfbench/spans.py
wraps is still looked up on the call path it measures.

A refactor that stops calling a traced name through the namespace the tracer
patches would otherwise pass these tests and fail only under
`perfbench/run.py --trace 1`, as a coverage gap.  spans.py is loaded from
its file and not modified.
"""

import importlib.util
from pathlib import Path

from sphereshock import equivariant as eq
from sphereshock import trajectories as tr

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(run):
    """Span counts, counters and spans of run() under the benchmark's
    Tracer; every wrapped attribute is the original again afterwards."""
    spans = _load_spans()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, (owner, attr)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    return spans, calls, tracer.counts, tracer.spans


def _record_stepped_widths(monkeypatch, cfg):
    """The width of each step's stepped range, counted outside the tracer:
    the state's window widened by WINDOW_MARGIN, clipped to the grid."""
    widths = []
    step = eq.step

    def recording_step(state, *args, **kwargs):
        new = step(state, *args, **kwargs)
        lo, hi = state.window
        widths.append(min(hi + eq.WINDOW_MARGIN, cfg.n_cells)
                      - max(lo - eq.WINDOW_MARGIN, 0))
        return new

    monkeypatch.setattr(eq, "step", recording_step)
    return widths


def test_traced_names_stay_on_their_call_paths(monkeypatch):
    cfg = eq.SolverConfig(n_cells=1024, tau0=1e-2, record_every=8,
                          blowup_slope_cap=300.0, emit_selfsim_ds=0.4)
    widths = _record_stepped_widths(monkeypatch, cfg)

    def run():
        rec = eq.run_until_blowup(cfg)
        field = tr.FrozenTransportField.from_snapshots(rec.snapshots)
        s_lo, s_hi = field.s_span
        tr.integrate_trajectory(field, s_lo, 0.05, s_hi, tol=1e-8)

    spans, calls, counts, records = _traced(run)
    # the kernel counters the benchmark reports: one rhs and one kernel call
    # per RK4 stage, each differencing w and z on the step's stepped range
    steps = calls.get("equivariant.step", 0)
    assert steps > 0 and len(widths) == steps
    kernel = calls.get("weno.weno5_upwind_derivative")
    assert calls.get("equivariant.rhs") == kernel == 4 * steps
    assert counts["weno.weno5_nodes"] == 2 * 4 * sum(widths)
    assert counts["weno.weno5_nodes"] < 2 * cfg.n_cells * kernel
    for name in (*spans._MONITORS, "util.lagrange_value_and_derivs",
                 "profile.w1d_jet", "weno.deriv1_c4"):
        assert calls.get(name, 0) > 0, name
    assert counts["trajectories.field_evals"] > 0
    # the profile jet is timed inside the sample's transform
    assert all(parent >= 0 and records[parent][0] == "selfsim.to_selfsimilar"
               for name, _, _, parent in records if name == "profile.w1d_jet")


def test_flat_run_stays_on_the_traced_names(monkeypatch):
    # the flat_oracle workload's path: one rhs and one kernel call per RK4
    # stage, differencing w alone on the stepped range, and every sampling
    # monitor
    cfg = eq.SolverConfig(n_cells=256, flat_mode=True, blowup_slope_cap=150.0)
    widths = _record_stepped_widths(monkeypatch, cfg)
    spans, calls, counts, _ = _traced(lambda: eq.run_until_blowup(cfg))
    steps = calls.get("equivariant.step", 0)
    assert steps > 0 and len(widths) == steps
    assert (calls.get("equivariant.rhs") == 4 * steps
            == calls.get("weno.weno5_upwind_derivative"))
    assert counts["weno.weno5_nodes"] == 4 * sum(widths)
    for name in (*spans._MONITORS, "equivariant.support_bounds",
                 "util.lagrange_value_and_derivs", "profile.w1d_jet",
                 "weno.deriv1_c4"):
        assert calls.get(name, 0) > 0, name
