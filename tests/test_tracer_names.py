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


def test_traced_names_stay_on_their_call_paths():
    spans = _load_spans()
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = eq.SolverConfig(n_cells=1024, tau0=1e-2, record_every=8,
                              blowup_slope_cap=300.0, emit_selfsim_ds=0.4)
        rec = eq.run_until_blowup(cfg)
        field = tr.FrozenTransportField.from_snapshots(rec.snapshots)
        s_lo, s_hi = field.s_span
        tr.integrate_trajectory(field, s_lo, 0.05, s_hi, tol=1e-8)
    finally:
        tracer.uninstall()

    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    for name in (*spans._MONITORS, "util.lagrange_value_and_derivs",
                 "profile.w1d_jet", "weno.deriv1_c4"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counts["trajectories.field_evals"] > 0
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, (owner, attr)
