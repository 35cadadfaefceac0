"""Outside-in tracing of the sphereshock layers.

A Tracer replaces package functions with wrappers that record a span
(name, start, end, parent span) per call, plus optional counters.  Each
wrapper is bound where the caller looks the name up: `equivariant` imports
most of its helpers with `from ... import`, so those names are replaced in
`equivariant`'s namespace, while `selfsim` reaches `profile.w1d_jet` through
the module and `harness` calls `dg.*` through the module.  uninstall()
restores every original, so an untraced round runs the plain package.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sphereshock import (diagnostics, equivariant, harness, modulation,
                         profile, records, selfsim, trajectories)


def _size(args, result):
    return int(np.size(args[0]))


def _path_nodes(args, result):
    return len(result.s)


# (owner, attribute, span name, counter name, counter function)
# A span name of None records a count only (hot scalar callables).
TARGETS = [
    (equivariant, "step", "equivariant.step", None, None),
    (equivariant, "rhs", "equivariant.rhs", None, None),
    (equivariant, "support_bounds", "equivariant.support_bounds", None, None),
    (equivariant, "weno5_upwind_derivative", "weno.weno5_upwind_derivative",
     "weno.weno5_nodes", _size),
    (equivariant, "deriv1_c4", "weno.deriv1_c4", None, None),
    (modulation, "deriv1_c4", "weno.deriv1_c4", None, None),
    (equivariant, "to_selfsimilar", "selfsim.to_selfsimilar", None, None),
    (equivariant, "bootstrap_report", "selfsim.bootstrap_report", None, None),
    (equivariant, "profile_distance", "selfsim.profile_distance", None, None),
    (equivariant, "normalization_check", "selfsim.normalization_check",
     None, None),
    (profile, "w1d_jet", "profile.w1d_jet", "profile.w1d_points", _size),
    (equivariant, "lagrange_value_and_derivs", "util.lagrange_value_and_derivs",
     None, None),
    (selfsim, "lagrange_value_and_derivs", "util.lagrange_value_and_derivs",
     None, None),
    (modulation, "lagrange_value_and_derivs", "util.lagrange_value_and_derivs",
     None, None),
    (equivariant, "holder_seminorm", "diagnostics.holder_seminorm", None, None),
    (equivariant, "track_extremal", "modulation.track_extremal", None, None),
    (equivariant, "constraints_from_field", "modulation.constraints_from_field",
     None, None),
    (equivariant, "_z_origin_jet", "modulation.z_origin_jet", None, None),
    (equivariant, "ode_rhs", "modulation.ode_rhs", None, None),
    (harness, "run_experiment", "harness.run_experiment", None, None),
    (harness, "run_until_blowup", "equivariant.run_until_blowup", None, None),
    (harness, "write_field_csv", "records.write_field_csv", None, None),
    (harness, "write_selfsim_csv", "records.write_selfsim_csv", None, None),
    (harness, "_save_snapshots", "records.save_snapshots", None, None),
    (harness, "load_snapshots", "records.load_snapshots", None, None),
    (records.RunRecord, "write_jsonl", "records.write_jsonl", None, None),
    (records.RunRecord, "write_summary", "records.write_summary", None, None),
    (records.RunRecord, "read_jsonl", "records.read_jsonl", None, None),
    (diagnostics, "blowup_report", "diagnostics.blowup_report", None, None),
    (diagnostics, "blowup_time", "diagnostics.blowup_time", None, None),
    (diagnostics, "blowup_time_refined", "diagnostics.blowup_time_refined",
     None, None),
    (diagnostics, "rate_fit", "diagnostics.rate_fit", None, None),
    (diagnostics, "location_report", "diagnostics.location_report", None, None),
    (diagnostics, "vacuum_check", "diagnostics.vacuum_check", None, None),
    (trajectories, "integrate_trajectory", "trajectories.integrate_trajectory",
     "trajectories.nodes", _path_nodes),
    (trajectories, "growth_certificate", "trajectories.growth_certificate",
     None, None),
    (trajectories, "weighted_integral", "trajectories.weighted_integral",
     None, None),
    (trajectories.FrozenTransportField, "__call__", None,
     "trajectories.field_evals", None),
]


class Tracer:
    """Spans and counters of one process; install() wraps TARGETS."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter, count_fn):
        counts = self.counts
        if name is None:
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counts[counter] += count_fn(args, result)
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter, count_fn in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, counter, count_fn))
            else:
                new = self._wrap(raw, name, counter, count_fn)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def export(self):
        """Picklable (spans, counts) for shipping out of a pool worker."""
        return [tuple(s) for s in self.spans], dict(self.counts)


class Profile:
    """Aggregates of one or more span trees (one per process)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.verdict_s = 0.0   # outermost diagnostics calls of the verify stage

    def add(self, spans, counts):
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_s[name] += dur - child[i]
            self.max_s[name] = max(self.max_s[name], dur)
            if (name.startswith("diagnostics.") and parent >= 0
                    and not spans[parent][0].startswith("diagnostics.")
                    and _under(spans, i, "stage.verify")):
                self.verdict_s += dur
        for k, v in counts.items():
            self.counts[k] += v

    def table(self):
        return {name: {"calls": self.calls[name], "incl_s": self.incl[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.incl, key=lambda n: -self.self_s[n])}


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


# per-layer metric -> (unit, workloads that must exercise it)
ALL = ("blowup", "tau_sweep", "flat_oracle")
LAYER_METRICS = {
    "equivariant.steps": ("count", ALL),
    "equivariant.step_s": ("s", ALL),
    "equivariant.step_ms": ("ms", ALL),
    "equivariant.rhs_calls": ("count", ALL),
    "equivariant.support_bounds_s": ("s", ALL),
    "equivariant.loop_self_s": ("s", ALL),
    "weno.weno5_s": ("s", ALL),
    "weno.weno5_calls": ("count", ALL),
    "weno.weno5_nodes": ("count", ALL),
    "weno.deriv1_c4_s": ("s", ALL),
    "selfsim.samples": ("count", ALL),
    "selfsim.sample_us": ("us", ALL),
    "selfsim.transform_s": ("s", ALL),
    "selfsim.bootstrap_s": ("s", ALL),
    "selfsim.distance_s": ("s", ALL),
    "selfsim.normalization_s": ("s", ALL),
    "profile.w1d_jet_s": ("s", ALL),
    "profile.w1d_points": ("count", ALL),
    "util.lagrange_calls": ("count", ALL),
    "util.lagrange_s": ("s", ALL),
    "diagnostics.holder_s": ("s", ALL),
    "modulation.track_s": ("s", ALL),
    "modulation.ode_monitor_s": ("s", ALL),
    "harness.persist_s": ("s", ("blowup",)),
    "records.write_s": ("s", ("blowup",)),
    "records.bytes_written": ("bytes", ("blowup",)),
    "records.read_s": ("s", ("blowup",)),
    "diagnostics.verdict_s": ("s", ("blowup",)),
    "trajectories.paths": ("count", ("blowup",)),
    "trajectories.nodes": ("count", ("blowup",)),
    "trajectories.field_evals": ("count", ("blowup",)),
    "trajectories.integrate_s": ("s", ("blowup",)),
    "trajectories.certificate_s": ("s", ("blowup",)),
    "harness.pool_busy_frac": ("fraction", ALL),
    "harness.row_s_max": ("s", ALL),
    "stage.verify_s": ("s", ALL),
    "trace.overhead_s": ("s", ()),
}

_MONITORS = ("selfsim.to_selfsimilar", "selfsim.bootstrap_report",
             "selfsim.profile_distance", "selfsim.normalization_check",
             "diagnostics.holder_seminorm", "modulation.track_extremal",
             "modulation.constraints_from_field", "modulation.z_origin_jet",
             "modulation.ode_rhs")


def layer_metrics(prof: Profile, extra):
    """Per-layer metric values from a profile plus benchmark-side figures
    (bytes written, verify time, worker count, tracing overhead) in
    `extra`.  A run_experiment call is a pool row in tau_sweep and the one
    run of the other workloads; pool_busy_frac is the share of the run
    stage's worker time spent in such calls."""
    c, inc = prof.calls, prof.incl
    steps = c["equivariant.step"]
    samples = c["selfsim.to_selfsimilar"]
    out = {
        "equivariant.steps": steps,
        "equivariant.step_s": inc["equivariant.step"],
        "equivariant.step_ms": 1e3 * inc["equivariant.step"] / steps if steps else 0.0,
        "equivariant.rhs_calls": c["equivariant.rhs"],
        "equivariant.support_bounds_s": inc["equivariant.support_bounds"],
        "equivariant.loop_self_s": prof.self_s["equivariant.run_until_blowup"],
        "weno.weno5_s": inc["weno.weno5_upwind_derivative"],
        "weno.weno5_calls": c["weno.weno5_upwind_derivative"],
        "weno.weno5_nodes": prof.counts["weno.weno5_nodes"],
        "weno.deriv1_c4_s": inc["weno.deriv1_c4"],
        "selfsim.samples": samples,
        "selfsim.sample_us": (1e6 * sum(inc[n] for n in _MONITORS) / samples
                              if samples else 0.0),
        "selfsim.transform_s": inc["selfsim.to_selfsimilar"],
        "selfsim.bootstrap_s": inc["selfsim.bootstrap_report"],
        "selfsim.distance_s": inc["selfsim.profile_distance"],
        "selfsim.normalization_s": inc["selfsim.normalization_check"],
        "profile.w1d_jet_s": inc["profile.w1d_jet"],
        "profile.w1d_points": prof.counts["profile.w1d_points"],
        "util.lagrange_calls": c["util.lagrange_value_and_derivs"],
        "util.lagrange_s": inc["util.lagrange_value_and_derivs"],
        "diagnostics.holder_s": inc["diagnostics.holder_seminorm"],
        "modulation.track_s": inc["modulation.track_extremal"],
        "modulation.ode_monitor_s": (inc["modulation.constraints_from_field"]
                                     + inc["modulation.z_origin_jet"]
                                     + inc["modulation.ode_rhs"]),
        "harness.persist_s": (inc["harness.run_experiment"]
                              - inc["equivariant.run_until_blowup"]),
        "records.write_s": sum(inc[n] for n in (
            "records.write_jsonl", "records.write_summary",
            "records.write_field_csv", "records.write_selfsim_csv",
            "records.save_snapshots")),
        "records.bytes_written": extra["bytes_written"],
        "records.read_s": inc["records.read_jsonl"] + inc["records.load_snapshots"],
        "diagnostics.verdict_s": prof.verdict_s,
        "trajectories.paths": c["trajectories.integrate_trajectory"],
        "trajectories.nodes": prof.counts["trajectories.nodes"],
        "trajectories.field_evals": prof.counts["trajectories.field_evals"],
        "trajectories.integrate_s": inc["trajectories.integrate_trajectory"],
        "trajectories.certificate_s": (inc["trajectories.growth_certificate"]
                                       + inc["trajectories.weighted_integral"]),
        "harness.pool_busy_frac": (inc["harness.run_experiment"]
                                   / (extra["workers"] * inc["stage.run"])),
        "harness.row_s_max": prof.max_s["harness.run_experiment"],
        "stage.verify_s": extra["verify_s"],
        "trace.overhead_s": extra["overhead_s"],
    }
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError("layer_metrics and LAYER_METRICS disagree")
    return out


def coverage_gaps(workload, values):
    """Metrics that read 0 on a workload that must exercise them: a wrapper
    bound to a name its caller no longer looks up."""
    return sorted(name for name, (_, where) in LAYER_METRICS.items()
                  if workload in where and not values[name] > 0)
