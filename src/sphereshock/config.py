"""Experiment configuration: a nested, JSON-serializable document with
schema validation and dumpable defaults, wrapping the solver, diagnostics,
and sweep blocks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .equivariant import ConfigError, SolverConfig


@dataclass
class DiagnosticsConfig:
    holder_cap: float = 2.5        # frozen C^{1/3} seminorm bound
    rate_tol: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (type(v) in (int, float) and math.isfinite(v) and v > 0):
                raise ConfigError(f"{f.name} must be finite and positive")


def build_block(klass, block, name):
    """klass(**block), refusing a key that klass has no field for."""
    block = {} if block is None else block
    if type(block) is not dict:
        raise ConfigError(f"the {name!r} block must be a JSON object")
    bad = set(block) - {f.name for f in fields(klass)}
    if bad:
        raise ConfigError(f"unknown keys in {name!r} block: {sorted(bad)}")
    return klass(**block)


@dataclass
class SweepConfig:
    gamma: list = field(default_factory=list)
    tau0: list = field(default_factory=list)
    n_cells: list = field(default_factory=list)
    xi0: list = field(default_factory=list)

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if type(values) is not list:
                raise ConfigError(f"sweep axis {f.name} must be a list")
            for i, v in enumerate(values):
                if v in values[:i]:  # two rows would share one run directory
                    raise ConfigError(f"sweep axis {f.name} repeats the value {v!r}")

    def axes(self):
        return {k: v for k, v in asdict(self).items() if v}

    def combinations(self):
        """The solver overrides of each run: one dict per point of the
        cross-product of the set axes, or the one empty dict."""
        axes = self.axes()
        names = sorted(axes)
        return [dict(zip(names, combo))
                for combo in itertools.product(*(axes[n] for n in names))]

    def size(self):
        return len(self.combinations())


@dataclass
class ExperimentConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: str = "runs"

    def __post_init__(self):
        if type(self.out_dir) is not str:
            raise ConfigError("out_dir must be of type str")
        if self.sweep.axes():  # refuse a bad axis value before any row runs
            for overrides in self.sweep.combinations():
                try:
                    self.solver.replace(**overrides)
                except ConfigError as err:
                    raise ConfigError(f"sweep row {overrides}: {err}") from None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        if type(doc) is not dict:
            raise ConfigError("a config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(solver=build_block(SolverConfig, doc.get("solver"), "solver"),
                   diagnostics=build_block(DiagnosticsConfig,
                                           doc.get("diagnostics"), "diagnostics"),
                   sweep=build_block(SweepConfig, doc.get("sweep"), "sweep"),
                   out_dir=doc.get("out_dir", "runs"))

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def header_config(path, config, version):
    """The ExperimentConfig that the run.jsonl header at path records,
    validated once by from_dict.  A config that from_dict refuses, or one
    with no solver block, raises ConfigError in one line; a header before
    schema 10 is told so, since its diagnostics block names clip_frac, a key
    since retired."""
    try:
        cfg = ExperimentConfig.from_dict(config)
    except ConfigError as err:
        old = type(version) is int and version < 10
        raise ConfigError(f"{path}: header config refused: {err}"
                          + ("; the run predates schema 10" if old else "")
                          ) from None
    if "solver" not in config:
        raise ConfigError(f"{path} has no run header with a solver config")
    return cfg


def print_defaults():
    return json.dumps(ExperimentConfig().to_dict(), sort_keys=True, indent=1)
