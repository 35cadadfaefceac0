"""Experiment configuration: a nested, JSON-serializable document with
schema validation and dumpable defaults, wrapping the solver, diagnostics,
and sweep blocks.
"""

from __future__ import annotations

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
    block = dict(block or {})
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
            if type(getattr(self, f.name)) is not list:
                raise ConfigError(f"sweep axis {f.name} must be a list")

    def axes(self):
        return {k: v for k, v in asdict(self).items() if v}

    def size(self):
        n = 1
        for v in self.axes().values():
            n *= len(v)
        return n


@dataclass
class ExperimentConfig:
    solver: SolverConfig = field(default_factory=SolverConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: str = "runs"
    snapshots_csv: bool = False

    def __post_init__(self):
        for name, kind in (("out_dir", str), ("snapshots_csv", bool)):
            if type(getattr(self, name)) is not kind:
                raise ConfigError(f"{name} must be of type {kind.__name__}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(solver=build_block(SolverConfig, doc.get("solver"), "solver"),
                   diagnostics=build_block(DiagnosticsConfig,
                                           doc.get("diagnostics"), "diagnostics"),
                   sweep=build_block(SweepConfig, doc.get("sweep"), "sweep"),
                   out_dir=doc.get("out_dir", "runs"),
                   snapshots_csv=doc.get("snapshots_csv", False))

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


def print_defaults():
    return json.dumps(ExperimentConfig().to_dict(), sort_keys=True, indent=1)
