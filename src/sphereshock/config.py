"""Experiment configuration: a nested, JSON-serializable document with
schema validation and dumpable defaults, wrapping the solver, diagnostics,
and sweep blocks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields

from .equivariant import ConfigError, SolverConfig, check_fields
from .records import Refusal, schema_refusal


@dataclass
class DiagnosticsConfig:
    holder_cap: float = 2.5        # frozen C^{1/3} seminorm bound
    rate_tol: float = 0.05

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ConfigError(f"{f.name} must be positive")


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
            self.runs()

    def runs(self):
        """The run of each sweep row: the row's solver and this experiment's
        diagnostics.  A row its solver refuses raises ConfigError naming it."""
        runs = []
        for row in self.sweep.combinations():
            try:
                runs.append(ExperimentConfig(self.solver.replace(**row),
                                             self.diagnostics))
            except ConfigError as err:
                raise ConfigError(f"sweep row {row}: {err}") from None
        return runs

    def to_dict(self):
        """The run this config makes, as its run.jsonl header records it and
        records.config_hash names it: not where it is written, nor a sweep."""
        return {"solver": asdict(self.solver),
                "diagnostics": asdict(self.diagnostics)}

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


def header_config(path, record):
    """The ExperimentConfig that the run.jsonl header of record, read from
    path, records, validated once by from_dict.  A header of another schema
    than this build's (records.schema_refusal), a config that from_dict
    refuses, or one with no solver block, raises Refusal."""
    refusal = schema_refusal(path, record.schema_version)
    if refusal:
        raise Refusal(refusal)
    try:
        cfg = ExperimentConfig.from_dict(record.config)
    except ConfigError as err:
        raise Refusal(f"{path}: header config refused: {err}") from None
    if "solver" not in record.config:
        raise Refusal(f"{path} has no run header with a solver config")
    return cfg


def print_defaults():
    return json.dumps(asdict(ExperimentConfig()), sort_keys=True, indent=1)
