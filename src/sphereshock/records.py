"""Run records: append-only time series of solver/modulation/diagnostic
scalars plus optional field snapshots, with JSON-lines and CSV persistence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 22


class Refusal(Exception):
    """A file, a run or an option that the program declines, in one line
    that names it and the reason; the command line prints it and exits 2."""


def schema_refusal(path, version):
    """A build reads only runs of its own schema.  The one-line refusal of
    the file at path, which records schema version (None where it records
    none), or None when version is SCHEMA_VERSION."""
    if version == SCHEMA_VERSION:
        return None
    found = "no schema" if version is None else f"schema {version}"
    return f"{path} holds {found}, not schema {SCHEMA_VERSION}: rerun it"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# the JSON kind of a sample value; a null may stand for any kind
_KINDS = {int: "number", float: "number", bool: "bool", str: "string",
          dict: "object", list: "list", type(None): None}


def config_hash(config_dict):
    """12 hex digits naming a config, such as the run a header records."""
    blob = json.dumps(_jsonable(config_dict), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class RunRecord:
    config: dict
    samples: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    status: str = "running"
    summary: dict = field(default_factory=dict)
    schema_version: int | None = SCHEMA_VERSION  # None: read with no header
    # the run's last EquivariantState; None on a record read from disk
    final_state: object = field(default=None, compare=False, repr=False)

    def add_sample(self, **row):
        if self.samples and row["t_tilde"] <= self.samples[-1]["t_tilde"]:
            raise ValueError("samples must be strictly increasing in t_tilde")
        self.samples.append(_jsonable(row))

    def add_snapshot(self, **snap):
        self.snapshots.append(snap)

    def series(self, key):
        return np.array([s[key] for s in self.samples if s.get(key) is not None])

    def write_jsonl(self, path):
        with open(path, "w") as f:
            header = {"type": "header", "schema_version": SCHEMA_VERSION,
                      "config": _jsonable(self.config), "status": self.status}
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.samples:
                f.write(json.dumps({"type": "sample", **s}, sort_keys=True) + "\n")

    def write_summary(self, path):
        with open(path, "w") as f:
            json.dump(_jsonable({"schema_version": SCHEMA_VERSION,
                                 "status": self.status,
                                 "config_hash": config_hash(self.config),
                                 **self.summary}), f, sort_keys=True, indent=1)
            f.write("\n")

    @classmethod
    def read_jsonl(cls, path):
        samples = []
        kinds = {}  # key -> the JSON kind of its first value that is not null
        config = {}
        status = "unknown"
        version = None
        with open(path) as f:
            for n, line in enumerate(f, start=1):
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(
                        f"line {n} is not JSON ({err.msg})") from None
                if type(row) is not dict:
                    raise ValueError(f"line {n} is not a JSON object")
                kind = row.pop("type", "sample")
                if kind != "header":
                    # every sample of a run has the same keys, so that the
                    # series of two keys stay in step
                    if samples and row.keys() != samples[0].keys():
                        other = sorted(row.keys() ^ samples[0].keys())
                        raise ValueError(f"line {n} is a sample whose keys "
                                         f"differ from the first's by {other}")
                    # and the same kind of value under each key, so that its
                    # series is one array of numbers, strings or flags
                    for key, value in row.items():
                        got = _KINDS[type(value)]
                        if got and kinds.setdefault(key, got) != got:
                            raise ValueError(
                                f"line {n} is a sample whose {key} is a "
                                f"{got}, not a {kinds[key]} as in the "
                                "samples before")
                    samples.append(row)
                elif n == 1:
                    config = row.get("config", {})
                    status = row.get("status", "unknown")
                    version = row.get("schema_version")
                else:
                    raise ValueError(f"line {n} is a run header, which only "
                                     "line 1 may be")
        return cls(config=config, samples=samples, status=status,
                   schema_version=version)


def _write_rows(path, header, template, columns):
    """Write the header and one `template % row` line per row of columns.

    Rows end in the csv module's default \r\n, and no %.17g string needs
    quoting, so the files are byte-equal to csv.writer rows of f"{x:.17g}"
    strings.  The rows are streamed, not joined into one string."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(template % row
                     for row in zip(*(np.asarray(c).tolist() for c in columns)))


def write_field_csv(path, theta_tilde, w, z):
    w, z = np.asarray(w), np.asarray(z)
    _write_rows(path, ["theta_tilde", "w", "z", "sigma", "v"],
                ",".join(["%.17g"] * 5) + "\r\n",
                (theta_tilde, w, z, 0.5 * (w - z), 0.5 * (w + z)))


def write_selfsim_csv(path, s, y, W, Z, wbar):
    W, wbar = np.asarray(W), np.asarray(wbar)
    _write_rows(path, ["s", "y", "W", "Z", "Wbar", "W_minus_Wbar"],
                f"{s:.17g}," + ",".join(["%.17g"] * 5) + "\r\n",
                (y, W, Z, wbar, W - wbar))
