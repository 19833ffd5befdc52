"""Experiment configuration: defaults < config file < command-line flags.

The effective configuration is echoed into every report header so recorded
numbers are reproducible from the report alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import InputError
from .quotients import (DEFAULT_FIBER_CAP, DEFAULT_HOM_LEVEL_CAP, FAMILIES,
                         FAMILY_RANK)
from .words import DEFAULT_BALL_CAP

CACHE_ENV_VAR = "HLSLAB_CACHE"


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    return str(Path.home() / ".cache" / "hlslab")


@dataclass
class ExperimentConfig:
    family: str = "fd"
    n_max: int = 4
    radius: int = 12
    margin: float = 0.25
    epsilon: float = 0.05
    fiber_cap: int = DEFAULT_FIBER_CAP
    ball_cap: int = DEFAULT_BALL_CAP
    hom_level_cap: int = DEFAULT_HOM_LEVEL_CAP
    element: str | None = None          # inline JSON or a file path
    kset: str | None = None             # JSON list of [level, word]
    out: str | None = None
    cache_dir: str = field(default_factory=default_cache_dir)
    update_snapshots: bool = False
    infinity_ceiling: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        if self.n_max < 1:
            raise InputError("n_max must be >= 1")
        for cap_name in ("fiber_cap", "ball_cap", "hom_level_cap"):
            if getattr(self, cap_name) < 1:
                raise InputError(f"{cap_name} must be positive")
        if self.radius < 0:
            raise InputError("radius must be nonnegative")
        # every comparison with nan is false: refuse it, and inf, here
        for name in ("margin", "epsilon", "infinity_ceiling"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InputError(f"{name} must be finite, not {v}")
        # a gap flagged at margin <= 0, or under a negative ceiling on a
        # norm, certifies nothing
        if self.margin <= 0:
            raise InputError(f"margin must be positive, not {self.margin}")
        if self.infinity_ceiling is not None and self.infinity_ceiling < 0:
            raise InputError(f"infinity_ceiling must be nonnegative, not "
                             f"{self.infinity_ceiling}")

    @property
    def rank(self) -> int:
        return FAMILY_RANK[self.family]

    def header_items(self) -> list[tuple[str, str]]:
        # machine-local paths are excluded so reports stay byte-stable
        skip = {"out", "cache_dir"}
        items = []
        for f in fields(self):
            if f.name in skip:
                continue
            v = getattr(self, f.name)
            items.append((f.name, "" if v is None else str(v)))
        return sorted(items)


# the JSON values a config file may give a field of each type; a bool is
# an int in Python, so it is refused where a number is wanted
_FILE_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float),
               "str": (str,)}


def _check_file_value(f, v) -> None:
    """InputError naming the key unless v suits field f: a bool for a
    switch, an int for an int, a number for a float, a string for a
    string, and null only where the default is None."""
    kind = f.type.split(" | ")[0]  # the annotation, e.g. "float | None"
    if v is None:
        ok = f.default is None
    else:
        ok = (isinstance(v, _FILE_TYPES[kind])
              and isinstance(v, bool) == (kind == "bool"))
    if not ok:
        null = " or null" if f.default is None else ""
        raise InputError(f"config key {f.name!r} must be a {kind}{null}, "
                         f"not {json.dumps(v)}")


def build_config(cli_values: dict, config_path: str | None) -> ExperimentConfig:
    """Merge defaults, an optional JSON config file, and CLI flag values
    (None means the flag was not given)."""
    merged: dict = {}
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as e:  # ValueError: not UTF-8 JSON
            raise InputError(f"cannot read config file {config_path}: {e}") from e
        if not isinstance(file_values, dict):
            raise InputError("config file must hold a JSON object")
        known = {f.name: f for f in fields(ExperimentConfig)}
        for k, v in file_values.items():
            if k not in known:
                raise InputError(f"unknown config key {k!r}")
            _check_file_value(known[k], v)
            merged[k] = v
    for k, v in cli_values.items():
        if v is not None:
            merged[k] = v
    return ExperimentConfig(**merged)
