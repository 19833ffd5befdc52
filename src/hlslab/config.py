"""Experiment configuration: defaults < config file < command-line flags.

The effective configuration is echoed into every report header so recorded
numbers are reproducible from the report alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import InputError
from .quotients import FAMILIES, FAMILY_RANK

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
    fiber_cap: int = 2_000_000
    ball_cap: int = 5_000_000
    hom_level_cap: int = 6
    element: str | None = None          # inline JSON or a file path
    kset: str | None = None             # JSON list of [level, word]
    out: str | None = None
    cache_dir: str = field(default_factory=default_cache_dir)
    update_snapshots: bool = False
    timings: bool = False
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


def build_config(cli_values: dict, config_path: str | None) -> ExperimentConfig:
    """Merge defaults, an optional JSON config file, and CLI flag values
    (None means the flag was not given)."""
    merged: dict = {}
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"cannot read config file {config_path}: {e}") from e
        if not isinstance(file_values, dict):
            raise InputError("config file must hold a JSON object")
        known = {f.name for f in fields(ExperimentConfig)}
        for k, v in file_values.items():
            if k not in known:
                raise InputError(f"unknown config key {k!r}")
            merged[k] = v
    for k, v in cli_values.items():
        if v is not None:
            merged[k] = v
    return ExperimentConfig(**merged)
