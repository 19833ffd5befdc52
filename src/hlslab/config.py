"""Experiment configuration: defaults < command-line flags.

The effective configuration is echoed into every report header so recorded
numbers are reproducible from the report alone.
"""

from __future__ import annotations

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
        for name in ("epsilon", "infinity_ceiling"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise InputError(f"{name} must be finite, not {v}")
        # a negative ceiling on a norm certifies nothing
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

