"""The four benchmark workloads: hlslab CLI invocations, set-up and checks.

Instances are the paper's (Willett, arXiv 1504.05615) at the largest sizes
that let every run of the benchmark fit its time budget; each keeps the
solver regime and layer mix of the full-size instance it stands for.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

SQRT12 = "3.4641016151377544"  # 2*sqrt(3), the infinity-fiber ceiling


@dataclass
class Workload:
    name: str               # why each was chosen: BENCHMARK.json
    # CLI invocations that warm the quotient cache during set-up
    warm: list[list[str]]
    # (seed, input dir) -> (invocations, context for the check); writes inputs
    prepare: Callable[[int, Path], tuple[list[list[str]], dict]]
    # (reports, context) -> failure messages
    check: Callable[[list[str], dict], list[str]]
    # clear the quotient cache before every sample
    cold: bool = False
    # (context) -> context with oracle values (computed once, untimed)
    expect: Callable[[dict], dict] = field(default=lambda ctx: ctx)


# -- gap-fd: the headline gap witness -----------------------------------------

GAP_FD = dict(n_max=5, radius=11)


def _gap_fd_prepare(seed, inputs):
    argv = ["gap", "--family", "fd", "--n-max", str(GAP_FD["n_max"]),
            "--radius", str(GAP_FD["radius"]), "--infinity-ceiling", SQRT12]
    return [argv], {}


def _gap_fd_check(reports, ctx):
    return oracles.check_fd_gap(reports[0], **GAP_FD)


# -- tau-tower: the tau contrast, reading the quotient cache ------------------

TAU_N = 5


def _tau_prepare(seed, inputs):
    return [["tau", "--n-max", str(TAU_N)]], {}


def _tau_expect(ctx):
    return {"expected": oracles.tau_expected(TAU_N)}


def _tau_check(reports, ctx):
    return oracles.check_tau(reports[0], ctx["expected"])


# -- tower-cold: building the fd tower on an empty cache ----------------------

TOWER_N = 5


def _tower_prepare(seed, inputs):
    return [["quotients", "--family", "fd", "--n-max", str(TOWER_N)]], {}


def _tower_check(reports, ctx):
    return oracles.check_tower(reports[0], TOWER_N)


# -- amenable-control: the cyclic tower, norms and a Folner certificate -------

CYCLIC = dict(n_max=8, radius=400)
WINDOW = 512           # uniform Folner window a^0 .. a^(WINDOW-1)
K_LEVELS = ("inf", "inf", 3, 6)
EPSILON = "0.1"        # above the largest defect, 2*16/WINDOW, so it passes


def _amen_prepare(seed, inputs):
    rng = random.Random(seed)
    kset = [(level, rng.randint(1, 16) * rng.choice((1, -1)))
            for level in K_LEVELS]
    window = [["a" * j or "e", f"1/{WINDOW}", "0"] for j in range(WINDOW)]
    path = inputs / "window.json"
    path.write_text(json.dumps(window))
    kjson = json.dumps([[level, ("a" if k > 0 else "A") * abs(k)]
                        for level, k in kset])
    gap = ["gap", "--family", "cyclic", "--n-max", str(CYCLIC["n_max"]),
           "--radius", str(CYCLIC["radius"])]
    amen = ["amen", "--family", "cyclic", "--element", str(path),
            "--kset", kjson, "--epsilon", EPSILON]
    return [gap, amen], {"kset": kset}


def _amen_check(reports, ctx):
    return (oracles.check_cyclic_gap(reports[0], **CYCLIC)
            + oracles.check_folner(reports[1], WINDOW, ctx["kset"]))


def _warm(family, n):
    return ["quotients", "--family", family, "--n-max", str(n),
            "--radius", "0"]


WORKLOADS = {w.name: w for w in [
    Workload("gap-fd", [_warm("fd", GAP_FD["n_max"])],
             _gap_fd_prepare, _gap_fd_check),
    Workload("tau-tower", [_warm("fd", TAU_N), _warm("congruence", TAU_N)],
             _tau_prepare, _tau_check, expect=_tau_expect),
    Workload("tower-cold", [], _tower_prepare, _tower_check, cold=True),
    Workload("amenable-control", [_warm("cyclic", CYCLIC["n_max"])],
             _amen_prepare, _amen_check),
]}
