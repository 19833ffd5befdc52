"""Every per-layer metric of the benchmark reads a span that the program
records: small runs of all five subcommands under the benchmark's tracing
wrappers (perfbench/tracing.py, read and never changed here) must open
each span that tracing.SPAN_METRICS names.  A span that no run records
would make its metric read 0 on every workload."""

import json
import sys
from pathlib import Path

import hlslab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402

# BallIndex.apply_word_move has no caller in the program
UNCALLED = {"balls.word_move"}

SIGNED = json.dumps([["a", 1, 0], ["A", 1, 0], ["b", -1, 0], ["B", -1, 0],
                     ["ab", 1, 0], ["BA", 1, 0]])
CYCLIC_FOLNER = json.dumps([[w, "1/4", "0"] for w in ("e", "a", "aa", "A")])

RUNS = [
    ["quotients", "--family", "fd", "--n-max", "3"],  # cold: builds
    ["quotients", "--family", "fd", "--n-max", "3"],  # warm: loads
    ["gap", "--family", "fd", "--n-max", "2", "--radius", "4"],  # radial
    ["gap", "--family", "fd", "--n-max", "2", "--radius", "2",
     "--element", SIGNED],                                       # ball solve
    ["tau", "--n-max", "3"],
    ["amen", "--family", "cyclic", "--n-max", "3", "--element",
     CYCLIC_FOLNER, "--kset", '[["inf", "a"], [3, "a"]]', "--epsilon",
     "1"],
    ["convolve-check", "--family", "cyclic", "--n-max", "3"],
]


def test_every_metric_span_is_recorded(tmp_path):
    rec = tracing.Recorder()
    patches, skipped = tracing.install(rec)
    try:
        for i, argv in enumerate(RUNS):
            rc = hlslab.cli.main(argv + [
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(tmp_path / f"{i}.csv")])
            assert rc == 0, argv
    finally:
        tracing.uninstall(patches)
    assert skipped == []
    wanted = {name for _unit, _better, names, _field
              in tracing.SPAN_METRICS.values() for name in names}
    recorded = {span[2] for span in rec.spans}
    assert sorted(wanted - UNCALLED - recorded) == []
    assert UNCALLED.isdisjoint(recorded)
