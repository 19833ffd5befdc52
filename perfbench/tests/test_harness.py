"""Self-tests of the benchmark harness: span arithmetic, oracles, wrappers.

Run with: python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ----------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    spans = [
        [0, None, "root", 0.0, 10.0, {}],
        [1, 0, "a", 1.0, 4.0, {}],
        [2, 1, "a.leaf", 2.0, 3.0, {}],
        [3, 0, "b", 5.0, 9.0, {}],
        [4, 3, "b.x", 5.0, 7.0, {}],
        [5, 3, "b.y", 6.0, 8.0, {}],   # overlaps b.x: the union counts once
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0,
                                 4: 2.0, 5: 2.0})
    assert sum(own[i] for i in (0, 1, 2, 3)) + 2.0 == pytest.approx(9.0)


def test_span_metrics_sum_self_time_counts_and_maxima():
    spans = [
        [0, None, "cli.main", 0.0, 10.0, {}],
        [1, 0, "spectral.solve", 1.0, 6.0,
         {"matvecs": 7, "unconverged": 1, "residual": 0.5, "basis_bytes": 80}],
        [2, 1, "balls.word_move", 2.0, 3.0, {"bytes_moved": 100}],
        [3, 0, "spectral.solve", 7.0, 8.0,
         {"matvecs": 3, "unconverged": 0, "residual": 0.25,
          "basis_bytes": 40}],
    ]
    m = tracing.span_metrics(spans)
    assert m["cli.main_self_s"] == pytest.approx(4.0)
    assert m["spectral.solve_s"] == pytest.approx(5.0)
    assert m["spectral.solves"] == 2
    assert m["spectral.matvecs"] == 10
    assert m["spectral.unconverged"] == 1
    assert m["spectral.max_residual"] == 0.5
    assert m["spectral.basis_bytes"] == 80
    assert m["balls.word_move_s"] == pytest.approx(1.0)
    assert m["balls.bytes_moved"] == 100
    assert m["quotients.cache_hits"] == 0


# -- oracles ------------------------------------------------------------------

def test_kesten_radius_two_is_sqrt7():
    assert oracles.kesten_top(2) == pytest.approx(math.sqrt(7), abs=1e-14)
    assert oracles.kesten_top(12) == pytest.approx(3.3875757192751124,
                                                   abs=1e-12)


@pytest.mark.parametrize("radius", [1, 2, 5, 9])
def test_path_eigenvalue_matches_dense(radius):
    m = 2 * radius + 1
    adj = np.diag(np.ones(m - 1), 1)
    dense = np.linalg.eigvalsh(adj + adj.T)[-1]
    assert oracles.path_top(radius) == pytest.approx(dense, abs=1e-13)


def test_brute_force_fd_orders():
    for n in range(1, 5):
        elements, _, _ = oracles._closure(oracles.fd_group(n))
        assert len(elements) == oracles.FD_ORDERS[n]


def test_congruence_order_and_tau_values_small():
    order, second = oracles.markov_second_eigenvalue(
        oracles.congruence_group(3))
    assert order == 32
    assert second == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    _, second = oracles.markov_second_eigenvalue(oracles.fd_group(3))
    assert second == pytest.approx(0.75, abs=1e-12)


def _report(rows_csv, results):
    return "# hlslab report: x\n# config a=b\n" + rows_csv + "".join(
        f"# result {k}={v}\n" for k, v in results.items())


def test_fd_gap_check_accepts_truth_and_rejects_drift():
    rows = "level,order,lower,upper,provenance\n" + "".join(
        f"{n},{oracles.FD_ORDERS[n]},4,4,x|y\n" for n in (1, 2)) + \
        "inf,inf,2.64575131106,4,truncation|l1\n"
    good = _report(rows, {"gap_flagged": "true",
                          "infinity_lower": "2.64575131106"})
    assert oracles.check_fd_gap(good, n_max=2, radius=2) == []
    bad = good.replace("infinity_lower=2.64575131106",
                       "infinity_lower=2.6457513")
    assert oracles.check_fd_gap(bad, n_max=2, radius=2)


def test_cyclic_gap_check_compares_at_printed_precision():
    top = oracles.path_top(800)
    rows = "level,order,lower,upper,provenance\n1,2,2,2,a|b\n"
    ok = _report(rows, {"gap_flagged": "false",
                        "infinity_lower": format(top, ".12g")})
    assert oracles.check_cyclic_gap(ok, n_max=1, radius=800) == []
    above = _report(rows, {"gap_flagged": "false",
                           "infinity_lower": repr(top + 1e-10)})
    assert oracles.check_cyclic_gap(above, n_max=1, radius=800)


def test_folner_check_exact_defects():
    rows = ("element_level,element,normalization_defect,translation_defect\n"
            "inf,aaa,0,0.005859375\n3,3,0,0\n")
    report = _report(rows, {"passed": "true"})
    assert oracles.check_folner(report, 1024, [("inf", -3), (3, 3)]) == []
    assert oracles.check_folner(report, 1024, [("inf", 4), (3, 3)])


# -- wrappers -----------------------------------------------------------------

MODULES = ["hlslab", "hlslab.cli", "hlslab.quotients", "hlslab.perms",
           "hlslab.words", "hlslab.balls", "hlslab.spectral",
           "hlslab.groupoid", "hlslab.exact", "hlslab.config"]


def _snapshot():
    """Every attribute of every hlslab module and of the classes in it."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_uninstall_restores_every_original():
    import hlslab.cli
    import hlslab.quotients
    before = _snapshot()
    rec = tracing.Recorder()
    patches, skipped = tracing.install(rec)
    assert skipped == []
    # names imported into a caller's module are wrapped there too
    assert hlslab.cli.kernel_refines is hlslab.quotients.kernel_refines
    assert hlslab.cli.kernel_refines is not before[("hlslab.quotients",
                                                    "kernel_refines")]
    assert hlslab.quotients.bfs_order is not before[("hlslab.perms",
                                                     "bfs_order")]
    tracing.uninstall(patches)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_cli_records_layers(tmp_path):
    import hlslab.cli
    rec = tracing.Recorder()
    patches, _ = tracing.install(rec)
    try:
        out = tmp_path / "r.csv"
        rc = hlslab.cli.main(["gap", "--family", "cyclic", "--n-max", "3",
                              "--radius", "20", "--cache-dir",
                              str(tmp_path / "c"), "--out", str(out)])
    finally:
        tracing.uninstall(patches)
    assert rc == 0
    assert oracles.check_cyclic_gap(out.read_text(), n_max=3, radius=20) == []
    m = tracing.span_metrics(rec.spans)
    assert m["quotients.cache_misses"] == 3
    assert m["spectral.solves"] > 0 and m["spectral.matvecs"] > 0
    assert m["balls.ball_words"] > 0
    assert m["groupoid.fiber_matvecs"] > 0
    assert rec.spans[0][2] == "cli.main" and rec.spans[0][1] is None


# -- BENCHMARK.json agrees with the harness -----------------------------------

def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    layer = {**{k: v[:2] for k, v in tracing.SPAN_METRICS.items()},
             **tracing.RUN_METRICS}
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layer
