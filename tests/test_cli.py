import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hlslab
from hlslab import cli
from hlslab.cli import main
from hlslab.config import ExperimentConfig
from hlslab.words import GroupAlgebraElement, Word, ball

from dense_oracle import rho_dense


@pytest.fixture()
def cache(tmp_path):
    d = tmp_path / "cache"
    d.mkdir()
    return str(d)


def run(args, cache, out=None):
    argv = list(args) + ["--cache-dir", cache]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


def element_json(pairs, rank):
    return GroupAlgebraElement.from_pairs(pairs, rank).to_json()


def parse_report(text):
    config, rows, results = {}, [], {}
    header = None
    for line in text.splitlines():
        if line.startswith("# config "):
            k, v = line[len("# config "):].split("=", 1)
            config[k] = v
        elif line.startswith("# result "):
            k, v = line[len("# result "):].split("=", 1)
            results[k] = v
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return config, rows, results


# -- quotients ----------------------------------------------------------------

def test_quotients_fd(cache, tmp_path):
    out = tmp_path / "q.csv"
    code = run(["quotients", "--family", "fd", "--n-max", "3"], cache, out)
    assert code == 0
    config, rows, results = parse_report(out.read_text())
    assert config["family"] == "fd"
    assert [r["order"] for r in rows] == ["1", "4", "36"]
    assert all(r["schreier_sims_ok"] == "true" for r in rows)
    assert all(r["nesting_ok"] == "true" for r in rows)
    assert results["all_checks_passed"] == "true"
    assert list(rows[0]) == ["level", "order", "degree", "schreier_sims_ok",
                             "nesting_ok", "separation_radius"]


def test_quotients_separation_is_not_capped(cache, tmp_path, balls_built):
    # at the default radius 12, congruence levels 5 and 6 separate up to
    # their girths less one, and a cold run builds no free-group ball
    out = tmp_path / "q.csv"
    assert run(["quotients", "--family", "congruence", "--n-max", "6"],
               cache, out) == 0
    config, rows, _ = parse_report(out.read_text())
    assert config["radius"] == "12"
    assert [r["separation_radius"] for r in rows[4:]] == ["9", "11"]
    assert balls_built == []


def test_neither_timings_nor_config_is_a_flag(cache):
    # a run is timed by perfbench/traced_cli.py, which leaves the report
    # as it is, flags are the one way to set a run, and a gap is flagged
    # from the certified brackets alone
    for flag in (["--timings"], ["--config", "cfg.json"],
                 ["--margin", "0.25"]):
        with pytest.raises(SystemExit) as exc:
            run(["quotients", "--family", "cyclic", "--n-max", "3", *flag],
                cache)
        assert exc.value.code == 2


def test_flags_are_the_config_fields(monkeypatch, capsys):
    # each subcommand has one flag per ExperimentConfig field, named after
    # it, and no other, so no field is left that a run cannot set
    parsers = []
    add_common = cli._add_common

    def recording(p):
        add_common(p)
        parsers.append(p)

    monkeypatch.setattr(cli, "_add_common", recording)
    with pytest.raises(SystemExit):
        main(["quotients", "--help"])
    assert len(parsers) == len(cli.COMMANDS)
    names = sorted(f.name for f in fields(ExperimentConfig))
    for p in parsers:
        flags = {a.dest: a.option_strings for a in p._actions
                 if a.dest != "help"}
        assert sorted(flags) == names, p.prog
        assert all(opts == ["--" + dest.replace("_", "-")]
                   for dest, opts in flags.items()), p.prog


def test_quotients_resource_error(cache):
    assert run(["quotients", "--family", "fd", "--n-max", "9"], cache) == 3
    # the cap is checked before any level is built or cached
    assert os.listdir(cache) == []


# a K set whose last finite level is over a cap: fd 7 over the default
# homomorphism enumeration cap 6, congruence 9 (order 2^23) over 100,000
AMEN_OVER_CAP = {
    "fd-hom-level-cap": ["amen", "--family", "fd", "--element",
                         '[["e","1",0]]', "--kset", '[[3,"a"],[7,"a"]]'],
    "congruence-fiber-cap": ["amen", "--family", "congruence", "--element",
                             '[["e","1",0]]', "--kset",
                             '[[4,"a"],[9,"a"]]', "--fiber-cap", "100000"]}


@pytest.mark.parametrize("args", [
    ["gap", "--family", "fd", "--n-max", "7"],
    ["gap", "--family", "cyclic", "--n-max", "5", "--fiber-cap", "16"],
    ["tau", "--family", "fd", "--n-max", "13", "--hom-level-cap", "13"],
    ["quotients", "--family", "congruence", "--n-max", "6", "--fiber-cap",
     "2048"],
    *AMEN_OVER_CAP.values(),
])
def test_caps_checked_before_building(cache, args):
    assert run(args, cache) == 3
    assert os.listdir(cache) == []


@pytest.mark.parametrize("args", AMEN_OVER_CAP.values(), ids=AMEN_OVER_CAP)
def test_amen_over_a_cap_exits_3_before_any_level(cache, args):
    done = subprocess.run(
        [sys.executable, "-m", "hlslab.cli", *args, "--cache-dir", cache],
        env=src_env(), capture_output=True, text=True)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("resource error")
    assert "Traceback" not in done.stderr
    assert built_levels(cache) == []


def test_caps_skip_cached_levels(cache, tmp_path):
    # levels warmed under a higher cap are loaded, not built, so a lower
    # cap does not refuse them
    assert run(["quotients", "--family", "fd", "--n-max", "3",
                "--hom-level-cap", "3"], cache) == 0
    assert run(["gap", "--family", "fd", "--n-max", "3", "--radius", "4",
                "--hom-level-cap", "2"], cache, tmp_path / "gap.csv") == 0
    assert run(["quotients", "--family", "fd", "--n-max", "4",
                "--hom-level-cap", "2"], cache) == 3


# -- gap ----------------------------------------------------------------------

def test_gap_fd_with_ceiling(cache, tmp_path):
    out = tmp_path / "gap.csv"
    code = run(["gap", "--family", "fd", "--n-max", "3", "--radius", "6",
                "--infinity-ceiling", repr(2 * math.sqrt(3))], cache, out)
    assert code == 0
    _, rows, results = parse_report(out.read_text())
    assert rows[-1]["level"] == "inf"
    assert results["gap_flagged"] == "true"
    assert results["monotone_ok"] == "true"
    assert float(results["sup_finite_lower"]) == pytest.approx(4.0, abs=1e-6)
    assert float(results["infinity_ceiling_used"]) == pytest.approx(
        2 * math.sqrt(3))


@pytest.mark.parametrize("ceiling,flagged", [("3.9", "true"),
                                             ("4", "false")])
def test_gap_flag_is_strict_above_the_ceiling(cache, tmp_path, ceiling,
                                              flagged):
    # every fd fiber reads [4, 4]: a gap is flagged exactly when that
    # certified sup lies strictly above the ceiling used, with no buffer
    out = tmp_path / "gap.csv"
    assert run(["gap", "--family", "fd", "--n-max", "3", "--radius", "6",
                "--infinity-ceiling", ceiling], cache, out) == 0
    _, _, results = parse_report(out.read_text())
    assert results["sup_finite_lower"] == "4"
    assert results["infinity_ceiling_used"] == ceiling
    assert results["gap_flagged"] == flagged


def test_gap_fd_runs_no_solver(cache, tmp_path, no_solver):
    # the generator sum is nonnegative: every finite row is one matvec on
    # the constant vector, and the infinity fiber takes the radial path
    out = tmp_path / "gap.csv"
    code = run(["gap", "--family", "fd", "--n-max", "4", "--radius", "11",
                "--infinity-ceiling", repr(2 * math.sqrt(3))], cache, out)
    assert code == 0
    _, rows, results = parse_report(out.read_text())
    finite = [r for r in rows if r["level"] != "inf"]
    assert [r["level"] for r in finite] == ["1", "2", "3", "4"]
    assert all((r["lower"], r["upper"]) == ("4", "4") for r in finite)
    assert finite[0]["provenance"] == (
        "trivial-representation|trivial-representation")
    assert all(r["provenance"] == "constant-vector|l1" for r in finite[1:])
    assert results["gap_flagged"] == "true"


def test_gap_cyclic_no_gap(cache, tmp_path):
    out = tmp_path / "gap.csv"
    code = run(["gap", "--family", "cyclic", "--n-max", "5",
                "--radius", "200"], cache, out)
    assert code == 0
    _, _, results = parse_report(out.read_text())
    assert results["gap_flagged"] == "false"
    assert float(results["infinity_lower"]) == pytest.approx(2.0, abs=1e-3)
    assert results["infinity_converged"] == "true"


def test_gap_reports_unconverged_infinity(cache, tmp_path,
                                         one_short_restart):
    out = tmp_path / "gap.csv"
    code = run(["gap", "--family", "cyclic", "--n-max", "3",
                "--radius", "30"], cache, out)
    assert code == 0
    _, _, results = parse_report(out.read_text())
    assert results["infinity_converged"] == "false"
    assert float(results["infinity_lower"]) <= 2 * math.cos(math.pi / 62)


SIGNED = element_json([("a", 1), ("A", 1), ("b", -1), ("B", -1),
                       ("ab", 1), ("BA", 1)], 2)


def test_gap_rows_report_convergence(cache, tmp_path):
    out = tmp_path / "gap.csv"
    assert run(["gap", "--family", "fd", "--n-max", "4", "--radius", "3",
                "--element", SIGNED], cache, out) == 0
    _, rows, _ = parse_report(out.read_text())
    assert [r["level"] for r in rows] == ["1", "2", "3", "4", "inf"]
    assert all(r["converged"] == "true" for r in rows)


def test_gap_rows_report_an_unconverged_level(cache, tmp_path,
                                              one_short_restart):
    # level 4 reads just under its norm 6, so monotone_ok fails; the row's
    # flag says why
    out = tmp_path / "gap.csv"
    assert run(["gap", "--family", "fd", "--n-max", "4", "--radius", "3",
                "--element", SIGNED], cache, out) == 1
    _, rows, results = parse_report(out.read_text())
    assert rows[3]["level"] == "4" and float(rows[3]["lower"]) < 6
    assert rows[3]["converged"] == "false"
    assert results["monotone_ok"] == "false"
    # a real drop, above the slack 1e-8 * 6
    assert float(rows[2]["lower"]) - float(rows[3]["lower"]) > 6e-8


def test_monotone_check_is_scale_free(cache, tmp_path):
    # a + A - b - B at scale 1e30: every fd lower endpoint reads
    # 3.99999999999e+30 and they differ in the last bits only
    scaled = element_json([("a", 1e30), ("A", 1e30), ("b", -1e30),
                           ("B", -1e30)], 2)
    out = tmp_path / "gap.csv"
    assert run(["gap", "--family", "fd", "--n-max", "4", "--radius", "5",
                "--element", scaled], cache, out) == 0
    _, rows, results = parse_report(out.read_text())
    assert results["monotone_ok"] == "true"
    assert all(r["converged"] == "true" for r in rows)


def test_solves_call_no_lapack(cache, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "tau.csv"
    assert run(["tau", "--n-max", "4"], cache, out) == 0
    _, _, results = parse_report(out.read_text())
    assert results["converged"] == "true"
    assert run(["gap", "--family", "fd", "--n-max", "4", "--radius", "3",
                "--element", SIGNED], cache, tmp_path / "gap.csv") == 0


# 2a + 2A - b - B + 2aab + 2BAA: fd level 4 computes the lower endpoint
# 7.196152422706427, which rounds to nearest at 12 digits as 7.19615242271,
# above the norm 2 + 3 sqrt(3) = 7.19615242270663...
PINNED = GroupAlgebraElement.from_pairs(
    [("a", 2), ("A", 2), ("b", -1), ("B", -1), ("aab", 2), ("BAA", 2)], 2)


def signed_draws():
    rng = random.Random(16)
    words = [str(w) for w in ball(2, 2)]
    draws = [PINNED]
    while len(draws) < 5:
        x = GroupAlgebraElement.from_pairs(
            [(rng.choice(words), Fraction(rng.randint(-6, 6),
                                          rng.randint(1, 4)))
             for _ in range(3)], 2)
        draws.append(x + x.adjoint())
    return draws


@pytest.mark.parametrize("x", signed_draws(), ids=str)
def test_gap_prints_brackets_rounded_outward(cache_dir, fd, tmp_path, x):
    out = tmp_path / "gap.csv"
    assert main(["gap", "--family", "fd", "--n-max", "4", "--radius", "2",
                 "--element", x.to_json(), "--cache-dir", str(cache_dir),
                 "--out", str(out)]) == 0
    _, rows, results = parse_report(out.read_text())
    for r in rows[1:4]:
        q = fd.quotient(int(r["level"]))
        truth = float(np.linalg.norm(rho_dense(q, q.pushforward(x)), 2))
        # the dense norm is good to far below the 12th printed digit
        slack = 1e-14 * max(truth, 1.0)
        assert float(r["lower"]) <= truth + slack
        assert truth - slack <= float(r["upper"])
    if x == PINNED:
        assert rows[3]["lower"] == results["sup_finite_lower"] == (
            "7.1961524227")
        assert float(rows[3]["lower"]) < 2 + 3 * math.sqrt(3)


# a + 2b; a - b + i ab + BA/2; and 1e-13 a
NOT_SELF_ADJOINT = {
    "a-plus-2b": '[["a",1,0],["b",2,0]]',
    "complex": '[["a",1,0],["b",-1,0],["ab",0,1],["BA","1/2",0]]',
    "tiny-a": '[["a",1e-13,0]]'}


@pytest.mark.parametrize("element", NOT_SELF_ADJOINT.values(),
                         ids=NOT_SELF_ADJOINT)
def test_gap_brackets_elements_that_are_not_self_adjoint(cache_dir, fd,
                                                         tmp_path, element):
    # a norm needs no x = x*: each fd 2-4 bracket holds the dense norm,
    # and none of these is flagged (u + 2v, u and v free Haar unitaries,
    # has norm 3 at infinity as on every fiber)
    out = tmp_path / "gap.csv"
    assert main(["gap", "--family", "fd", "--n-max", "4", "--radius", "3",
                 "--element", element, "--cache-dir", str(cache_dir),
                 "--out", str(out)]) == 0
    _, rows, results = parse_report(out.read_text())
    x = GroupAlgebraElement.from_json(element, 2)
    for r in rows[1:4]:
        q = fd.quotient(int(r["level"]))
        truth = float(np.linalg.norm(rho_dense(q, q.pushforward(x)), 2))
        slack = 1e-14 * truth
        assert float(r["lower"]) <= truth + slack
        assert truth - slack <= float(r["upper"])
    assert results["gap_flagged"] == "false"
    if element == NOT_SELF_ADJOINT["a-plus-2b"]:
        assert all((r["lower"], r["upper"]) == ("3", "3") for r in rows[:4])
        assert float(rows[4]["lower"]) <= 3 <= float(rows[4]["upper"])


def test_gap_trivial_representation_lower_rounds_down(cache, tmp_path):
    # |sum c| = 1 - 2^-60 has no float; to nearest it is 1, above the norm
    c = "1152921504606846975/2305843009213693952"
    out = tmp_path / "gap.csv"
    assert run(["gap", "--family", "fd", "--n-max", "2", "--radius", "2",
                "--element", json.dumps([["a", c, "0"], ["A", c, "0"]])],
               cache, out) == 0
    _, rows, results = parse_report(out.read_text())
    assert rows[0]["lower"] == "0.999999999999"
    assert results["trivial_representation_lower"] == "0.999999999999"


def test_gap_radial_truncation_past_the_ball_cap(cache, tmp_path):
    # the radius-14 ball has 9,565,937 words, over the default cap of
    # 5,000,000; the generator sum's radial solve stores 15 points
    out = tmp_path / "gap.csv"
    code = run(["gap", "--family", "fd", "--n-max", "2", "--radius", "14"],
               cache, out)
    assert code == 0
    _, _, results = parse_report(out.read_text())
    assert 3.3875757 < float(results["infinity_lower"]) < 2 * math.sqrt(3)
    assert results["infinity_converged"] == "true"


def built_levels(directory):
    """The quotient cache files anywhere under directory."""
    return sorted(Path(directory).rglob("quotient-*.npz"))


SIGNED_SIX = ('[["a",1,0],["A",1,0],["b",-1,0],["B",-1,0],["ab",1,0],'
              '["BA",1,0]]')


@pytest.mark.parametrize("extra", [
    ["--element", element_json([("a", 1), ("A", 1), ("b", 2), ("B", 2)], 2)],
    ["--element", SIGNED_SIX],
    ["--ball-cap", "10"],
], ids=["non-radial", "signed-six-term", "radial-over-cap"])
def test_gap_ball_cap_counts_stored_points(cache, extra):
    # ball(14, 2) has 9,565,937 words; the refusal comes before any level
    assert run(["gap", "--family", "fd", "--n-max", "3", "--radius", "14"]
               + extra, cache) == 3
    assert built_levels(cache) == []


def test_gap_over_the_ball_cap_exits_3_before_any_level(cache):
    done = subprocess.run(
        [sys.executable, "-m", "hlslab.cli", "gap", "--family", "fd",
         "--n-max", "3", "--radius", "14", "--element", SIGNED_SIX,
         "--cache-dir", cache], env=src_env(), capture_output=True,
        text=True)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("resource error") and "ball(14, 2)" in \
        done.stderr and "Traceback" not in done.stderr
    assert built_levels(cache) == []


# -- amen ---------------------------------------------------------------------

def cyclic_uniform(n):
    N = 2 ** n
    a = Word.parse("a", 1)
    from fractions import Fraction
    return element_json([(a ** j, Fraction(1, N)) for j in range(N)], 1)


def test_amen_pass_and_fail(cache, tmp_path):
    elem = cyclic_uniform(5)  # translation defect 2/32 = 0.0625
    out = tmp_path / "amen.csv"
    code = run(["amen", "--family", "cyclic", "--element", elem,
                "--epsilon", "0.1"], cache, out)
    assert code == 0
    _, rows, results = parse_report(out.read_text())
    assert results["passed"] == "true"
    assert float(results["worst_translation_defect"]) == pytest.approx(
        1 / 16)
    code = run(["amen", "--family", "cyclic", "--element", elem,
                "--epsilon", "0.01"], cache, out)
    assert code == 1


def test_amen_kset_levels(cache, tmp_path):
    elem = cyclic_uniform(3)
    out = tmp_path / "amen.csv"
    kset = json.dumps([["inf", "a"], [3, "a"]])
    code = run(["amen", "--family", "cyclic", "--element", elem,
                "--epsilon", "0.5", "--kset", kset], cache, out)
    assert code == 0
    _, rows, _ = parse_report(out.read_text())
    assert {r["element_level"] for r in rows} == {"inf", "3"}
    by_level = {r["element_level"]: r for r in rows}
    # the full cycle is exactly invariant in its own quotient
    assert float(by_level["3"]["translation_defect"]) == 0.0
    assert float(by_level["inf"]["translation_defect"]) == pytest.approx(0.25)


def test_amen_kset_reads_a_digit_string_level(cache, tmp_path):
    elem = cyclic_uniform(3)
    rows = []
    for level in (3, "3"):
        out = tmp_path / "amen.csv"
        assert run(["amen", "--family", "cyclic", "--element", elem,
                    "--epsilon", "0.5", "--kset", json.dumps([[level, "a"]])],
                   cache, out) == 0
        rows.append(parse_report(out.read_text())[1])
    assert rows[0] == rows[1] and rows[0][0]["element_level"] == "3"


def test_amen_requires_element(cache):
    assert run(["amen", "--family", "cyclic", "--epsilon", "0.1"], cache) == 2


# -- tau ----------------------------------------------------------------------

def test_tau_table_and_snapshot(cache, tmp_path):
    out = tmp_path / "tau.csv"
    code = run(["tau", "--family", "fd", "--n-max", "3"], cache, out)
    assert code == 0
    _, rows, results = parse_report(out.read_text())
    by_level = {r["level"]: r for r in rows}
    assert float(by_level["2"]["fd_second_eigenvalue"]) == pytest.approx(
        0.0, abs=1e-9)
    assert float(by_level["3"]["fd_second_eigenvalue"]) == pytest.approx(
        0.75, abs=1e-9)
    assert float(by_level["3"]["congruence_second_eigenvalue"]) == \
        pytest.approx(math.sqrt(2) / 2, abs=1e-8)
    assert results["snapshot_ok"] == "true"
    assert results["converged"] == "true"
    # second run checks against the recorded snapshot
    code = run(["tau", "--family", "fd", "--n-max", "3"], cache, out)
    assert code == 0
    # a corrupted snapshot is detected
    snap = tmp_path / "cache" / "snapshots" / "tau-congruence.json"
    data = json.loads(snap.read_text())
    data["values"]["3"] += 0.5
    snap.write_text(json.dumps(data))
    assert run(["tau", "--family", "fd", "--n-max", "3"], cache, out) == 1
    # --update-snapshots repairs it
    assert run(["tau", "--family", "fd", "--n-max", "3",
                "--update-snapshots"], cache, out) == 0
    assert run(["tau", "--family", "fd", "--n-max", "3"], cache, out) == 0


def test_tau_reports_unconverged_solves(cache, tmp_path, one_short_restart):
    out = tmp_path / "tau.csv"
    assert run(["tau", "--family", "fd", "--n-max", "4"], cache, out) == 0
    _, _, results = parse_report(out.read_text())
    assert results["converged"] == "false"


def test_tau_checks_caps_without_listing_levels(cache):
    # the levels stay a range, so what a refused run holds does not grow
    # with --n-max; the fd cap refuses level 7
    tracemalloc.start()
    try:
        assert run(["tau", "--n-max", "1000000"], cache) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert os.listdir(cache) == []


def test_tau_rejects_cyclic(cache):
    assert run(["tau", "--family", "cyclic", "--n-max", "3"], cache) == 2


# -- convolve-check -------------------------------------------------------------

def test_convolve_check(cache, tmp_path):
    out = tmp_path / "conv.csv"
    code = run(["convolve-check", "--family", "fd", "--n-max", "2"],
               cache, out)
    assert code == 0
    _, rows, results = parse_report(out.read_text())
    assert all(r["passed"] == "true" for r in rows)
    assert results["all_checks_passed"] == "true"


# -- config and argument handling ----------------------------------------------

def test_unknown_flag_exits_nonzero(cache, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quotients", "--no-such-flag"])
    assert exc.value.code != 0


def test_help_per_subcommand(capsys):
    for name in ("quotients", "gap", "amen", "tau", "convolve-check"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert "--family" in capsys.readouterr().out


def test_bad_element_json(cache):
    code = run(["gap", "--family", "fd", "--n-max", "2",
                "--element", "[not json"], cache)
    assert code == 2


@pytest.mark.parametrize("command", [
    ["gap", "--family", "fd", "--n-max", "2", "--radius", "2"],
    ["amen", "--family", "cyclic"]], ids=["gap", "amen"])
@pytest.mark.parametrize("element", [
    '[["a",Infinity,0],["A",Infinity,0]]', '[["a",NaN,0]]',
    '[["a","1/0",0]]', '[["a","x",0]]', '[["a",true,0],["A",true,0]]',
    # finite, but the two sum to inf on fd level 1
    '[["a",1e308,0],["A",1e308,0]]',
    # l1 squared overflows, so rho(f)* rho(f) would
    '[["a",1e160,0],["A",1e160,0]]',
    # an exact coefficient beyond the largest float
    '[["a","1e400",0],["A","1e400",0]]',
    # l1 squared is finite but its square is not: a signed element's
    # solve squares the norms of vectors as large as l1 squared
    '[["a",1e77,0],["A",1e77,0],["e",-1e77,0]]'])
def test_malformed_coefficients_are_input_errors(cache, capsys, command,
                                                 element):
    assert run(command + ["--element", element], cache) == 2
    assert "input error" in capsys.readouterr().err


KSETS = {"level-not-a-number": '[["x","a"]]', "not-a-list": '{"a":1}',
         "triple": '[[3,"a",1]]', "fractional-level": '[[3.7,"a"]]',
         "boolean-level": '[[true,"a"]]'}
# a float flag that is nan, infinite or of a sign that certifies nothing,
# and the config field it sets
BAD_FLOAT_FLAGS = {
    "ceiling-inf": (["gap", "--infinity-ceiling", "inf"],
                    "infinity_ceiling"),
    "epsilon-nan": (["amen", "--element", '[["a",1,0]]', "--epsilon",
                     "nan"], "epsilon"),
    # at epsilon inf a certificate with translation defect 1 would pass
    "epsilon-inf": (["amen", "--element", '[["a",1,0]]', "--epsilon",
                     "inf"], "epsilon"),
    # the cyclic control's finite and infinity norms are both 2, yet this
    # would flag a gap
    "ceiling-negative": (["gap", "--infinity-ceiling", "-5"],
                         "infinity_ceiling")}
SNAPSHOTS = {"garbage": "not json", "list": "[1, 2]",
             "string-value": '{"format_version": 1, "values": {"2": "x"}}',
             "nan-value": '{"format_version": 1, "values": {"2": NaN}}'}
SNAPSHOT = "cache/snapshots/tau-congruence.json"

# (argv, file to write under the test directory, its text, a word the
# error must name); {tmp} in argv stands for the test directory
MALFORMED_INPUTS = (
    [pytest.param(["amen", "--family", "cyclic", "--element",
                   '[["a",1,0]]', "--kset", k], None, None, "K set",
                  id=f"kset-{name}") for name, k in KSETS.items()]
    + [pytest.param(["amen", "--family", "cyclic", "--element",
                     '[["a",1,0]]', "--kset", '[["inf",5]]'], None, None,
                    "word", id="kset-word-not-a-string")]
    + [pytest.param(["tau", "--n-max", "2"], SNAPSHOT, text,
                    "tau-congruence.json", id=f"snapshot-{name}")
       for name, text in SNAPSHOTS.items()]
    + [pytest.param(["gap", "--family", "fd", "--n-max", "2", "--element",
                     '[[5,1,0]]'], None, None, "word",
                    id="element-word-not-a-string"),
       # the contrast's first level is 2, so n_max 1 would compare nothing
       pytest.param(["tau", "--n-max", "1"], None, None, "n_max",
                    id="tau-n-max-1"),
       # a regular file where a directory to write into should be
       pytest.param(["quotients", "--family", "fd", "--n-max", "2"],
                    "cache", "", "quotient-fd-1.v3.npz",
                    id="unwritable-cache"),
       pytest.param(["quotients", "--family", "cyclic", "--n-max", "2",
                     "--out", "{tmp}/out/r.csv"], "out", "", "r.csv",
                    id="unwritable-out"),
       pytest.param(["gap", "--family", "fd", "--n-max", "4", "--radius",
                     "4", "--out", "{tmp}/out/r.csv"], "out", "", "r.csv",
                    id="unwritable-gap-out"),
       pytest.param(["tau", "--n-max", "3", "--out", "{tmp}/out/r.csv"],
                    "out", "", "r.csv", id="unwritable-tau-out"),
       pytest.param(["tau", "--n-max", "2"], "cache/snapshots", "",
                    "tau-congruence.json", id="unwritable-snapshot")]
    + [pytest.param(args + ["--family", "cyclic", "--n-max", "2"], None,
                    None, named, id=f"flag-{name}")
       for name, (args, named) in BAD_FLOAT_FLAGS.items()])


def stage(tmp_path, args, path, text):
    """The argv of a malformed input, its file written under tmp_path."""
    if path is not None:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    return ([a.replace("{tmp}", str(tmp_path)) for a in args]
            + ["--cache-dir", str(tmp_path / "cache")])


@pytest.mark.parametrize("args,path,text,named", MALFORMED_INPUTS)
def test_malformed_inputs_are_input_errors(tmp_path, capsys, args, path,
                                           text, named):
    assert main(stage(tmp_path, args, path, text)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and named in err, err
    assert built_levels(tmp_path) == []  # refused before any level


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(hlslab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("args,path,text,named", MALFORMED_INPUTS)
def test_malformed_inputs_exit_2_without_a_traceback(tmp_path, args, path,
                                                     text, named):
    done = subprocess.run(
        [sys.executable, "-m", "hlslab.cli", *stage(tmp_path, args, path,
                                                     text)],
        env=src_env(), capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert built_levels(tmp_path) == []


def test_reports_byte_identical_across_runs(cache, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gap", "--family", "fd", "--n-max", "3", "--radius", "4"]
    assert run(args, cache, out1) == 0
    assert run(args, cache, out2) == 0  # warm cache second time
    assert out1.read_bytes() == out2.read_bytes()

    out3, out4 = tmp_path / "c.csv", tmp_path / "d.csv"
    args = ["tau", "--family", "fd", "--n-max", "3"]
    assert run(args, cache, out3) == 0
    assert run(args, cache, out4) == 0
    assert out3.read_bytes() == out4.read_bytes()


NO_NUMPY_RANDOM = """
import sys
from hlslab.cli import main
cache, out = sys.argv[1:]
for argv in (["tau", "--n-max", "3"],
             ["gap", "--family", "cyclic", "--n-max", "3", "--radius", "20"]):
    assert main(argv + ["--cache-dir", cache, "--out", out]) == 0, argv
assert "numpy.random" not in sys.modules
"""


def test_solves_never_load_numpy_random(cache, tmp_path):
    # the Lanczos starts come from the standard-library generator, so a
    # run never pays for importing numpy.random
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, cache,
         str(tmp_path / "r.csv")],
        env=src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
