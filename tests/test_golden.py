"""Byte-identity of CLI reports against recorded golden CSVs.

The reports below carry exact values and element indices only (orders,
degrees, pass flags, BFS element indices, rational defects), or, for the
gap report, brackets that take no Lanczos solve (the constant vector on
every fd level and the radial closed form at infinity), so they do not
depend on the BLAS build.  A change that alters one of them changes what
the tool reports; regenerate the files with `python tests/test_golden.py`
only when that change is intended.
"""

import tempfile
from pathlib import Path

import pytest

from hlslab.cli import main

GOLDEN = Path(__file__).parent / "golden"

FD_ELEMENT = '[["e","1/3",0],["a","1/3",0],["b","1/3",0]]'
CYCLIC_ELEMENT = ('[["e","1/4",0],["a","1/4",0],["aa","1/4",0],'
                  '["aaa","1/4",0]]')

# name -> (argv, exit code)
REPORTS = {
    "quotients-fd-4": (["quotients", "--family", "fd", "--n-max", "4"], 0),
    "quotients-congruence-4": (
        ["quotients", "--family", "congruence", "--n-max", "4"], 0),
    "quotients-congruence-5": (
        ["quotients", "--family", "congruence", "--n-max", "5"], 0),
    "quotients-cyclic-6": (
        ["quotients", "--family", "cyclic", "--n-max", "6"], 0),
    "quotients-fd-4-radius-2": (
        ["quotients", "--family", "fd", "--n-max", "4", "--radius", "2"], 0),
    "amen-fd": (
        ["amen", "--family", "fd", "--element", FD_ELEMENT, "--kset",
         '[["inf","a"],[2,"ab"],[3,"aB"],[3,"bbA"],[4,"abAB"],[4,"baa"]]',
         "--epsilon", "0.9"], 1),
    "amen-cyclic": (
        ["amen", "--family", "cyclic", "--element", CYCLIC_ELEMENT,
         "--kset",
         '[["inf","a"],[2,"a"],[3,"AAA"],[5,"aaaaaaa"],[6,"AAAAA"]]',
         "--epsilon", "0.9"], 1),
    "gap-fd-4-radius-11": (
        ["gap", "--family", "fd", "--n-max", "4", "--radius", "11",
         "--infinity-ceiling", "3.4641016151377544"], 0),
    "convolve-check-fd": (["convolve-check", "--family", "fd"], 0),
    "convolve-check-congruence": (
        ["convolve-check", "--family", "congruence"], 0),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_byte_identical(name, cache_dir, tmp_path):
    argv, code = REPORTS[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--cache-dir", str(cache_dir),
                        "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    # regenerate every golden report with the hlslab on the import path
    with tempfile.TemporaryDirectory() as cache:
        for name, (argv, code) in REPORTS.items():
            got = main(argv + ["--cache-dir", cache,
                               "--out", str(GOLDEN / f"{name}.csv")])
            assert got == code, (name, got)
