#!/usr/bin/env python3
"""Amenability certificate demo on the cyclic tower.

Builds the uniform window {e, a, ..., a^(N-1)} with N = 2**n, whose
translation defect at the infinity fiber is exactly 2/N, and checks the
resulting certificate at a chosen epsilon.

Usage:
    python scripts/run_amenability_demo.py [--n N] [--epsilon E] [--out F]
"""

import argparse
import sys
from fractions import Fraction

from hlslab.cli import main as hlslab_main
from hlslab.words import GroupAlgebraElement, Word


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5,
                    help="window size exponent: N = 2**n")
    ap.add_argument("--epsilon", type=float, default=None,
                    help="defect tolerance (default 3/N)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    N = 2 ** args.n
    a = Word.parse("a", 1)
    xi = GroupAlgebraElement.from_pairs(
        [(a ** j, Fraction(1, N)) for j in range(N)], 1)
    epsilon = args.epsilon if args.epsilon is not None else 3.0 / N
    argv = ["amen", "--family", "cyclic",
            "--element", xi.to_json(),
            "--epsilon", repr(epsilon)]
    if args.out:
        argv += ["--out", args.out]
    return hlslab_main(argv)


if __name__ == "__main__":
    sys.exit(main())
