#!/usr/bin/env python3
"""Second-eigenvalue table for the Markov operator along the FD and
congruence towers.

The congruence family keeps a uniform spectral gap (the values stay
bounded away from 1) while the FD family's second eigenvalues creep up to
1 -- the numerical face of property (tau) holding for one tower and
failing for the other.

Usage:
    python scripts/run_tau_table.py [--n-max N] [--out F] [--update-snapshots]
"""

import argparse
import sys

from hlslab.cli import main as hlslab_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--out", default=None)
    ap.add_argument("--update-snapshots", action="store_true")
    args = ap.parse_args()
    argv = ["tau", "--n-max", str(args.n_max)]
    if args.out:
        argv += ["--out", args.out]
    if args.update_snapshots:
        argv += ["--update-snapshots"]
    return hlslab_main(argv)


if __name__ == "__main__":
    sys.exit(main())
