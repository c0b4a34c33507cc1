#!/usr/bin/env python3
"""Run the full verification battery over several residue field sizes.

Example:
    python scripts/run_verification.py --qs 3 5 7 9 --format table
"""

from __future__ import annotations

import argparse
import sys

from heckelab.cli import RunConfig, emit, run
from heckelab.errors import ConfigError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", type=int, nargs="+", default=[3, 5, 7, 9])
    ap.add_argument("--format", choices=["table", "json"], default="table")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        configs = [RunConfig(q=q, seed=args.seed, fmt=args.format) for q in args.qs]
    except ConfigError as exc:
        ap.error(str(exc))
    all_pass = True
    for config in configs:
        report, timings = run(config)
        print(emit(report, args.format, timings))
        print()
        all_pass &= report["pass"]
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
