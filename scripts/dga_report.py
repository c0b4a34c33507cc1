#!/usr/bin/env python3
"""Cohomology rank report for the windowed endomorphism DGA.

Exits 1 when a degree-0 dictionary check fails, 2 on invalid arguments.

Example:
    python scripts/dga_report.py --q 5 --max-degree 4 --window 6
"""

from __future__ import annotations

import argparse
import sys

from heckelab.dga import degree0_check, dga_cohomology
from heckelab.errors import ConfigError
from heckelab.gf import field_create, prime_power
from heckelab.torus import TorusCtx


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=5)
    ap.add_argument("--max-degree", type=int, default=4)
    ap.add_argument("--window", type=int, default=6)
    args = ap.parse_args()
    if args.max_degree < 0:
        ap.error("--max-degree must be >= 0")
    if args.window < 1:
        ap.error("--window must be >= 1")

    q = args.q
    try:
        tctx = TorusCtx(field_create(*prime_power(q)), q)
    except ConfigError as exc:
        ap.error(str(exc))

    print(f"{'degree':<8} block ranks (2x2)")
    for n in range(-args.max_degree, args.max_degree + 1):
        L = max(abs(n) + 2, 3)
        rep = dga_cohomology(tctx, n, L)
        print(f"{n:<8} {rep['block_ranks']}")
    ok = True
    for L in range(1, min(args.window, 4) + 1):
        rep = degree0_check(tctx, L)
        ok &= rep["pass"]
        print(f"degree-0 dictionary on window {L}: {'OK' if rep['pass'] else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
