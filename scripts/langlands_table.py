#!/usr/bin/env python3
"""Print the supersingular-module-to-singular-point table for one group.

Example:
    python scripts/langlands_table.py --q 7 --group SL2
"""

from __future__ import annotations

import argparse
import sys

from heckelab.cli import RunConfig
from heckelab.errors import ConfigError
from heckelab.gf import field_create
from heckelab.hecke import enumerate_supersingular
from heckelab.scheme import correspondence_table
from heckelab.torus import GroupKind, TorusCtx


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--group", choices=["GL2", "SL2", "PGL2"], default="SL2")
    ap.add_argument("--ambient-degree", type=int, default=0)
    args = ap.parse_args()

    kind = GroupKind(args.group)
    try:
        # the table is the scheme suite for one group: same configuration checks
        config = RunConfig(
            q=args.q, ambient_degree=args.ambient_degree, kinds=(kind,), suites=("scheme",)
        )
    except ConfigError as exc:
        ap.error(str(exc))
    tctx = TorusCtx(field_create(config.p, config.ambient_degree), config.q)
    rep = correspondence_table(enumerate_supersingular(tctx, kind))
    print(f"{'module':<28} component  segment  coord      gm")
    for row in rep.rows:
        pt = row["point"]
        print(
            f"{row['module']:<28} {str(pt['component']):<10} {pt['segment']:<8} "
            f"{str(pt['coord']):<10} {pt['gm']}"
        )
    print()
    print(f"modules: {rep.module_count}, singular points: {rep.node_count}")
    print(f"injective: {rep.injective}, image = nodes: {rep.image_is_nodes}")
    if rep.fiber_partition is not None:
        print(f"fibers (by character exponent): {rep.fiber_partition}")
        print(f"fibers match the packet partition: {rep.fibers_match_L_packets}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
